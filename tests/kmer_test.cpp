// Tests for the Jellyfish substitute: counting correctness against a brute
// force oracle, canonical semantics, dump formats, and concurrent inserts.

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "kmer/counter.hpp"
#include "seq/dna.hpp"
#include "test_helpers.hpp"

namespace trinity::kmer {
namespace {

using trinity::testing::TempDir;
using trinity::testing::random_dna;

/// Brute-force canonical k-mer counts over a set of sequences.
std::map<seq::KmerCode, std::uint32_t> oracle_counts(const std::vector<seq::Sequence>& seqs,
                                                     int k, bool canonical) {
  const seq::KmerCodec codec(k);
  std::map<seq::KmerCode, std::uint32_t> out;
  for (const auto& s : seqs) {
    for (std::size_t i = 0; i + static_cast<std::size_t>(k) <= s.bases.size(); ++i) {
      const auto code = codec.encode(std::string_view(s.bases).substr(i));
      if (!code) continue;
      out[canonical ? codec.canonical(*code) : *code] += 1;
    }
  }
  return out;
}

CounterOptions opts(int k, bool canonical = true) {
  CounterOptions o;
  o.k = k;
  o.canonical = canonical;
  return o;
}

TEST(KmerCounterTest, MatchesBruteForceOracle) {
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 10; ++i) {
    seqs.push_back({"s" + std::to_string(i), random_dna(300, static_cast<std::uint64_t>(i + 1))});
  }
  for (const int k : {5, 15, 25}) {
    KmerCounter counter(opts(k));
    counter.add_sequences(seqs);
    const auto expected = oracle_counts(seqs, k, true);

    std::uint64_t expected_total = 0;
    for (const auto& [code, count] : expected) expected_total += count;
    EXPECT_EQ(counter.distinct(), expected.size()) << "k=" << k;
    EXPECT_EQ(counter.total(), expected_total) << "k=" << k;
    for (const auto& [code, count] : expected) {
      EXPECT_EQ(counter.count_of(code), count) << "k=" << k;
    }
  }
}

TEST(KmerCounterTest, CanonicalMergesStrands) {
  const std::string fwd = random_dna(100, 44);
  std::vector<seq::Sequence> both{{"f", fwd}, {"r", seq::reverse_complement(fwd)}};
  KmerCounter counter(opts(21));
  counter.add_sequences(both);
  // Every canonical k-mer should have an even count (each window appears on
  // both strands) unless it is its own reverse complement (impossible for
  // odd k).
  for (const auto& kc : counter.dump()) {
    EXPECT_EQ(kc.count % 2, 0u) << "k-mer counted asymmetrically across strands";
  }
}

TEST(KmerCounterTest, NonCanonicalKeepsStrandsApart) {
  KmerCounter counter(opts(4, /*canonical=*/false));
  counter.add_sequence({"s", "AAAA"});
  const seq::KmerCodec codec(4);
  EXPECT_EQ(counter.count_of(*codec.encode("AAAA")), 1u);
  EXPECT_EQ(counter.count_of(*codec.encode("TTTT")), 0u);
}

TEST(KmerCounterTest, CountOfCanonicalizesQueries) {
  KmerCounter counter(opts(5));
  counter.add_sequence({"s", "ACGTC"});
  const seq::KmerCodec codec(5);
  // Query by the reverse complement; the canonical counter must find it.
  EXPECT_EQ(counter.count_of(*codec.encode("GACGT")), 1u);
}

TEST(KmerCounterTest, SequencesWithNsSkipThoseWindows) {
  KmerCounter counter(opts(3));
  counter.add_sequence({"s", "ACGNACG"});
  EXPECT_EQ(counter.total(), 2u);  // "ACG" twice, nothing across the N
}

TEST(KmerCounterTest, AccumulatesAcrossCalls) {
  KmerCounter counter(opts(3));
  counter.add_sequence({"a", "AAAA"});
  counter.add_sequence({"b", "AAAA"});
  const seq::KmerCodec codec(3);
  EXPECT_EQ(counter.count_of(*codec.encode("AAA")), 4u);
}

TEST(KmerCounterTest, MinCountFiltersDump) {
  KmerCounter counter(opts(3));
  counter.add_sequence({"s", "AAAAACG"});  // AAA x3, AAC, ACG once each
  const auto all = counter.dump(1);
  const auto frequent = counter.dump(2);
  EXPECT_GT(all.size(), frequent.size());
  for (const auto& kc : frequent) EXPECT_GE(kc.count, 2u);
}

TEST(KmerCounterTest, RejectsNonPowerOfTwoShards) {
  CounterOptions o;
  o.num_shards = 7;
  EXPECT_THROW(KmerCounter{o}, std::invalid_argument);
}

TEST(KmerCounterTest, ConcurrentInsertsAreExact) {
  // Hammer the striped hash from explicit threads; total must be exact.
  KmerCounter counter(opts(15));
  const std::string seed_seq = random_dna(5000, 321);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter, &seed_seq] {
      counter.add_sequence({"s", seed_seq});
    });
  }
  for (auto& w : workers) w.join();
  const auto expected = oracle_counts({{"s", seed_seq}}, 15, true);
  std::uint64_t expected_total = 0;
  for (const auto& [code, count] : expected) expected_total += count;
  EXPECT_EQ(counter.total(), expected_total * kThreads);
}

TEST(KmerDumpTest, BinaryRoundTrip) {
  const TempDir dir("bdump");
  KmerCounter counter(opts(25));
  counter.add_sequence({"s", random_dna(400, 10)});
  const auto counts = counter.dump();
  write_dump_binary(dir.file("k.bin"), counts, 25);
  const auto got = read_dump_binary(dir.file("k.bin"), 25);
  ASSERT_EQ(got.size(), counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(got[i].code, counts[i].code);
    EXPECT_EQ(got[i].count, counts[i].count);
  }
}

TEST(KmerDumpTest, BinaryKMismatchThrows) {
  const TempDir dir("kmis");
  write_dump_binary(dir.file("k.bin"), {}, 25);
  EXPECT_THROW(read_dump_binary(dir.file("k.bin"), 21), std::runtime_error);
}

TEST(KmerDumpTest, TruncatedBinaryThrows) {
  const TempDir dir("trunc");
  KmerCounter counter(opts(11));
  counter.add_sequence({"s", random_dna(100, 2)});
  write_dump_binary(dir.file("k.bin"), counter.dump(), 11);
  // Chop the file.
  const auto path = dir.file("k.bin");
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  EXPECT_THROW(read_dump_binary(path, 11), std::runtime_error);
}

}  // namespace
}  // namespace trinity::kmer
