// Tests for the Jellyfish substitute: counting correctness against a brute
// force oracle, canonical semantics, thread-count-independent dumps, and the
// binary dump format.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>

#include "io/error.hpp"
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

CounterOptions opts(int k, bool canonical = true, int num_threads = 0) {
  CounterOptions o;
  o.k = k;
  o.canonical = canonical;
  o.num_threads = num_threads;
  return o;
}

/// count_of, distinct, total and the sorted dump all agree with the oracle.
void expect_matches_oracle(const KmerCounter& counter, const std::vector<seq::Sequence>& seqs) {
  const int k = counter.options().k;
  const auto expected = oracle_counts(seqs, k, counter.options().canonical);
  std::uint64_t expected_total = 0;
  for (const auto& [code, count] : expected) expected_total += count;
  EXPECT_EQ(counter.distinct(), expected.size()) << "k=" << k;
  EXPECT_EQ(counter.total(), expected_total) << "k=" << k;
  for (const auto& [code, count] : expected) {
    EXPECT_EQ(counter.count_of(code), count) << "k=" << k;
  }
  auto dumped = counter.dump();
  std::sort(dumped.begin(), dumped.end(),
            [](const KmerCount& a, const KmerCount& b) { return a.code < b.code; });
  ASSERT_EQ(dumped.size(), expected.size()) << "k=" << k;
  auto want = expected.begin();
  for (const auto& kc : dumped) {
    EXPECT_EQ(kc.code, want->first) << "k=" << k;
    EXPECT_EQ(kc.count, want->second) << "k=" << k;
    ++want;
  }
}

/// More bases than one add_sequences batch, with every read present four
/// times so counts are not all 1.
std::vector<seq::Sequence> multi_batch_corpus() {
  std::vector<seq::Sequence> reads;
  for (int i = 0; i < 2400; ++i) {
    reads.push_back({"r" + std::to_string(i), random_dna(300, 1 + i % 600)});
  }
  return reads;
}

TEST(KmerCounterTest, MatchesBruteForceOracle) {
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 10; ++i) {
    seqs.push_back({"s" + std::to_string(i), random_dna(300, static_cast<std::uint64_t>(i + 1))});
  }
  for (const int k : {5, 15, 25}) {
    KmerCounter counter(opts(k));
    counter.add_sequences(seqs);
    expect_matches_oracle(counter, seqs);
  }
}

class KmerCounterThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(KmerCounterThreadsTest, MultiBatchCountsMatchOracleAndSerialDump) {
  const auto reads = multi_batch_corpus();
  ASSERT_GT(seq::total_bases(reads), KmerCounter::kBatchBases);
  KmerCounter counter(opts(25, /*canonical=*/true, GetParam()));
  counter.add_sequences(reads);
  expect_matches_oracle(counter, reads);

  // The dump order is a function of the reads alone: element for element
  // what one thread produces.
  KmerCounter serial(opts(25, /*canonical=*/true, 1));
  serial.add_sequences(reads);
  const auto got = counter.dump();
  const auto want = serial.dump();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].code, want[i].code) << "record " << i;
    ASSERT_EQ(got[i].count, want[i].count) << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(NumThreads, KmerCounterThreadsTest, ::testing::Values(1, 2, 4));

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
  counter.add_sequences({{"s", "AAAA"}});
  const seq::KmerCodec codec(4);
  EXPECT_EQ(counter.count_of(*codec.encode("AAAA")), 1u);
  EXPECT_EQ(counter.count_of(*codec.encode("TTTT")), 0u);
}

TEST(KmerCounterTest, CountOfCanonicalizesQueries) {
  KmerCounter counter(opts(5));
  counter.add_sequences({{"s", "ACGTC"}});
  const seq::KmerCodec codec(5);
  // Query by the reverse complement; the canonical counter must find it.
  EXPECT_EQ(counter.count_of(*codec.encode("GACGT")), 1u);
}

TEST(KmerCounterTest, SequencesWithNsSkipThoseWindows) {
  KmerCounter counter(opts(3));
  counter.add_sequences({{"s", "ACGNACG"}});
  EXPECT_EQ(counter.total(), 2u);  // "ACG" twice, nothing across the N
}

TEST(KmerCounterTest, AccumulatesAcrossCalls) {
  KmerCounter counter(opts(3));
  counter.add_sequences({{"a", "AAAA"}});
  counter.add_sequences({{"b", "AAAA"}});
  const seq::KmerCodec codec(3);
  EXPECT_EQ(counter.count_of(*codec.encode("AAA")), 4u);
}

TEST(KmerCounterTest, MinCountFiltersDump) {
  KmerCounter counter(opts(3));
  counter.add_sequences({{"s", "AAAAACG"}});  // AAA x3, AAC, ACG once each
  const auto all = counter.dump(1);
  const auto frequent = counter.dump(2);
  EXPECT_GT(all.size(), frequent.size());
  for (const auto& kc : frequent) EXPECT_GE(kc.count, 2u);
}

TEST(KmerDumpTest, BinaryRoundTrip) {
  const TempDir dir("bdump");
  KmerCounter counter(opts(25));
  counter.add_sequences({{"s", random_dna(400, 10)}});
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
  counter.add_sequences({{"s", random_dna(100, 2)}});
  write_dump_binary(dir.file("k.bin"), counter.dump(), 11);
  // Chop the file.
  const auto path = dir.file("k.bin");
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);
  EXPECT_THROW(read_dump_binary(path, 11), std::runtime_error);
}

TEST(KmerDumpTest, RecordCountBeyondFileSizeIsTyped) {
  // A header alone that claims 2^60 records: rejected as a typed parse
  // error before anything is allocated for the records.
  const TempDir dir("lie");
  const auto path = dir.file("k.bin");
  const std::uint32_t k = 25;
  const std::uint64_t n = std::uint64_t{1} << 60;
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(&k), sizeof(k));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  }
  try {
    (void)read_dump_binary(path, 25);
    FAIL() << "expected io::ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.category(), io::ParseCategory::kTruncatedRecord);
  }
}

}  // namespace
}  // namespace trinity::kmer
