// Tests for the checkpoint subsystem: manifest JSON-line round-trips,
// earlier-format lines, tolerant loading of damaged and seeded-mutated
// manifests, atomic commits, stage validation against on-disk outputs,
// the options fingerprint builder, and the retry/backoff policy.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/fingerprint.hpp"
#include "checkpoint/manifest.hpp"
#include "checkpoint/retry.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"

namespace trinity::checkpoint {
namespace {

using testing::TempDir;

StageRecord sample_record() {
  StageRecord r;
  r.stage = "chrysalis.bowtie";
  r.fingerprint = 0xdeadbeefcafef00dULL;
  r.outputs.push_back({"bowtie.sam", 789, 0x9999aaaabbbbccccULL});
  r.outputs.push_back({"bowtie.log", 12, 0x1111222233334444ULL});
  return r;
}

void expect_same_record(const StageRecord& got, const StageRecord& want) {
  EXPECT_EQ(got.stage, want.stage);
  EXPECT_EQ(got.fingerprint, want.fingerprint);
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(got.outputs, want.outputs);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

// --- JSON line round-trip --------------------------------------------------------

TEST(ManifestJson, RecordRoundTrips) {
  const StageRecord r = sample_record();
  const auto parsed = parse_json_line(to_json_line(r));
  ASSERT_TRUE(parsed.has_value());
  expect_same_record(*parsed, r);
}

TEST(ManifestJson, HashesSurviveAsFullSixtyFourBit) {
  // Hashes near 2^64 - 1 cannot survive a double round-trip; the format
  // must carry them as strings.
  StageRecord r;
  r.stage = "jellyfish";
  r.fingerprint = 0xffffffffffffffffULL;
  r.outputs.push_back({"kmers.bin", 1, 0xfffffffffffffffeULL});
  const auto parsed = parse_json_line(to_json_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->fingerprint, 0xffffffffffffffffULL);
  EXPECT_EQ(parsed->outputs.at(0).hash, 0xfffffffffffffffeULL);
}

TEST(ManifestJson, EscapesSpecialCharactersInPaths) {
  StageRecord r;
  r.stage = "weird \"stage\"\n\t\\name";
  r.fingerprint = 7;
  r.outputs.push_back({"dir\\file \"x\".fa", 2, 3});
  const auto parsed = parse_json_line(to_json_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stage, r.stage);
  EXPECT_EQ(parsed->outputs.at(0).path, r.outputs.at(0).path);
}

TEST(ManifestJson, TraceFieldIsOptionalAndRoundTrips) {
  // With a trace, the field round-trips.
  StageRecord r = sample_record();
  r.trace = "run_report.json";
  const auto parsed = parse_json_line(to_json_line(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace, "run_report.json");

  // Without one, the key is omitted entirely — the line matches what the
  // pre-trace format wrote, so old manifests keep parsing byte-identically.
  r.trace.clear();
  const std::string line = to_json_line(r);
  EXPECT_EQ(line.find("\"trace\""), std::string::npos);
  const auto bare = parse_json_line(line);
  ASSERT_TRUE(bare.has_value());
  EXPECT_TRUE(bare->trace.empty());
}

TEST(ManifestJson, ParsesLinesFromTheHandWrittenCodec) {
  // Literal lines from the manifest's earlier writers, which also recorded
  // each stage's inputs, a completion flag, the attempt number and two
  // timings; the hand-written one formatted doubles through an ostream
  // (`1e-05`, `123457`, `2.5e-07`). A work dir checkpointed by either
  // must still resume: the extra keys are ignored, and what is left is
  // the same stage, fingerprint, trace and outputs.
  const auto plain = parse_json_line(
      R"({"stage":"jellyfish","fingerprint":"00000000000000ab","complete":true,)"
      R"("attempt":1,"wall_seconds":1e-05,"checkpoint_seconds":123457,)"
      R"("inputs":[{"path":"reads.fa","bytes":1048576,"hash":"0123456789abcdef"}],)"
      R"("outputs":[{"path":"kmers.bin","bytes":0,"hash":"fffffffffffffffe"}]})");
  ASSERT_TRUE(plain.has_value());
  StageRecord want;
  want.stage = "jellyfish";
  want.fingerprint = 0xabULL;
  want.outputs = {{"kmers.bin", 0, 0xfffffffffffffffeULL}};
  expect_same_record(*plain, want);

  const auto traced = parse_json_line(
      R"({"stage":"inchworm","fingerprint":"47312ba2559291cf","complete":true,)"
      R"("attempt":2,"wall_seconds":0.003697219,"checkpoint_seconds":0.000837058,)"
      R"("trace":"run_report.json",)"
      R"("inputs":[{"path":"kmers.bin","bytes":444864,"hash":"42feed78d3bbc5c7"}],)"
      R"("outputs":[{"path":"inchworm.fa","bytes":13161,"hash":"07ae793780833032"}]})");
  ASSERT_TRUE(traced.has_value());
  want.stage = "inchworm";
  want.fingerprint = 0x47312ba2559291cfULL;
  want.trace = "run_report.json";
  want.outputs = {{"inchworm.fa", 13161, 0x07ae793780833032ULL}};
  expect_same_record(*traced, want);
  // Rewritten by this writer, the line carries none of the earlier keys.
  EXPECT_EQ(to_json_line(*traced),
            R"({"stage":"inchworm","fingerprint":"47312ba2559291cf",)"
            R"("trace":"run_report.json",)"
            R"("outputs":[{"path":"inchworm.fa","bytes":13161,"hash":"07ae793780833032"}]})");

  // A stage recorded as never completed is no checkpoint: dropped like a
  // torn line.
  EXPECT_FALSE(parse_json_line(
                   R"({"stage":"chrysalis.reads_to_transcripts","fingerprint":"deadbeefcafef00d",)"
                   R"("complete":false,"attempt":3,"wall_seconds":0,"checkpoint_seconds":2.5e-07,)"
                   R"("trace":"run_report.json","inputs":[],"outputs":[]})")
                   .has_value());
  // "complete" must still be a JSON boolean.
  EXPECT_FALSE(parse_json_line(
                   R"({"stage":"s","fingerprint":"0000000000000001","complete":"yes",)"
                   R"("outputs":[]})")
                   .has_value());
}

TEST(ManifestJson, RejectsMalformedLines) {
  const std::string good = to_json_line(sample_record());
  // Truncations at every prefix length must fail, never crash.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(parse_json_line(good.substr(0, len)).has_value())
        << "prefix of length " << len << " parsed";
  }
  EXPECT_FALSE(parse_json_line(good + "garbage").has_value());
  EXPECT_FALSE(parse_json_line("not json at all").has_value());
  EXPECT_FALSE(parse_json_line("{}").has_value());  // missing required fields
  EXPECT_FALSE(parse_json_line("{\"stage\":\"x\"}").has_value());  // no fingerprint
}

// --- seeded mutation -------------------------------------------------------------

/// Valid lines in the current and the earlier format: the mutation seeds.
std::vector<std::string> mutation_corpus() {
  StageRecord traced = sample_record();
  traced.trace = "run_report.json";
  return {
      to_json_line(sample_record()),
      to_json_line(traced),
      R"({"stage":"jellyfish","fingerprint":"47312ba2559291cf","complete":true,"attempt":1,)"
      R"("wall_seconds":0.030443021,"checkpoint_seconds":0.001530724,"trace":"run_report.json",)"
      R"("inputs":[{"path":"reads.fa","bytes":377686,"hash":"4908a81b9fb3f147"}],)"
      R"("outputs":[{"path":"kmers.bin","bytes":444864,"hash":"42feed78d3bbc5c7"}]})",
      R"({"stage":"butterfly","fingerprint":"00000000000000ab","complete":false,"attempt":3,)"
      R"("wall_seconds":1e-05,"checkpoint_seconds":123457,"inputs":[],"outputs":[]})",
  };
}

/// One to three stacked mutations of a corpus line: bit flips, a
/// truncation, or a splice of a prefix onto another line's suffix.
std::string mutate(const std::vector<std::string>& corpus, std::mt19937_64& rng) {
  std::string line = corpus[rng() % corpus.size()];
  for (int n = 1 + static_cast<int>(rng() % 3); n > 0; --n) {
    switch (rng() % 3) {
      case 0:
        if (line.empty()) break;
        for (int flips = 1 + static_cast<int>(rng() % 4); flips > 0; --flips) {
          char& c = line[rng() % line.size()];
          c = static_cast<char>(c ^ (1 << (rng() % 8)));
        }
        break;
      case 1:
        line.resize(line.empty() ? 0 : rng() % line.size());
        break;
      default: {
        const std::string& other = corpus[rng() % corpus.size()];
        line = line.substr(0, rng() % (line.size() + 1)) + other.substr(rng() % (other.size() + 1));
      }
    }
  }
  return line;
}

constexpr std::uint64_t kMutationSeeds[] = {1, 2, 3};

TEST(ManifestMutation, MutatedLinesParseToRecordsOrNothing) {
  const auto corpus = mutation_corpus();
  std::size_t parsed_count = 0;
  for (const std::uint64_t seed : kMutationSeeds) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 3000; ++i) {
      const std::string line = mutate(corpus, rng);
      const auto parsed = parse_json_line(line);
      if (!parsed) continue;
      ++parsed_count;
      // A mutant that still parses is a well-formed record: the writer
      // reproduces it exactly.
      const auto again = parse_json_line(to_json_line(*parsed));
      ASSERT_TRUE(again.has_value()) << "seed " << seed << ": " << line;
      expect_same_record(*again, *parsed);
    }
  }
  // Splices at matching offsets and flips inside hash digits keep some
  // mutants valid, so both outcomes are exercised.
  EXPECT_GT(parsed_count, 0u);
}

TEST(ManifestMutation, LoadOfMutatedFileNeverThrows) {
  TempDir dir("manifest_mutation");
  const std::string path = dir.file("run_manifest.jsonl");
  const auto corpus = mutation_corpus();
  for (const std::uint64_t seed : kMutationSeeds) {
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 200; ++i) {
      // A few lines, valid and mutated mixed, as a crashed writer or a
      // damaged disk might leave them.
      std::string body;
      for (int lines = 1 + static_cast<int>(rng() % 4); lines > 0; --lines) {
        body += rng() % 2 == 0 ? corpus[rng() % corpus.size()] : mutate(corpus, rng);
        body += '\n';
      }
      write_file(path, body);
      std::size_t want_dropped = 0;
      std::istringstream in(body);
      for (std::string line; std::getline(in, line);) {
        if (!line.empty() && !parse_json_line(line)) ++want_dropped;
      }
      RunManifest m;
      ASSERT_NO_THROW(m = RunManifest::load(path)) << "seed " << seed << " file " << i;
      EXPECT_EQ(m.dropped_lines(), want_dropped) << "seed " << seed << " file " << i;
    }
  }
}

// --- RunManifest load/commit -----------------------------------------------------

TEST(RunManifest, LoadOfMissingFileIsEmpty) {
  TempDir dir("manifest_missing");
  const auto m = RunManifest::load(dir.file("absent.jsonl"));
  EXPECT_TRUE(m.records().empty());
  EXPECT_EQ(m.dropped_lines(), 0u);
}

TEST(RunManifest, CommitThenLoadRoundTrips) {
  TempDir dir("manifest_roundtrip");
  RunManifest m(dir.file("run_manifest.jsonl"));
  StageRecord first = sample_record();
  StageRecord second;
  second.stage = "inchworm";
  second.fingerprint = first.fingerprint;
  m.upsert(first);
  m.upsert(second);
  m.commit();

  const auto loaded = RunManifest::load(m.path());
  ASSERT_EQ(loaded.records().size(), 2u);
  EXPECT_EQ(loaded.records()[0].stage, "chrysalis.bowtie");
  EXPECT_EQ(loaded.records()[1].stage, "inchworm");
  EXPECT_EQ(loaded.dropped_lines(), 0u);
  // No leftover temporary from the atomic rename.
  EXPECT_FALSE(std::filesystem::exists(m.path() + ".tmp"));
}

TEST(RunManifest, UpsertReplacesInPlace) {
  RunManifest m("unused");
  StageRecord r = sample_record();
  m.upsert(r);
  r.fingerprint = 5;
  m.upsert(r);
  ASSERT_EQ(m.records().size(), 1u);
  EXPECT_EQ(m.records()[0].fingerprint, 5u);
  ASSERT_NE(m.find("chrysalis.bowtie"), nullptr);
  EXPECT_EQ(m.find("chrysalis.bowtie")->fingerprint, 5u);
  EXPECT_EQ(m.find("nope"), nullptr);
}

TEST(RunManifest, TruncatedLineIsDroppedOthersSurvive) {
  TempDir dir("manifest_truncated");
  const std::string path = dir.file("run_manifest.jsonl");
  const std::string good = to_json_line(sample_record());
  // A crash mid-append leaves a final line cut off mid-object.
  write_file(path, good + "\n" + good.substr(0, good.size() / 2));
  const auto m = RunManifest::load(path);
  ASSERT_EQ(m.records().size(), 1u);
  EXPECT_EQ(m.dropped_lines(), 1u);
}

TEST(RunManifest, CommitIntoUnwritableDirectoryThrows) {
  RunManifest m("/nonexistent_dir_zzz/run_manifest.jsonl");
  m.upsert(sample_record());
  EXPECT_THROW(m.commit(), std::runtime_error);
}

// --- capture + validate ----------------------------------------------------------

TEST(ValidateStage, ValidRecordPasses) {
  TempDir dir("validate_ok");
  write_file(dir.file("a.fa"), ">r0\nACGT\n");
  write_file(dir.file("b.sam"), "@HD\n");
  StageRecord r;
  r.stage = "s";
  r.fingerprint = 42;
  r.outputs.push_back(capture_artifact(dir.str(), "a.fa"));
  r.outputs.push_back(capture_artifact(dir.str(), "b.sam"));
  EXPECT_EQ(validate_stage(r, dir.str(), 42), StageCheck::kValid);
}

TEST(ValidateStage, ReportsEveryFailureReason) {
  TempDir dir("validate_fail");
  write_file(dir.file("a.fa"), ">r0\nACGT\n");
  StageRecord r;
  r.stage = "s";
  r.fingerprint = 42;
  r.outputs.push_back(capture_artifact(dir.str(), "a.fa"));

  EXPECT_EQ(validate_stage(r, dir.str(), 43), StageCheck::kFingerprintMismatch);

  // Same size, different bytes: only the hash catches it.
  write_file(dir.file("a.fa"), ">r0\nACGA\n");
  EXPECT_EQ(validate_stage(r, dir.str(), 42), StageCheck::kArtifactModified);

  std::filesystem::remove(dir.file("a.fa"));
  EXPECT_EQ(validate_stage(r, dir.str(), 42), StageCheck::kArtifactMissing);
}

TEST(ValidateStage, CaptureOfMissingFileThrows) {
  TempDir dir("capture_missing");
  EXPECT_THROW((void)capture_artifact(dir.str(), "ghost.fa"), std::runtime_error);
}

TEST(ValidateStage, CaptureMatchesFnvOfContents) {
  TempDir dir("capture_hash");
  const std::string content = "some stage artifact bytes";
  write_file(dir.file("x"), content);
  const ArtifactRecord a = capture_artifact(dir.str(), "x");
  EXPECT_EQ(a.bytes, content.size());
  EXPECT_EQ(a.hash, util::fnv1a(content));
}

// --- fingerprint -----------------------------------------------------------------

TEST(Fingerprint, SensitiveToNameValueAndOrder) {
  const auto base = FingerprintBuilder().add("k", std::int64_t{25}).add("seed", true).digest();
  EXPECT_EQ(FingerprintBuilder().add("k", std::int64_t{25}).add("seed", true).digest(), base);
  EXPECT_NE(FingerprintBuilder().add("k", std::int64_t{26}).add("seed", true).digest(), base);
  EXPECT_NE(FingerprintBuilder().add("q", std::int64_t{25}).add("seed", true).digest(), base);
  EXPECT_NE(FingerprintBuilder().add("seed", true).add("k", std::int64_t{25}).digest(), base);
  EXPECT_NE(FingerprintBuilder().add("k", std::int64_t{25}).add("seed", false).digest(), base);
}

TEST(Fingerprint, DoubleUsesBitPattern) {
  const auto a = FingerprintBuilder().add("x", 0.1).digest();
  const auto b = FingerprintBuilder().add("x", 0.1 + 1e-18).digest();  // same double
  const auto c = FingerprintBuilder().add("x", 0.2).digest();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// --- retry policy ----------------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.initial_backoff_seconds = 1.0;
  p.backoff_multiplier = 4.0;
  p.max_backoff_seconds = 10.0;
  EXPECT_DOUBLE_EQ(p.backoff_for(1), 1.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(2), 4.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(3), 10.0);  // 16 capped
}

TEST(RetryPolicy, DefaultBackoffIsZero) {
  RetryPolicy p;
  EXPECT_DOUBLE_EQ(p.backoff_for(1), 0.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(10), 0.0);
}

// --- hashing utility -------------------------------------------------------------

TEST(Fnv1a, KnownVectorsAndStreaming) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(util::fnv1a(std::string_view{""}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a(std::string_view{"a"}), 0xaf63dc4c8601ec8cULL);
  // Streaming in pieces equals hashing the whole.
  auto state = util::kFnvOffsetBasis;
  state = util::fnv1a_append(state, "foo", 3);
  state = util::fnv1a_append(state, "bar", 3);
  EXPECT_EQ(state, util::fnv1a(std::string_view{"foobar"}));
}

TEST(Fnv1a, FileHashMatchesInMemory) {
  TempDir dir("fnv_file");
  // Larger than the streaming buffer so multiple reads are exercised.
  std::string content;
  for (int i = 0; i < 10000; ++i) content += "block " + std::to_string(i) + "\n";
  write_file(dir.file("big"), content);
  EXPECT_EQ(util::fnv1a_file(dir.file("big")), util::fnv1a(content));
  EXPECT_THROW((void)util::fnv1a_file(dir.file("ghost")), std::runtime_error);
}

}  // namespace
}  // namespace trinity::checkpoint
