// Tests for the Smith–Waterman validator kernel: known alignments, affine
// gap behaviour, coverage/identity statistics, strand selection, and the
// exactness of the score-only kernels and prefix traceback against `align`.

#include <gtest/gtest.h>

#include "seq/dna.hpp"
#include "sw/score_kernels.hpp"
#include "sw/smith_waterman.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace trinity::sw {
namespace {

using trinity::testing::random_dna;

/// `source` with random substitutions and indels: about one edit per
/// `spacing` bases, indels of 1 to max_indel bases.
std::string mutate(const std::string& source, std::uint64_t seed, std::size_t spacing = 25,
                   std::size_t max_indel = 6) {
  util::Rng rng(seed);
  std::string out;
  for (std::size_t p = 0; p < source.size(); ++p) {
    if (rng.uniform_below(spacing) != 0) {
      out.push_back(source[p]);
      continue;
    }
    const std::size_t len = 1 + rng.uniform_below(max_indel);
    switch (rng.uniform_below(3)) {
      case 0: {  // substitution by a different base
        char base = source[p];
        while (base == source[p]) base = "ACGT"[rng.uniform_below(4)];
        out.push_back(base);
        break;
      }
      case 1:  // deletion of len bases
        p += len - 1;
        break;
      default:  // insertion of len bases before source[p]
        out += random_dna(len, seed * 31 + p);
        out.push_back(source[p]);
    }
  }
  return out;
}

void expect_same_alignment(const Alignment& got, const Alignment& want) {
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.query_begin, want.query_begin);
  EXPECT_EQ(got.query_end, want.query_end);
  EXPECT_EQ(got.target_begin, want.target_begin);
  EXPECT_EQ(got.target_end, want.target_end);
  EXPECT_EQ(got.matches, want.matches);
  EXPECT_EQ(got.alignment_columns, want.alignment_columns);
}

TEST(SwTest, IdenticalSequencesScorePerfect) {
  const std::string s = random_dna(120, 1);
  const auto aln = align(s, s);
  EXPECT_EQ(aln.score, static_cast<int>(s.size()) * Scoring{}.match);
  EXPECT_EQ(aln.matches, s.size());
  EXPECT_EQ(aln.alignment_columns, s.size());
  EXPECT_DOUBLE_EQ(aln.identity(), 1.0);
  EXPECT_DOUBLE_EQ(aln.query_coverage(s.size()), 1.0);
  EXPECT_EQ(aln.query_begin, 0u);
  EXPECT_EQ(aln.query_end, s.size());
}

TEST(SwTest, EmptyInputsYieldEmptyAlignment) {
  EXPECT_EQ(align("", "ACGT").score, 0);
  EXPECT_EQ(align("ACGT", "").score, 0);
  EXPECT_EQ(align("", "").score, 0);
}

TEST(SwTest, DisjointAlphabetsDoNotAlign) {
  const auto aln = align("AAAAAAAA", "TTTTTTTT");
  // Local alignment of all-mismatch pairs is empty (score clamped at 0).
  EXPECT_EQ(aln.score, 0);
  EXPECT_EQ(aln.alignment_columns, 0u);
}

TEST(SwTest, SubstringIsFoundExactly) {
  const std::string target = random_dna(200, 2);
  const std::string query = target.substr(50, 40);
  const auto aln = align(query, target);
  EXPECT_EQ(aln.matches, 40u);
  EXPECT_EQ(aln.target_begin, 50u);
  EXPECT_EQ(aln.target_end, 90u);
  EXPECT_DOUBLE_EQ(aln.query_coverage(query.size()), 1.0);
}

TEST(SwTest, SingleMismatchCounted) {
  std::string a = random_dna(60, 3);
  std::string b = a;
  b[30] = b[30] == 'A' ? 'C' : 'A';
  const auto aln = align(a, b);
  EXPECT_EQ(aln.alignment_columns, 60u);
  EXPECT_EQ(aln.matches, 59u);
  EXPECT_NEAR(aln.identity(), 59.0 / 60.0, 1e-12);
}

TEST(SwTest, GapAlignmentBeatsTruncationForLongFlanks) {
  // Query = target with a 3-base deletion in the middle; the affine model
  // should bridge the gap rather than truncate the alignment.
  const std::string target = random_dna(100, 4);
  std::string query = target;
  query.erase(50, 3);
  const auto aln = align(query, target);
  EXPECT_EQ(aln.matches, query.size());
  EXPECT_EQ(aln.alignment_columns, query.size() + 3);  // 3 gap columns
  EXPECT_DOUBLE_EQ(aln.query_coverage(query.size()), 1.0);
}

TEST(SwTest, AffineGapPrefersOneLongGapOverManyShort) {
  // One 4-gap scores open + 3*extend = -24, better than four 1-gaps at
  // 4*open = -48.
  const Scoring s;
  EXPECT_GT(s.gap_open + 3 * s.gap_extend, 4 * s.gap_open);
  const std::string target = random_dna(80, 5);
  std::string query = target;
  query.erase(40, 4);
  const auto aln = align(query, target);
  // Full-length match with exactly 4 gap columns proves a single gap run.
  EXPECT_EQ(aln.matches, query.size());
  EXPECT_EQ(aln.alignment_columns, query.size() + 4);
}

TEST(SwTest, AffineGapPrefersOneLongGapOnTheQuerySide) {
  // The mirror case: the query carries 4 extra bases, so the gap consumes
  // query bases (a vertical run in the DP) and must still be one run.
  const std::string target = random_dna(80, 5);
  std::string query = target;
  query.insert(40, "GATC");
  const auto aln = align(query, target);
  EXPECT_EQ(aln.score, static_cast<int>(target.size()) * Scoring{}.match +
                           Scoring{}.gap_open + 3 * Scoring{}.gap_extend);
  EXPECT_EQ(aln.matches, target.size());
  EXPECT_EQ(aln.alignment_columns, target.size() + 4);
  EXPECT_DOUBLE_EQ(aln.query_coverage(query.size()), 1.0);
}

TEST(SwTest, ScoreSymmetricUnderSwap) {
  const std::string a = random_dna(70, 6);
  const std::string b = random_dna(90, 7);
  EXPECT_EQ(align(a, b).score, align(b, a).score);
  // Multi-base indels: the gap is vertical one way round and horizontal
  // the other, and both must be charged as one affine run.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string x = random_dna(60 + seed, seed + 200);
    const std::string y = mutate(x, seed, 15, 5);
    EXPECT_EQ(align(x, y).score, align(y, x).score) << "seed=" << seed;
  }
}

TEST(SwTest, ScoreNeverExceedsPerfect) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::string a = random_dna(50, seed);
    const std::string b = random_dna(60, seed + 100);
    const auto aln = align(a, b);
    EXPECT_LE(aln.score, static_cast<int>(std::min(a.size(), b.size())) * Scoring{}.match);
    EXPECT_GE(aln.score, 0);
    EXPECT_LE(aln.matches, aln.alignment_columns);
  }
}

TEST(SwTest, TracebackBoundsAreConsistent) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::string a = random_dna(80, seed);
    std::string b = a;
    // sprinkle mutations
    b[10] = 'A';
    b[55] = 'T';
    b.erase(30, 2);
    const auto aln = align(a, b);
    EXPECT_LE(aln.query_begin, aln.query_end);
    EXPECT_LE(aln.target_begin, aln.target_end);
    EXPECT_LE(aln.query_end, a.size());
    EXPECT_LE(aln.target_end, b.size());
    // Columns cover at least the longer of the two spans.
    EXPECT_GE(aln.alignment_columns,
              std::max(aln.query_end - aln.query_begin, aln.target_end - aln.target_begin));
  }
}

TEST(SwTest, BestStrandPicksReverseComplement) {
  const std::string target = random_dna(100, 10);
  const std::string query = seq::reverse_complement(target);
  const auto fwd_only = align(query, target);
  const auto best = align_best_strand(query, target);
  EXPECT_GT(best.score, fwd_only.score);
  EXPECT_EQ(best.matches, target.size());
}

TEST(SwTest, BestStrandPrefersForwardOnTies) {
  // A strand-symmetric palindrome scores equally both ways; forward wins.
  const std::string target = random_dna(60, 11);
  const auto best = align_best_strand(target, target);
  EXPECT_EQ(best.matches, target.size());
  // A true tie that the strands resolve differently: the query occurs
  // forward at the start of the target and reverse-complemented at its
  // end, with equal scores. Forward must win, so the hit is at the start.
  const std::string query = random_dna(50, 12);
  const std::string both = query + random_dna(20, 13) + seq::reverse_complement(query);
  const auto tie = best_strand_end(query, both);
  EXPECT_TRUE(tie.forward);
  EXPECT_EQ(tie.end.target_end, query.size());
  EXPECT_EQ(align_best_strand(query, both).target_begin, 0u);
}

TEST(SwTest, EmptyAlignmentStatisticsAreZero) {
  const Alignment empty;
  EXPECT_DOUBLE_EQ(empty.identity(), 0.0);
  EXPECT_DOUBLE_EQ(empty.query_coverage(100), 0.0);
  EXPECT_DOUBLE_EQ(empty.query_coverage(0), 0.0);
}

TEST(SwTest, CustomScoringRespected) {
  Scoring s;
  s.match = 1;
  s.mismatch = -10;
  s.gap_open = -10;
  s.gap_extend = -10;
  const std::string a = "ACGTACGT";
  const auto aln = align(a, a, s);
  EXPECT_EQ(aln.score, 8);
}

// --- score-only kernels and prefix traceback -------------------------------------------

/// Query/target pairs of every shape the kernels must agree on: lengths
/// 1-40, multiples of 16 +-1 up to 400, random, mutated and indel-bearing
/// targets, and targets shorter and longer than the query.
std::vector<std::pair<std::string, std::string>> kernel_cases() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 40; ++n) lengths.push_back(n);
  for (std::size_t n = 48; n <= 400; n += 16) {
    lengths.insert(lengths.end(), {n - 1, n, n + 1});
  }
  std::vector<std::pair<std::string, std::string>> cases;
  std::uint64_t seed = 1000;
  for (const std::size_t n : lengths) {
    seed += 10;
    const std::string q = random_dna(n, seed);
    cases.emplace_back(q, random_dna(n + seed % 7, seed + 1));        // unrelated
    cases.emplace_back(q, mutate(q, seed + 2));                       // near copy
    cases.emplace_back(q, random_dna(n / 3, seed + 3) + mutate(q, seed + 4, 12, 8) +
                              random_dna(n / 2, seed + 5));           // embedded, indels
    cases.emplace_back(mutate(q, seed + 6, 40, 3), q.substr(n / 4));  // target shorter
  }
  return cases;
}

void expect_same_end(const ScoreEnd& got, const ScoreEnd& want, const std::string& what) {
  EXPECT_EQ(got.score, want.score) << what;
  EXPECT_EQ(got.query_end, want.query_end) << what;
  EXPECT_EQ(got.target_end, want.target_end) << what;
}

TEST(SwScoreOnly, ScalarMatchesAlignScoreAndEndCell) {
  for (const auto& [q, t] : kernel_cases()) {
    const auto full = align(q, t);
    expect_same_end(detail::score_only_scalar(q, t, Scoring{}),
                    ScoreEnd{full.score, full.query_end, full.target_end},
                    "n=" + std::to_string(q.size()) + " m=" + std::to_string(t.size()));
  }
  expect_same_end(detail::score_only_scalar("", "ACGT", Scoring{}), ScoreEnd{}, "empty");
  expect_same_end(detail::score_only_scalar("AAAA", "TTTT", Scoring{}), ScoreEnd{}, "disjoint");
}

TEST(SwScoreOnly, Avx2MatchesScalarOnScoreAndEndCell) {
  if (!detail::cpu_has_avx2()) GTEST_SKIP() << "CPU without AVX2";
  const Scoring defaults;
  Scoring custom;
  custom.match = 2;
  custom.mismatch = -7;
  custom.gap_open = -5;  // opening no dearer than extending
  custom.gap_extend = -5;
  Scoring harsh;
  harsh.match = 1;
  harsh.mismatch = -10;
  harsh.gap_open = -10;
  harsh.gap_extend = -1;
  for (const Scoring& scoring : {defaults, custom, harsh}) {
    for (const auto& [q, t] : kernel_cases()) {
      ASSERT_TRUE(detail::avx2_exact_for(q.size(), t.size(), scoring));
      const std::string what = "n=" + std::to_string(q.size()) +
                               " m=" + std::to_string(t.size()) +
                               " match=" + std::to_string(scoring.match);
      expect_same_end(detail::score_only_avx2(q.data(), q.size(), t.data(), t.size(), scoring),
                      detail::score_only_scalar(q, t, scoring), what);
    }
  }
}

TEST(SwScoreOnly, Avx2HandlesNonAcgtBytes) {
  if (!detail::cpu_has_avx2()) GTEST_SKIP() << "CPU without AVX2";
  // Every byte value, including 0xFF (which must not match the padding
  // code) and NUL, on lengths around the 16-lane stripe boundaries.
  util::Rng rng(77);
  for (const std::size_t n : {1u, 15u, 16u, 17u, 31u, 33u, 100u, 255u}) {
    std::string q(n, '\0');
    for (auto& c : q) c = static_cast<char>(rng.uniform_below(256));
    std::string t = q.substr(n / 3) + "NNNN" + q.substr(0, n / 2);
    for (auto& c : t) {
      if (rng.uniform_below(8) == 0) c = static_cast<char>(0xFF);
    }
    const std::string what = "n=" + std::to_string(n);
    expect_same_end(detail::score_only_avx2(q.data(), q.size(), t.data(), t.size(), Scoring{}),
                    detail::score_only_scalar(q, t, Scoring{}), what);
  }
  const std::string ff(40, static_cast<char>(0xFF));
  expect_same_end(detail::score_only_avx2(ff.data(), 40, ff.data(), 33, Scoring{}),
                  ScoreEnd{33 * Scoring{}.match, 33, 33}, "all 0xFF");
}

TEST(SwScoreOnly, FallsBackToScalarWhenInt16WouldOverflow) {
  // 200 identical bases at match = 200 score 40000, beyond int16: the
  // public entry point must take the scalar kernel and stay exact.
  Scoring big;
  big.match = 200;
  const std::string s = random_dna(200, 31);
  EXPECT_FALSE(detail::avx2_exact_for(s.size(), s.size(), big));
  EXPECT_TRUE(detail::avx2_exact_for(163, 400, big));  // 200 * 163 = 32600
  EXPECT_FALSE(detail::avx2_exact_for(164, 400, big));
  expect_same_end(score_only(s, s, big), ScoreEnd{40000, 200, 200}, "overflow");
  const auto full = align(s, s, big);
  EXPECT_EQ(full.score, 40000);
  expect_same_alignment(align_to(s, s, score_only(s, s, big), big), full);
}

TEST(SwScoreOnly, ScoringsOutsideTheKernelsDomainUseScalar) {
  Scoring free_extend;
  free_extend.gap_extend = 0;
  Scoring positive_mismatch;
  positive_mismatch.mismatch = 1;
  Scoring cheap_open;
  cheap_open.gap_open = -3;
  cheap_open.gap_extend = -5;
  EXPECT_FALSE(detail::avx2_exact_for(100, 100, free_extend));
  EXPECT_FALSE(detail::avx2_exact_for(100, 100, positive_mismatch));
  EXPECT_FALSE(detail::avx2_exact_for(100, 100, cheap_open));
  EXPECT_FALSE(detail::avx2_exact_for(0, 100, Scoring{}));
  EXPECT_TRUE(detail::avx2_exact_for(100, 100, Scoring{}));
  const std::string a = random_dna(90, 41);
  const std::string b = mutate(a, 42);
  for (const Scoring& scoring : {free_extend, positive_mismatch, cheap_open}) {
    const auto full = align(a, b, scoring);
    expect_same_end(score_only(a, b, scoring),
                    ScoreEnd{full.score, full.query_end, full.target_end}, "outside domain");
  }
}

TEST(SwScoreOnly, AlignToScoreOnlyEqualsAlignOnEveryField) {
  Scoring custom;
  custom.match = 3;
  custom.mismatch = -2;
  custom.gap_open = -6;
  custom.gap_extend = -1;
  for (const Scoring& scoring : {Scoring{}, custom}) {
    for (const auto& [q, t] : kernel_cases()) {
      SCOPED_TRACE("n=" + std::to_string(q.size()) + " m=" + std::to_string(t.size()));
      expect_same_alignment(align_to(q, t, score_only(q, t, scoring), scoring),
                            align(q, t, scoring));
    }
  }
  EXPECT_EQ(align_to("ACGT", "ACGT", ScoreEnd{}).alignment_columns, 0u);
}

TEST(SwScoreOnly, BestStrandEqualsFullAlignmentOfTheWinningStrand) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string t = random_dna(150 + seed, seed + 300);
    std::string q = mutate(t.substr(seed), seed + 400);
    if (seed % 2 == 0) q = seq::reverse_complement(q);
    const auto fwd = align(q, t);
    const auto rev = align(seq::reverse_complement(q), t);
    expect_same_alignment(align_best_strand(q, t), fwd.score >= rev.score ? fwd : rev);
  }
}

}  // namespace
}  // namespace trinity::sw
