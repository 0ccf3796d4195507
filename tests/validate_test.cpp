// Tests for the Section-IV validation harness: category bucketing against
// known perturbations, reference full-length / fused counting, and
// exactness against the plain per-candidate alignment loop.

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "seq/dna.hpp"
#include "seq/kmer.hpp"
#include "sim/transcriptome.hpp"
#include "util/rng.hpp"
#include "validate/validate.hpp"
#include "test_helpers.hpp"

namespace trinity::validate {
namespace {

using trinity::testing::random_dna;

std::vector<seq::Sequence> make_set(std::size_t n, std::size_t len, std::uint64_t seed) {
  std::vector<seq::Sequence> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({"t" + std::to_string(i), random_dna(len, seed + i)});
  }
  return out;
}

TEST(AllToAllTest, IdenticalSetsAreAllFullIdentical) {
  const auto set = make_set(10, 300, 1);
  const auto counts = all_to_all_categories(set, set);
  EXPECT_EQ(counts.full_identical, 10u);
  EXPECT_EQ(counts.full_diverged, 0u);
  EXPECT_EQ(counts.partial, 0u);
  EXPECT_EQ(counts.unmatched, 0u);
}

TEST(AllToAllTest, ReverseComplementStillFullIdentical) {
  const auto set = make_set(5, 300, 2);
  auto flipped = set;
  for (auto& s : flipped) s.bases = seq::reverse_complement(s.bases);
  const auto counts = all_to_all_categories(flipped, set);
  EXPECT_EQ(counts.full_identical, 5u);
}

TEST(AllToAllTest, PointMutationsMakeFullDiverged) {
  const auto set = make_set(6, 300, 3);
  auto mutated = set;
  for (auto& s : mutated) {
    s.bases[100] = s.bases[100] == 'A' ? 'C' : 'A';
    s.bases[200] = s.bases[200] == 'G' ? 'T' : 'G';
  }
  const auto counts = all_to_all_categories(mutated, set);
  EXPECT_EQ(counts.full_identical, 0u);
  EXPECT_EQ(counts.full_diverged, 6u);
}

TEST(AllToAllTest, TruncatedQueriesWithExtensionArePartial) {
  const auto set = make_set(4, 400, 4);
  std::vector<seq::Sequence> chimeras;
  for (const auto& s : set) {
    // Half of a real transcript glued to random sequence: only the real
    // half aligns -> partial-length category.
    chimeras.push_back({s.name + "_chimera", s.bases.substr(0, 200) + random_dna(200, 777)});
  }
  const auto counts = all_to_all_categories(chimeras, set);
  EXPECT_EQ(counts.partial, 4u);
  ASSERT_EQ(counts.partial_identities.size(), 4u);
  for (const double ident : counts.partial_identities) {
    // The aligned core is exact, but the local alignment may pick up noisy
    // net-positive extensions into the random half, diluting identity.
    EXPECT_GT(ident, 0.7);
  }
}

TEST(AllToAllTest, ForeignQueriesAreUnmatched) {
  const auto set = make_set(5, 300, 5);
  const auto foreign = make_set(3, 300, 500);
  const auto counts = all_to_all_categories(foreign, set);
  EXPECT_EQ(counts.unmatched, 3u);
  EXPECT_EQ(counts.total(), 3u);
}

TEST(AllToAllTest, EmptyQuerySet) {
  const auto set = make_set(3, 300, 6);
  const auto counts = all_to_all_categories({}, set);
  EXPECT_EQ(counts.total(), 0u);
}

// --- reference comparison -------------------------------------------------------------

TEST(ReferenceTest, ExactReconstructionCountsFullLength) {
  const auto reference = make_set(8, 350, 7);
  // Two isoforms per gene: gene g has refs 2g, 2g+1.
  std::vector<std::int32_t> gene_of;
  for (std::int32_t i = 0; i < 8; ++i) gene_of.push_back(i / 2);

  // Reconstruct isoform 0 of genes 0 and 1 exactly.
  const std::vector<seq::Sequence> reconstructed{reference[0], reference[2]};
  const auto cmp = compare_to_reference(reconstructed, reference, gene_of);
  EXPECT_EQ(cmp.full_length_isoforms, 2u);
  EXPECT_EQ(cmp.full_length_genes, 2u);
  EXPECT_EQ(cmp.fused_isoforms, 0u);
  EXPECT_EQ(cmp.fused_genes, 0u);
}

TEST(ReferenceTest, PartialReconstructionDoesNotCount) {
  const auto reference = make_set(4, 400, 8);
  const std::vector<std::int32_t> gene_of{0, 1, 2, 3};
  // Only half of reference 0.
  const std::vector<seq::Sequence> reconstructed{{"half", reference[0].bases.substr(0, 200)}};
  const auto cmp = compare_to_reference(reconstructed, reference, gene_of);
  EXPECT_EQ(cmp.full_length_isoforms, 0u);
  EXPECT_EQ(cmp.full_length_genes, 0u);
}

TEST(ReferenceTest, FusedTranscriptDetected) {
  const auto reference = make_set(4, 300, 9);
  const std::vector<std::int32_t> gene_of{0, 1, 2, 3};
  // An end-to-end fusion of references 1 and 2 (different genes).
  const std::vector<seq::Sequence> reconstructed{
      {"fusion", reference[1].bases + reference[2].bases}};
  const auto cmp = compare_to_reference(reconstructed, reference, gene_of);
  EXPECT_EQ(cmp.fused_isoforms, 1u);
  EXPECT_EQ(cmp.fused_genes, 2u);
  // Both constituents were recovered at full reference length.
  EXPECT_EQ(cmp.full_length_isoforms, 2u);
}

TEST(ReferenceTest, TwoIsoformsOfSameGeneAreNotAFusion) {
  const auto reference = make_set(2, 300, 10);
  const std::vector<std::int32_t> gene_of{0, 0};  // same gene
  const std::vector<seq::Sequence> reconstructed{
      {"join", reference[0].bases + reference[1].bases}};
  const auto cmp = compare_to_reference(reconstructed, reference, gene_of);
  EXPECT_EQ(cmp.fused_isoforms, 0u);
  EXPECT_EQ(cmp.fused_genes, 0u);
}

TEST(ReferenceTest, NearIdenticalReconstructionStillFullLength) {
  const auto reference = make_set(1, 400, 11);
  auto copy = reference[0];
  copy.bases[200] = copy.bases[200] == 'A' ? 'C' : 'A';  // one mismatch
  const auto cmp =
      compare_to_reference({copy}, reference, std::vector<std::int32_t>{0});
  EXPECT_EQ(cmp.full_length_isoforms, 1u);
}

TEST(AllToAllTest, EmptyTargetSetLeavesQueriesUnmatched) {
  const auto queries = make_set(3, 200, 42);
  const auto counts = all_to_all_categories(queries, {});
  EXPECT_EQ(counts.unmatched, 3u);
}

TEST(ReferenceTest, EmptyInputsYieldZeroCounts) {
  const auto cmp = compare_to_reference({}, {}, {});
  EXPECT_EQ(cmp.full_length_genes, 0u);
  EXPECT_EQ(cmp.fused_isoforms, 0u);
}

TEST(TTestBridge, ForwardsToWelch) {
  const std::vector<double> a{10, 11, 9, 10.5, 9.5};
  const std::vector<double> b{10.2, 10.8, 9.1, 10.4, 9.6};
  EXPECT_FALSE(compare_run_metric(a, b).significant_at_5pct);
}

// --- exactness against the per-candidate loop --------------------------------------------

/// The validation as a plain loop: a node-based shared-k-mer index picks
/// the candidates, and every candidate gets a full both-strand traceback
/// alignment, one query after another. all_to_all_categories and
/// compare_to_reference must reproduce it field for field.
class OracleFinder {
 public:
  OracleFinder(const std::vector<seq::Sequence>& targets, const ValidationOptions& options)
      : options_(options), codec_(options.prefilter_k) {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      std::unordered_set<seq::KmerCode> seen;
      for (const auto& occ : codec_.extract_canonical(targets[t].bases)) {
        if (seen.insert(occ.code).second) index_[occ.code].push_back(static_cast<std::int32_t>(t));
      }
    }
  }

  std::vector<std::int32_t> candidates(const seq::Sequence& query) const {
    std::unordered_map<std::int32_t, std::size_t> shared;
    std::unordered_set<seq::KmerCode> seen;
    for (const auto& occ : codec_.extract_canonical(query.bases)) {
      if (!seen.insert(occ.code).second) continue;
      const auto it = index_.find(occ.code);
      if (it == index_.end()) continue;
      for (const auto t : it->second) ++shared[t];
    }
    std::vector<std::pair<std::int32_t, std::size_t>> ranked;
    for (const auto& [t, n] : shared) {
      if (n >= options_.min_shared_kmers) ranked.emplace_back(t, n);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (ranked.size() > options_.max_candidates) ranked.resize(options_.max_candidates);
    std::vector<std::int32_t> out;
    for (const auto& [t, n] : ranked) out.push_back(t);
    return out;
  }

 private:
  const ValidationOptions& options_;
  seq::KmerCodec codec_;
  std::unordered_map<seq::KmerCode, std::vector<std::int32_t>> index_;
};

sw::Alignment oracle_best_strand(const std::string& query, const std::string& target) {
  const auto fwd = sw::align(query, target);
  const auto rev = sw::align(seq::reverse_complement(query), target);
  return fwd.score >= rev.score ? fwd : rev;
}

CategoryCounts oracle_categories(const std::vector<seq::Sequence>& queries,
                                 const std::vector<seq::Sequence>& targets,
                                 const ValidationOptions& options) {
  CategoryCounts counts;
  const OracleFinder finder(targets, options);
  for (const auto& query : queries) {
    sw::Alignment best;
    for (const auto t : finder.candidates(query)) {
      const auto aln = oracle_best_strand(query.bases, targets[static_cast<std::size_t>(t)].bases);
      if (aln.score > best.score) best = aln;
    }
    if (best.score <= 0) {
      ++counts.unmatched;
    } else if (best.query_coverage(query.bases.size()) >= options.full_length_coverage) {
      ++(best.identity() >= options.identical_threshold ? counts.full_identical
                                                       : counts.full_diverged);
    } else {
      ++counts.partial;
      counts.partial_identities.push_back(best.identity());
    }
  }
  return counts;
}

ReferenceComparison oracle_reference(const std::vector<seq::Sequence>& reconstructed,
                                     const std::vector<seq::Sequence>& reference,
                                     const std::vector<std::int32_t>& gene_of,
                                     const ValidationOptions& options) {
  const OracleFinder finder(reference, options);
  std::unordered_set<std::int32_t> full_refs, full_genes, fused_genes;
  ReferenceComparison out;
  for (const auto& rec : reconstructed) {
    std::unordered_set<std::int32_t> genes;
    for (const auto t : finder.candidates(rec)) {
      const auto& ref = reference[static_cast<std::size_t>(t)].bases;
      const auto aln = oracle_best_strand(ref, rec.bases);
      if (aln.score > 0 && aln.query_coverage(ref.size()) >= options.full_length_coverage &&
          aln.identity() >= options.min_fused_identity) {
        full_refs.insert(t);
        genes.insert(gene_of[static_cast<std::size_t>(t)]);
      }
    }
    if (genes.size() >= 2) {
      ++out.fused_isoforms;
      fused_genes.insert(genes.begin(), genes.end());
    }
  }
  for (const auto t : full_refs) full_genes.insert(gene_of[static_cast<std::size_t>(t)]);
  out.full_length_isoforms = full_refs.size();
  out.full_length_genes = full_genes.size();
  out.fused_genes = fused_genes.size();
  return out;
}

/// A mock assembly of `reference`: exact, mutated, indel-bearing,
/// end-trimmed, truncated, extended, reverse-complemented and fused
/// copies, plus foreign sequences, so every category, the fusion rule and
/// the full-length threshold are hit.
std::vector<seq::Sequence> mock_assembly(const std::vector<seq::Sequence>& reference,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<seq::Sequence> out;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    std::string s = reference[i].bases;
    switch (rng.uniform_below(9)) {
      case 0:
      case 1:
        break;  // exact
      case 2:  // scattered substitutions
        for (int e = 0; e < 3; ++e) {
          auto& c = s[rng.uniform_below(s.size())];
          c = c == 'A' ? 'G' : 'A';
        }
        break;
      case 3:  // a deletion and an insertion of a few bases
        s.erase(rng.uniform_below(s.size() - 10), 1 + rng.uniform_below(6));
        s.insert(rng.uniform_below(s.size()), random_dna(1 + rng.uniform_below(6), seed + i));
        break;
      case 4:  // truncated at both ends
        s = s.substr(s.size() / 5, s.size() / 2);
        break;
      case 5:  // extended by foreign flanks
        s = random_dna(40 + rng.uniform_below(200), seed * 7 + i) + s +
            random_dna(rng.uniform_below(80), seed * 13 + i);
        break;
      case 6:  // fused with the next transcript
        s += reference[(i + 1) % reference.size()].bases;
        break;
      case 7:  // a few end bases lost, as assembled ends do; near the 0.95 line
        s = s.substr(rng.uniform_below(s.size() / 30 + 1));
        s.resize(s.size() - rng.uniform_below(s.size() / 30 + 1));
        break;
      default:  // truncated on one end
        s = s.substr(0, s.size() - s.size() / 3);
    }
    if (rng.uniform_below(2) == 0) s = seq::reverse_complement(s);
    out.push_back({"m" + std::to_string(i), std::move(s)});
  }
  for (std::size_t f = 0; f < 3; ++f) {
    out.push_back({"foreign" + std::to_string(f), random_dna(300 + 100 * f, seed * 31 + f)});
  }
  return out;
}

struct OracleCase {
  const char* preset;
  std::size_t genes;
  std::uint64_t seed;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << c.preset << ", " << c.genes << " genes, seed " << c.seed;
}

class ValidateOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(ValidateOracle, MatchesPerCandidateLoopAtOneAndFourThreads) {
  const auto& param = GetParam();
  auto options = sim::preset(param.preset).transcriptome;
  options.num_genes = param.genes;
  // The preset's gene structure at a third of its exon lengths: the
  // oracle's full traceback DP is quadratic in length, and tier-1 stays fast.
  options.min_exon_length /= 3;
  options.max_exon_length /= 3;
  options.shared_utr_length /= 3;
  util::Rng rng(param.seed);
  const auto truth = sim::simulate_transcriptome(options, rng);
  const auto& reference = truth.transcripts;
  const auto original = mock_assembly(reference, param.seed * 2);
  const auto parallel = mock_assembly(reference, param.seed * 2 + 1);

  // The defaults, and a short prefilter k with a zero shared-k-mer floor
  // (a candidate still needs one shared k-mer) and two candidates.
  ValidationOptions loose;
  loose.prefilter_k = 15;
  loose.min_shared_kmers = 0;
  loose.max_candidates = 2;
  const int saved_threads = omp_get_max_threads();
  for (const ValidationOptions& vo : {ValidationOptions{}, loose}) {
    SCOPED_TRACE("prefilter_k=" + std::to_string(vo.prefilter_k));
    const auto want_cat = oracle_categories(parallel, original, vo);
    const auto want_ref = oracle_reference(parallel, reference, truth.gene_of_transcript, vo);
    // The mock assembly must exercise every branch the comparison has.
    EXPECT_GT(want_cat.full_identical, 0u);
    EXPECT_GT(want_cat.full_diverged, 0u);
    EXPECT_GT(want_cat.partial, 0u);
    EXPECT_GT(want_cat.unmatched, 0u);
    EXPECT_GT(want_ref.full_length_isoforms, 0u);

    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      omp_set_num_threads(threads);
      const auto cat = all_to_all_categories(parallel, original, vo);
      EXPECT_EQ(cat.full_identical, want_cat.full_identical);
      EXPECT_EQ(cat.full_diverged, want_cat.full_diverged);
      EXPECT_EQ(cat.partial, want_cat.partial);
      EXPECT_EQ(cat.unmatched, want_cat.unmatched);
      EXPECT_EQ(cat.partial_identities, want_cat.partial_identities);
      const auto ref = compare_to_reference(parallel, reference, truth.gene_of_transcript, vo);
      EXPECT_EQ(ref.full_length_genes, want_ref.full_length_genes);
      EXPECT_EQ(ref.full_length_isoforms, want_ref.full_length_isoforms);
      EXPECT_EQ(ref.fused_genes, want_ref.fused_genes);
      EXPECT_EQ(ref.fused_isoforms, want_ref.fused_isoforms);
    }
  }
  omp_set_num_threads(saved_threads);
}

INSTANTIATE_TEST_SUITE_P(Presets, ValidateOracle,
                         ::testing::Values(OracleCase{"tiny", 8, 1}, OracleCase{"tiny", 8, 2},
                                           OracleCase{"tiny", 24, 3},
                                           OracleCase{"sugarbeet_like", 8, 4},
                                           OracleCase{"sugarbeet_like", 8, 5},
                                           OracleCase{"sugarbeet_like", 24, 6}),
                         [](const auto& info) {
                           return std::string(info.param.preset) + "_" +
                                  std::to_string(info.param.genes) + "genes_seed" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace trinity::validate
