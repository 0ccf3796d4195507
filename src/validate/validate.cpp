#include "validate/validate.hpp"

#include <algorithm>
#include <exception>
#include <unordered_set>

#include "seq/kmer.hpp"

namespace trinity::validate {

namespace {

/// Shared-k-mer candidate filter: maps each query to the target indices
/// sharing the most canonical k-mers. The index is one sorted vector of
/// (k-mer, target) pairs, each pair once, probed by binary search.
class CandidateFinder {
 public:
  CandidateFinder(const std::vector<seq::Sequence>& targets, const ValidationOptions& options)
      : options_(options), codec_(options.prefilter_k), num_targets_(targets.size()) {
    for (std::size_t t = 0; t < targets.size(); ++t) {
      for (const auto code : codec_.distinct_canonical_codes(targets[t].bases)) {
        index_.emplace_back(code, static_cast<std::int32_t>(t));
      }
    }
    std::sort(index_.begin(), index_.end());
  }

  /// Target indices ordered by decreasing shared-k-mer count, then by
  /// index, truncated to max_candidates; targets below min_shared_kmers
  /// (or sharing none) are dropped.
  std::vector<std::int32_t> candidates(const seq::Sequence& query) const {
    std::vector<std::size_t> shared(num_targets_, 0);
    for (const auto code : codec_.distinct_canonical_codes(query.bases)) {
      auto it = std::lower_bound(index_.begin(), index_.end(), code,
                                 [](const auto& entry, seq::KmerCode c) { return entry.first < c; });
      for (; it != index_.end() && it->first == code; ++it) {
        ++shared[static_cast<std::size_t>(it->second)];
      }
    }
    std::vector<std::pair<std::int32_t, std::size_t>> ranked;
    for (std::size_t t = 0; t < num_targets_; ++t) {
      if (shared[t] > 0 && shared[t] >= options_.min_shared_kmers) {
        ranked.emplace_back(static_cast<std::int32_t>(t), shared[t]);
      }
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (ranked.size() > options_.max_candidates) ranked.resize(options_.max_candidates);
    std::vector<std::int32_t> out;
    out.reserve(ranked.size());
    for (const auto& [t, n] : ranked) out.push_back(t);
    return out;
  }

 private:
  const ValidationOptions& options_;
  seq::KmerCodec codec_;
  std::size_t num_targets_;
  std::vector<std::pair<seq::KmerCode, std::int32_t>> index_;
};

/// Runs body(i) for every i in [0, n) on the OpenMP threads, one index at
/// a time (per-query costs differ by orders of magnitude). The first
/// exception a body throws is rethrown after the loop.
template <typename Body>
void for_each_query(std::size_t n, const Body& body) {
  std::exception_ptr error;
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
    try {
      body(static_cast<std::size_t>(i));
    } catch (...) {
#pragma omp critical(validate_query_error)
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

CategoryCounts all_to_all_categories(const std::vector<seq::Sequence>& query_set,
                                     const std::vector<seq::Sequence>& target_set,
                                     const ValidationOptions& options) {
  const CandidateFinder finder(target_set, options);

  // Each query's best alignment over its candidates: the first candidate
  // with the strictly greatest best-strand score, traced back alone.
  std::vector<sw::Alignment> best(query_set.size());
  for_each_query(query_set.size(), [&](std::size_t q) {
    const std::string& query = query_set[q].bases;
    sw::StrandEnd winner;
    const std::string* winner_target = nullptr;
    for (const auto t : finder.candidates(query_set[q])) {
      const std::string& target = target_set[static_cast<std::size_t>(t)].bases;
      const sw::StrandEnd candidate = sw::best_strand_end(query, target);
      if (candidate.end.score > winner.end.score) {
        winner = candidate;
        winner_target = &target;
      }
    }
    if (winner_target != nullptr) best[q] = sw::align_to(query, *winner_target, winner);
  });

  CategoryCounts counts;
  for (std::size_t q = 0; q < query_set.size(); ++q) {
    if (best[q].score <= 0) {
      ++counts.unmatched;
      continue;
    }
    const double coverage = best[q].query_coverage(query_set[q].bases.size());
    const double identity = best[q].identity();
    if (coverage >= options.full_length_coverage) {
      if (identity >= options.identical_threshold) {
        ++counts.full_identical;
      } else {
        ++counts.full_diverged;
      }
    } else {
      ++counts.partial;
      counts.partial_identities.push_back(identity);
    }
  }
  return counts;
}

ReferenceComparison compare_to_reference(const std::vector<seq::Sequence>& reconstructed,
                                         const std::vector<seq::Sequence>& reference,
                                         const std::vector<std::int32_t>& gene_of_reference,
                                         const ValidationOptions& options) {
  const CandidateFinder finder(reference, options);

  // All references each reconstruction contains at full (reference)
  // length; two hits from different genes make it a fusion.
  std::vector<std::vector<std::int32_t>> contained(reconstructed.size());
  for_each_query(reconstructed.size(), [&](std::size_t r) {
    const std::string& rec = reconstructed[r].bases;
    for (const auto t : finder.candidates(reconstructed[r])) {
      const std::string& ref = reference[static_cast<std::size_t>(t)].bases;
      const sw::StrandEnd hit = sw::best_strand_end(ref, rec);
      if (hit.end.score <= 0) continue;
      // The alignment starts at query_begin >= 0, so its reference
      // coverage is at most query_end / |ref|: too short an end rules
      // the reference out without a traceback.
      if (static_cast<double>(hit.end.query_end) / static_cast<double>(ref.size()) <
          options.full_length_coverage) {
        continue;
      }
      const auto aln = sw::align_to(ref, rec, hit);
      if (aln.query_coverage(ref.size()) >= options.full_length_coverage &&
          aln.identity() >= options.min_fused_identity) {
        contained[r].push_back(t);
      }
    }
  });

  ReferenceComparison out;
  std::unordered_set<std::int32_t> full_length_refs;  // reference isoform ids
  std::unordered_set<std::int32_t> full_length_gene_set;
  std::unordered_set<std::int32_t> fused_gene_set;
  for (const auto& refs : contained) {
    std::unordered_set<std::int32_t> genes;
    for (const auto t : refs) {
      full_length_refs.insert(t);
      genes.insert(gene_of_reference[static_cast<std::size_t>(t)]);
    }
    if (genes.size() >= 2) {
      ++out.fused_isoforms;
      fused_gene_set.insert(genes.begin(), genes.end());
    }
  }

  for (const auto ref : full_length_refs) {
    full_length_gene_set.insert(gene_of_reference[static_cast<std::size_t>(ref)]);
  }
  out.full_length_isoforms = full_length_refs.size();
  out.full_length_genes = full_length_gene_set.size();
  out.fused_genes = fused_gene_set.size();
  return out;
}

util::TTestResult compare_run_metric(const std::vector<double>& original_runs,
                                     const std::vector<double>& parallel_runs) {
  return util::welch_t_test(original_runs, parallel_runs);
}

}  // namespace trinity::validate
