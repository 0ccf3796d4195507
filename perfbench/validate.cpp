// Workload `validate`: the paper's Section IV validation of one fixed
// assembly. Set-up assembles the dataset twice, as the "original"
// (nranks = 1) and the "parallel" (nranks = 4) run; each trial times
// compare_to_reference(parallel, reference) (Figs 5/6) plus
// all_to_all_categories(parallel, original) (Fig 4). The time is spent in
// validate and sw alone.
//
// The dataset is the same for every seed: validation cost is a sum of
// per-gene Smith-Waterman costs that differ by orders of magnitude, so a
// fresh sampling of reads moves it by about 12% at this size. The seed
// instead picks the two runs' run_seed, which is what separates the
// original from the parallel run in the paper's comparison.

#include <cstdio>
#include <filesystem>
#include <unordered_map>

#include "bench.hpp"
#include "seq/dna.hpp"
#include "sw/smith_waterman.hpp"
#include "validate/validate.hpp"

namespace perfbench {

namespace validate = trinity::validate;
namespace sw = trinity::sw;

namespace {

constexpr std::size_t kGenes = 50;
constexpr std::size_t kMiniGenes = 8;
constexpr int kMinTrials = 3;
constexpr int kSetupRepeats = 3;
/// (transcript, best reference) pairs timed directly through sw.
constexpr std::size_t kSwPairs = 24;

/// For an evenly spaced sample of `queries`, the reference sharing the most
/// 25-mers with it (pairs without any shared 25-mer are skipped).
std::vector<std::pair<std::size_t, std::size_t>> best_reference_pairs(
    const std::vector<seq::Sequence>& queries, const std::vector<seq::Sequence>& reference) {
  constexpr std::size_t k = 25;
  std::unordered_map<std::string_view, std::vector<std::size_t>> owners;
  for (std::size_t r = 0; r < reference.size(); ++r) {
    const std::string_view b = reference[r].bases;
    for (std::size_t i = 0; i + k <= b.size(); ++i) owners[b.substr(i, k)].push_back(r);
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  const std::size_t step = std::max<std::size_t>(1, queries.size() / kSwPairs);
  for (std::size_t q = 0; q < queries.size() && pairs.size() < kSwPairs; q += step) {
    std::unordered_map<std::size_t, std::size_t> shared;
    for (const std::string& strand :
         {queries[q].bases, trinity::seq::reverse_complement(queries[q].bases)}) {
      const std::string_view b = strand;
      for (std::size_t i = 0; i + k <= b.size(); ++i) {
        const auto it = owners.find(b.substr(i, k));
        if (it == owners.end()) continue;
        for (const std::size_t r : it->second) ++shared[r];
      }
    }
    std::size_t best = 0, best_count = 0;
    for (const auto& [r, n] : shared) {
      if (n > best_count || (n == best_count && r < best)) best = r, best_count = n;
    }
    if (best_count > 0) pairs.emplace_back(q, best);
  }
  return pairs;
}

}  // namespace

Outcome run_validate(const Args& args) {
  Outcome out;
  const std::size_t genes = args.mini ? kMiniGenes : kGenes;
  const std::uint64_t dataset_seed = sim::preset("sugarbeet_like").seed;

  pipeline::PipelineOptions original_options;
  original_options.nranks = 1;
  original_options.run_seed = 2 * args.seed;
  original_options.work_dir = args.out_dir + "/validate-original";
  pipeline::PipelineOptions parallel_options = original_options;
  parallel_options.nranks = 4;
  parallel_options.run_seed = 2 * args.seed + 1;
  parallel_options.work_dir = args.out_dir + "/validate-parallel";

  // Set-up: simulate and assemble both runs, several times (the median is
  // reported, and the repeats must agree byte for byte).
  sim::Dataset ds;
  std::vector<seq::Sequence> original, parallel;
  std::vector<double> parallel_walls;
  const double setup_s = median_wall(args.mini ? 1 : kSetupRepeats, [&](int repeat) {
    ds = simulate_organism("sugarbeet_like", genes, dataset_seed);
    auto o = pipeline::run_pipeline(ds.reads.reads, original_options).transcripts;
    util::Timer t;
    auto p = pipeline::run_pipeline(ds.reads.reads, parallel_options).transcripts;
    parallel_walls.push_back(t.seconds());
    if (repeat > 0) {
      out.check(digest(o) == digest(original) && digest(p) == digest(parallel),
                "validate: set-up assemblies differ between repeats");
    }
    original = std::move(o);
    parallel = std::move(p);
  });
  const auto& reference = ds.transcriptome.transcripts;
  std::printf("validate: sugarbeet_like %zu genes, %zu reads, %zu reference isoforms, "
              "%zu original / %zu parallel transcripts\n",
              genes, ds.reads.reads.size(), reference.size(), original.size(),
              parallel.size());

  const int min_trials = args.mini ? 1 : kMinTrials;
  std::vector<double> walls, ref_walls, cat_walls, growth_mb;
  validate::ReferenceComparison first_ref;
  validate::CategoryCounts first_cat;
  // Peak RSS is taken as growth over the trial's starting RSS: the set-up
  // assemblies leave 75 to 95 MB of heap behind that no trim returns, and
  // that varies from run to run while the validation's own peak does not.
  const double start = now_s();
  while (another_trial(walls, min_trials, start, args.seconds)) {
    settle(true);
    out.check(reset_peak_rss(), "writing /proc/self/clear_refs failed");
    const double base_mb = rss_mb();
    util::Timer t;
    const auto ref = validate::compare_to_reference(parallel, reference,
                                                    ds.transcriptome.gene_of_transcript);
    ref_walls.push_back(t.seconds());
    util::Timer t2;
    const auto cat = validate::all_to_all_categories(parallel, original);
    cat_walls.push_back(t2.seconds());
    walls.push_back(t.seconds());
    growth_mb.push_back(peak_rss_mb() - base_mb);
    if (walls.size() == 1) {
      first_ref = ref;
      first_cat = cat;
    }
    out.check(ref.full_length_isoforms == first_ref.full_length_isoforms &&
                  ref.full_length_genes == first_ref.full_length_genes &&
                  ref.fused_isoforms == first_ref.fused_isoforms &&
                  ref.fused_genes == first_ref.fused_genes,
              "validate: reference comparison counts differ between trials");
    out.check(cat.full_identical == first_cat.full_identical &&
                  cat.full_diverged == first_cat.full_diverged &&
                  cat.partial == first_cat.partial && cat.unmatched == first_cat.unmatched,
              "validate: category counts differ between trials");
    std::printf("  trial %zu: %.3f s (reference %.3f s, categories %.3f s)\n", walls.size(),
                walls.back(), ref_walls.back(), cat_walls.back());
    std::fflush(stdout);
  }
  out.attempted = static_cast<std::int64_t>(walls.size());
  out.check(first_cat.total() == parallel.size(),
            "validate: categories do not cover every parallel transcript");
  std::printf("  full-length isoforms %zu, fused isoforms %zu, 100%% identical %zu of %zu\n",
              first_ref.full_length_isoforms, first_ref.fused_isoforms,
              first_cat.full_identical, first_cat.total());

  const double validation_s = median(walls);
  out.e2e("setup_s", setup_s, "s");
  out.e2e("latency_p50_s", validation_s, "s");
  out.e2e("peak_rss_mb", median(growth_mb), "MB");
  std::printf("  validation_s = latency_p50_s over %zu trials (slowest %.3f s)\n", walls.size(),
              percentile(walls, 1.0));

  if (args.trace) {
    out.layer("sim.simulate_s", median_wall(args.mini ? 1 : kSetupRepeats, [&](int) {
                (void)simulate_organism("sugarbeet_like", genes, dataset_seed);
              }), "s");
    SpanLog log;
    pipeline::PipelineOptions traced = parallel_options;
    traced.work_dir = args.out_dir + "/validate-traced";
    const LayerFigures fig = traced_assembly(ds.reads.reads, traced, log, out);
    out.check(digest(fig.transcripts) == digest(parallel),
              "validate: traced stage-by-stage transcripts differ from run_pipeline");
    const double parallel_s = median(parallel_walls);
    out.layer("pipeline.unattributed_s", parallel_s - fig.layers_s, "s");
    out.layer("trace.overhead_ratio", fig.wall_s / parallel_s, "ratio");

    const std::size_t queries = reference.size() + parallel.size();
    out.layer("validate.reference_s", median(ref_walls), "s");
    out.layer("validate.categories_s", median(cat_walls), "s");
    out.layer("validate.queries", static_cast<double>(queries), "count");
    out.layer("validate.queries_per_s", static_cast<double>(queries) / validation_s, "1/s");
    out.layer("validate.full_length_isoforms",
              static_cast<double>(first_ref.full_length_isoforms), "count");
    out.layer("validate.fused_isoforms", static_cast<double>(first_ref.fused_isoforms),
              "count");
    out.layer("validate.full_identical", static_cast<double>(first_cat.full_identical),
              "count");

    // sw directly: a fixed sample of (transcript, best reference) pairs.
    // Cells are computed from the lengths (two strands, full DP), not
    // counted inside the kernel.
    const auto pairs = best_reference_pairs(parallel, reference);
    double cells = 0.0;
    {
      Scope s(log, "sw.align_best_strand");
      for (const auto& [q, r] : pairs) {
        (void)sw::align_best_strand(parallel[q].bases, reference[r].bases);
        cells += 2.0 * static_cast<double>(parallel[q].bases.size()) *
                 static_cast<double>(reference[r].bases.size());
      }
    }
    const double sw_s = log.total("sw.align_best_strand");
    out.layer("sw.align_s", sw_s, "s");
    out.layer("sw.cells_computed", cells, "count");
    out.layer("sw.cells_per_s", sw_s > 0.0 ? cells / sw_s : 0.0, "1/s");
    zero_layers({"serve"}, out);
    log.write(args.trace_dir + "/validate-seed" + std::to_string(args.seed) + ".json",
              "validate-" + std::to_string(args.seed));
  }
  std::filesystem::remove_all(original_options.work_dir);
  std::filesystem::remove_all(parallel_options.work_dir);
  return out;
}

}  // namespace perfbench
