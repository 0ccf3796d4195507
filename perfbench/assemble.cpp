// Workload `assemble`: one large run_pipeline call per trial, closed loop
// of one caller, nranks = 4 and otherwise default options. Every pipeline
// layer does real work here; validation does not run.

#include <cstdio>
#include <filesystem>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kGenes = 400;
constexpr std::size_t kMiniGenes = 20;
constexpr int kRanks = 4;
/// Trials every run makes whatever --seconds says; peak RSS is the median
/// over exactly these, because it ratchets from trial to trial.
constexpr int kMinTrials = 3;
constexpr int kSetupRepeats = 5;

}  // namespace

Outcome run_assemble(const Args& args) {
  Outcome out;
  const std::size_t genes = args.mini ? kMiniGenes : kGenes;

  // Set-up: simulate the reads (several times; the median is reported).
  sim::Dataset ds;
  const double setup_s = median_wall(kSetupRepeats, [&](int) {
    ds = simulate_organism("sugarbeet_like", genes, args.seed);
  });
  const auto& reads = ds.reads.reads;
  std::printf("assemble: sugarbeet_like %zu genes, %zu reads, %zu reference isoforms\n",
              genes, reads.size(), ds.transcriptome.transcripts.size());

  pipeline::PipelineOptions options;
  options.nranks = kRanks;
  options.work_dir = args.out_dir + "/assemble";

  // Timed trials. The first (warm-up) trial is kept: the median discards
  // its extra cost while it is a minority of the trials.
  const int min_trials = args.mini ? 1 : kMinTrials;
  std::vector<double> walls, rss_mb;
  std::uint64_t first_digest = 0;
  std::vector<seq::Sequence> transcripts;
  settle(false);  // no trim: the arena ratchet between trials is reported as is
  const double start = now_s();
  while (another_trial(walls, min_trials, start, args.seconds)) {
    fresh_dir(options.work_dir);
    out.check(reset_peak_rss(), "writing /proc/self/clear_refs failed");
    util::Timer t;
    auto result = pipeline::run_pipeline(reads, options);
    walls.push_back(t.seconds());
    const double rss = peak_rss_mb();
    if (static_cast<int>(rss_mb.size()) < min_trials) rss_mb.push_back(rss);
    const std::uint64_t d = digest(result.transcripts);
    if (walls.size() == 1) {
      first_digest = d;
      transcripts = std::move(result.transcripts);
    }
    out.check(d == first_digest, "assemble: transcripts differ between trials");
    std::printf("  trial %zu: %.3f s, peak RSS %.0f MB\n", walls.size(), walls.back(), rss);
    std::fflush(stdout);
  }
  out.attempted = static_cast<std::int64_t>(walls.size());
  const double assembly_s = median(walls);

  // Output check, outside every metric: the original shared-memory
  // pipeline (nranks = 1) must produce the same transcripts.
  {
    pipeline::PipelineOptions original = options;
    original.nranks = 1;
    fresh_dir(original.work_dir);
    const auto result = pipeline::run_pipeline(reads, original);
    out.check(digest(result.transcripts) == first_digest,
              "assemble: nranks = 4 transcripts differ from nranks = 1");
  }
  std::printf("  %zu transcripts; identical across trials and to nranks = 1: %s\n",
              transcripts.size(), out.correct ? "yes" : "NO");

  out.e2e("setup_s", setup_s, "s");
  out.e2e("latency_p50_s", assembly_s, "s");
  out.e2e("peak_rss_mb", median(rss_mb), "MB");
  std::printf("  assembly_s = latency_p50_s over %zu trials (slowest %.3f s)\n", walls.size(),
              percentile(walls, 1.0));

  if (args.trace) {
    out.layer("sim.simulate_s", setup_s, "s");
    SpanLog log;
    pipeline::PipelineOptions traced = options;
    traced.work_dir = args.out_dir + "/assemble-traced";
    const LayerFigures fig = traced_assembly(reads, traced, log, out);
    out.check(digest(fig.transcripts) == first_digest,
              "assemble: traced stage-by-stage transcripts differ from run_pipeline");
    out.layer("pipeline.unattributed_s", assembly_s - fig.layers_s, "s");
    out.layer("trace.overhead_ratio", fig.wall_s / assembly_s, "ratio");
    zero_layers({"validate", "sw", "serve"}, out);
    log.write(args.trace_dir + "/assemble-seed" + std::to_string(args.seed) + ".json",
              "assemble-" + std::to_string(args.seed));
  }
  std::filesystem::remove_all(options.work_dir);
  return out;
}

}  // namespace perfbench
