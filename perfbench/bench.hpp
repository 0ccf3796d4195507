#pragma once
// Shared pieces of the end-to-end benchmark: run arguments, the metric
// sheet every workload fills, sample statistics, peak-RSS probes, the
// simulated inputs, and the span log of the traced run.
//
// Workloads (see perfbench/README.md for why each exists):
//   assemble     run_pipeline at nranks = 4 on sugarbeet_like reads
//   validate     Section IV validation of a fixed parallel assembly
//   serve_small  open-loop Poisson stream of tiny jobs through JobServer

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/trinity_pipeline.hpp"
#include "seq/sequence.hpp"
#include "sim/transcriptome.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace pipeline = trinity::pipeline;
namespace seq = trinity::seq;
namespace sim = trinity::sim;
namespace util = trinity::util;

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;  ///< measured-phase budget
  bool trace = false;     ///< false: end-to-end metrics; true: per-layer
  bool mini = false;      ///< minimal sizes, for the self-test
  std::string out_dir;    ///< scratch space for this run (removed at exit)
  std::string trace_dir;  ///< where the traced run's span file is written
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the output-check verdict, the
/// operation counts, and both metric sheets. main prints the end-to-end
/// sheet under --trace 0 and the per-layer sheet under --trace 1.
struct Outcome {
  bool correct = true;
  std::vector<std::string> mismatches;  ///< why `correct` is false
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void check(bool ok, const std::string& what);
  void e2e(std::string name, double value, std::string unit);
  void layer(std::string name, double value, std::string unit);
};

Outcome run_assemble(const Args& args);
Outcome run_validate(const Args& args);
Outcome run_serve_small(const Args& args);

// --- samples and probes -------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Resets the process's VmHWM to the current RSS (writes 5 to
/// /proc/self/clear_refs). Returns false when the kernel refused.
bool reset_peak_rss();
/// VmHWM in MB (1e6 bytes).
double peak_rss_mb();
/// Current RSS in MB.
double rss_mb();

/// Flushes dirty pages to disk so earlier runs' writeback does not land in
/// this run's measured phase; with `trim`, also returns freed heap pages to
/// the OS so a peak-RSS figure starts from what is live.
void settle(bool trim);

/// Closed-loop trial budget: at least `min_trials`, then another trial
/// only while the last one's duration still fits in `seconds` from `start`.
bool another_trial(const std::vector<double>& walls, int min_trials, double start,
                   double seconds);

/// Seconds on the benchmark's monotonic clock.
double now_s();

/// Order-sensitive digest of names and bases.
std::uint64_t digest(const std::vector<seq::Sequence>& seqs);

/// Removes and recreates `dir`.
void fresh_dir(const std::string& dir);

// --- inputs -------------------------------------------------------------------

/// A simulated organism and one sequencing run of it. The transcriptome
/// is seeded by the preset's own seed plus `organism`, so every benchmark
/// seed sees the same organisms; `read_seed` draws the reads.
sim::Dataset simulate_organism(const std::string& preset, std::size_t genes,
                               std::uint64_t read_seed, std::uint64_t organism = 0);

/// Runs `body` `repeats` times and returns the median wall seconds; the
/// set-up figure is reported this way so one slow repeat does not move it.
template <typename F>
double median_wall(int repeats, F&& body) {
  std::vector<double> walls;
  for (int i = 0; i < repeats; ++i) {
    util::Timer t;
    body(i);
    walls.push_back(t.seconds());
  }
  return median(std::move(walls));
}

// --- traced stage-by-stage assembly -------------------------------------------

/// One recorded span: a call into a layer, timed from the benchmark side.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span; -1 for a root
};

/// In-memory span log, written out once when the benchmark ends.
class SpanLog {
 public:
  /// Opens a span under the innermost open one and returns its index.
  int open(std::string name);
  void close(int index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Sum of the durations of every span named `name`.
  [[nodiscard]] double total(const std::string& name) const;
  /// Writes {"trace_id", "spans": [...]} as JSON.
  void write(const std::string& path, const std::string& trace_id) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanLog& log, std::string name) : log_(log), index_(log.open(std::move(name))) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Layer figures the traced run measures by calling each layer's public
/// functions in run_pipeline's order.
struct LayerFigures {
  std::vector<seq::Sequence> transcripts;
  double layers_s = 0.0;  ///< sum of the top-level layer spans
  double wall_s = 0.0;    ///< whole traced run
};

/// Composes one assembly from the stage functions, exactly as run_pipeline
/// does for `options` (which must keep the default strategies), recording
/// a span per layer into `log` and the per-layer metrics into `out`.
LayerFigures traced_assembly(const std::vector<seq::Sequence>& reads,
                             const pipeline::PipelineOptions& options, SpanLog& log,
                             Outcome& out);

/// Per-layer metrics of layers a workload never calls, reported as 0 so
/// every traced run prints the same sheet. `layers` names the prefixes
/// ("validate", "sw", "serve") to zero.
void zero_layers(const std::vector<std::string>& layers, Outcome& out);

}  // namespace perfbench
