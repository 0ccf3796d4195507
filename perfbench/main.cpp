// perfbench: end-to-end wall-clock benchmark of the Trinity reproduction.
//
//   perfbench --workload assemble|validate|serve_small --seed N --seconds S
//             --trace 0|1 [--mini] [--out-dir DIR] [--trace-dir DIR]
//
// Prints progress and one "metric <name> <value> <unit>" line per metric,
// then, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics (measured untraced); --trace 1
// adds the traced stage-by-stage run and reports the per-layer metrics.
// A failed output check exits 1 after printing the result.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "pipeline/config.hpp"
#include "util/log.hpp"

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  trinity::Config cfg("perfbench", "end-to-end wall-clock benchmark");
  cfg.flag_string("workload", "", "assemble | validate | serve_small")
      .flag_int("seed", 1, "workload seed: the same seed gives the same inputs")
      .flag_double("seconds", 30.0, "measured-phase length in seconds")
      .flag_int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
      .flag_bool("mini", false, "minimal sizes (self-test)")
      .flag_string("out-dir", ".bench_build/perfbench-run", "scratch directory (removed)")
      .flag_string("trace-dir", ".bench_build/perfbench-traces", "span files of traced runs");
  try {
    cfg.parse_cli(argc, argv);
  } catch (const trinity::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (cfg.help_requested()) {
    std::fputs(cfg.help_text().c_str(), stdout);
    return 0;
  }

  Args args;
  args.workload = cfg.get_string("workload");
  args.seed = static_cast<std::uint64_t>(cfg.get_int("seed"));
  args.seconds = cfg.get_double("seconds");
  args.trace = cfg.get_int("trace") != 0;
  args.mini = cfg.get_bool("mini");
  // Recreated on entry, so a killed run's leftovers do not pile up.
  args.out_dir = cfg.get_string("out-dir") + "/" + args.workload;
  args.trace_dir = cfg.get_string("trace-dir");

  Outcome (*workload)(const Args&) = nullptr;
  if (args.workload == "assemble") workload = run_assemble;
  if (args.workload == "validate") workload = run_validate;
  if (args.workload == "serve_small") workload = run_serve_small;
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Pipeline progress logging would interleave with the metric lines.
  trinity::util::log_level() = trinity::util::LogLevel::Warn;
  fresh_dir(args.out_dir);
  std::filesystem::create_directories(args.trace_dir);
  Outcome out;
  try {
    out = workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    std::filesystem::remove_all(args.out_dir);
    return 1;
  }
  std::filesystem::remove_all(args.out_dir);

  const auto& sheet = args.trace ? out.per_layer : out.end_to_end;
  std::string metrics;
  for (const Metric& m : sheet) {
    out.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    std::printf("metric %s %s %s\n", m.name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               (std::isfinite(m.value) ? json_number(m.value) : "0") + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  for (const auto& why : out.mismatches) std::printf("CHECK FAILED: %s\n", why.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              out.correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  return out.correct ? 0 : 1;
}
