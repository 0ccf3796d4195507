#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <unistd.h>

#include "bench.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/rss.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  mismatches.push_back(what);
}

void Outcome::e2e(std::string name, double value, std::string unit) {
  end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::layer(std::string name, double value, std::string unit) {
  per_layer.push_back({std::move(name), value, std::move(unit)});
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() { return static_cast<double>(trinity::util::peak_rss_bytes()) / 1e6; }

double rss_mb() { return static_cast<double>(trinity::util::current_rss_bytes()) / 1e6; }

void settle(bool trim) {
  ::sync();
  if (trim) ::malloc_trim(0);
}

bool another_trial(const std::vector<double>& walls, int min_trials, double start,
                   double seconds) {
  if (static_cast<int>(walls.size()) < min_trials) return true;
  return now_s() - start + walls.back() <= seconds;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t digest(const std::vector<seq::Sequence>& seqs) {
  std::uint64_t h = trinity::util::kFnvOffsetBasis;
  for (const auto& s : seqs) {
    h = trinity::util::fnv1a_append(h, s.name.data(), s.name.size());
    h = trinity::util::fnv1a_append(h, "\n", 1);
    h = trinity::util::fnv1a_append(h, s.bases.data(), s.bases.size());
    h = trinity::util::fnv1a_append(h, "\n", 1);
  }
  return h;
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

sim::Dataset simulate_organism(const std::string& preset, std::size_t genes,
                               std::uint64_t read_seed, std::uint64_t organism) {
  sim::DatasetPreset p = sim::preset(preset);
  p.transcriptome.num_genes = genes;
  trinity::util::Rng organism_rng(p.seed + organism);
  trinity::util::Rng read_rng(read_seed);
  sim::Dataset ds;
  ds.transcriptome = sim::simulate_transcriptome(p.transcriptome, organism_rng);
  ds.reads = sim::simulate_reads(ds.transcriptome, p.reads, read_rng);
  return ds;
}

}  // namespace perfbench
