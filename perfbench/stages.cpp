// The traced run: one assembly composed from the stage functions in the
// order run_pipeline calls them (as examples/trinity_stages.cpp composes
// them), with a span around each call into a layer. Spans come from this
// file only; nothing inside src/ is instrumented.

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "align/mpi_bowtie.hpp"
#include "align/sam_io.hpp"
#include "bench.hpp"
#include "butterfly/butterfly.hpp"
#include "checkpoint/manifest.hpp"
#include "chrysalis/components_io.hpp"
#include "chrysalis/graph_from_fasta.hpp"
#include "chrysalis/reads_to_transcripts.hpp"
#include "chrysalis/scaffold.hpp"
#include "inchworm/inchworm.hpp"
#include "kmer/counter.hpp"
#include "seq/fasta.hpp"
#include "simpi/context.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace align = trinity::align;
namespace butterfly = trinity::butterfly;
namespace checkpoint = trinity::checkpoint;
namespace chrysalis = trinity::chrysalis;
namespace inchworm = trinity::inchworm;
namespace kmer = trinity::kmer;
namespace simpi = trinity::simpi;

namespace {

// run_pipeline's stage artifact names (trinity_pipeline.cpp).
constexpr const char* kReads = "reads.fa";
constexpr const char* kKmers = "kmers.bin";
constexpr const char* kContigs = "inchworm.fa";
constexpr const char* kSam = "bowtie.sam";
constexpr const char* kComponents = "components.txt";
constexpr const char* kAssignments = "readsToComponents.out.tsv";
constexpr const char* kTranscripts = "Trinity.fa";

/// Max over mean of per-rank busy seconds; 1.0 for one rank.
double skew(const std::vector<double>& busy) {
  if (busy.empty()) return 1.0;
  const double mean =
      std::accumulate(busy.begin(), busy.end(), 0.0) / static_cast<double>(busy.size());
  const double max = *std::max_element(busy.begin(), busy.end());
  return mean > 0.0 ? max / mean : 1.0;
}

/// Communication totals of one hybrid stage, summed over ranks.
struct Comm {
  double bytes = 0.0;
  double wait_s = 0.0;
};

Comm comm_of(const std::vector<simpi::RankResult>& ranks) {
  Comm c;
  for (const auto& r : ranks) {
    c.bytes += static_cast<double>(r.comm.total_bytes_sent());
    c.wait_s += r.comm.total_wait_seconds();
  }
  return c;
}

/// Runs `fn` on `nranks` simpi ranks, timing each rank's body from inside.
template <typename F>
std::vector<simpi::RankResult> run_world(const pipeline::PipelineOptions& options,
                                         std::vector<double>& busy, F&& fn) {
  busy.assign(static_cast<std::size_t>(options.nranks), 0.0);
  return simpi::run(
      options.nranks,
      [&](simpi::Context& ctx) {
        util::Timer t;
        fn(ctx);
        busy[static_cast<std::size_t>(ctx.rank())] = t.seconds();
      },
      options.comm);
}

}  // namespace

LayerFigures traced_assembly(const std::vector<seq::Sequence>& reads,
                             const pipeline::PipelineOptions& options, SpanLog& log,
                             Outcome& out) {
  if (options.r2t_mode != chrysalis::R2TMode::kVote || options.work_dir.empty()) {
    throw std::invalid_argument("traced_assembly: needs vote-mode R2T and a work_dir");
  }
  const std::string dir = options.work_dir;
  fresh_dir(dir);
  const std::string reads_path = dir + "/" + kReads;
  const bool hybrid = options.nranks > 1;

  LayerFigures fig;
  const int root = log.open("assembly");
  std::uint64_t artifact_bytes = 0;
  // run_pipeline's StageDriver hashes every input and output of a stage
  // once the stage completes; the same captures, timed.
  auto capture = [&](const std::vector<std::string>& inputs,
                     const std::vector<std::string>& outputs) {
    Scope s(log, "checkpoint.capture");
    for (const auto& p : inputs) (void)checkpoint::capture_artifact(dir, p);
    for (const auto& p : outputs) artifact_bytes += checkpoint::capture_artifact(dir, p).bytes;
  };

  {
    Scope s(log, "io.write_input");
    seq::write_fasta(reads_path, reads);
  }
  capture({}, {kReads});

  // --- Jellyfish
  kmer::CounterOptions counter_options;
  counter_options.k = options.k;
  counter_options.canonical = true;
  counter_options.num_threads = options.omp_threads;
  kmer::KmerCounter counter(counter_options);
  {
    Scope s(log, "kmer.count");
    counter.add_sequences(reads);
  }
  std::vector<kmer::KmerCount> counts;
  {
    Scope s(log, "kmer.dump");
    counts = counter.dump();
    kmer::write_dump_binary(dir + "/" + kKmers, counts, options.k);
  }
  capture({kReads}, {kKmers});

  // --- Inchworm
  std::vector<seq::Sequence> contigs;
  {
    Scope s(log, "inchworm");
    inchworm::InchwormOptions iw;
    iw.k = options.k;
    iw.min_kmer_count = options.min_kmer_count;
    iw.min_contig_length = static_cast<std::size_t>(options.k);
    iw.tie_break_seed = options.run_seed;
    inchworm::Inchworm assembler(iw);
    assembler.load_counts(counts);
    contigs = assembler.assemble();
    seq::write_fasta(dir + "/" + kContigs, contigs);
  }
  capture({kKmers}, {kContigs});

  // --- Chrysalis: Bowtie
  align::AlignerOptions aligner_options;
  aligner_options.num_threads = options.omp_threads;
  aligner_options.kernel_repeats = options.bowtie_kernel_repeats;
  aligner_options.model_threads_per_rank = options.model_threads_per_rank;
  std::vector<align::SamRecord> sam;
  std::vector<double> busy;
  Comm bowtie_comm;
  {
    Scope s(log, "align.bowtie");
    if (!hybrid) {
      util::Timer t;
      const align::ContigIndex index(contigs, aligner_options);
      const align::SeedExtendAligner aligner(index);
      sam = aligner.align_all(reads);
      align::write_sam(dir + "/" + kSam, sam, contigs);
      busy = {t.seconds()};
    } else {
      bowtie_comm = comm_of(run_world(options, busy, [&](simpi::Context& ctx) {
        auto dist = align::distributed_bowtie(ctx, contigs, reads, aligner_options,
                                              options.bowtie_split);
        if (ctx.rank() == 0) {
          sam = std::move(dist.records);
          align::write_sam(dir + "/" + kSam, sam, contigs);
        }
      }));
    }
  }
  const double bowtie_skew = skew(busy);
  capture({kContigs, kReads}, {kSam});

  std::vector<chrysalis::ContigPair> scaffold;
  if (options.bowtie_scaffolding) {
    Scope s(log, "chrysalis.scaffold");
    scaffold = chrysalis::scaffold_pairs(sam, contigs, chrysalis::ScaffoldOptions{});
  }

  // --- Chrysalis: GraphFromFasta
  chrysalis::GraphFromFastaOptions gff;
  gff.k = options.k;
  gff.min_weld_support = options.min_weld_support;
  gff.omp_threads = options.omp_threads;
  gff.model_threads_per_rank = options.model_threads_per_rank;
  gff.kernel_repeats = options.gff_kernel_repeats;
  gff.distribution = options.gff_distribution;
  gff.hybrid_setup = options.gff_hybrid_setup;
  gff.sharding = options.gff_sharding;
  if (gff.sharding == chrysalis::ShardingStrategy::kPooledOverlap && !options.overlap) {
    gff.sharding = chrysalis::ShardingStrategy::kPooled;
  }
  chrysalis::ComponentSet components;
  Comm gff_comm;
  {
    Scope s(log, "chrysalis.gff");
    if (!hybrid) {
      util::Timer t;
      components = chrysalis::run_shared(contigs, counter, gff, scaffold).components;
      busy = {t.seconds()};
    } else {
      gff_comm = comm_of(run_world(options, busy, [&](simpi::Context& ctx) {
        auto r = chrysalis::run_hybrid(ctx, contigs, counter, gff, scaffold);
        if (ctx.rank() == 0) components = std::move(r.components);
      }));
    }
    chrysalis::write_components(dir + "/" + kComponents, components);
  }
  const double gff_skew = skew(busy);
  capture({kContigs, kKmers, kSam}, {kComponents});

  // --- Chrysalis: ReadsToTranscripts
  chrysalis::ReadsToTranscriptsOptions r2t;
  r2t.k = options.k;
  r2t.max_mem_reads = options.max_mem_reads;
  r2t.omp_threads = options.omp_threads;
  r2t.model_threads_per_rank = options.model_threads_per_rank;
  r2t.kernel_repeats = options.r2t_kernel_repeats;
  r2t.strategy = options.r2t_strategy;
  r2t.output_mode = options.r2t_output_mode;
  r2t.parse_policy = options.parse_policy;
  r2t.overlap_io = options.overlap;
  r2t.mode = options.r2t_mode;
  r2t.index_lifecycle = options.r2t_index;
  std::vector<chrysalis::ReadAssignment> assignments;
  Comm r2t_comm;
  {
    Scope s(log, "chrysalis.r2t");
    if (!hybrid) {
      util::Timer t;
      assignments =
          chrysalis::run_shared(contigs, components, reads_path, r2t, dir).assignments;
      busy = {t.seconds()};
    } else {
      r2t_comm = comm_of(run_world(options, busy, [&](simpi::Context& ctx) {
        auto r = chrysalis::run_hybrid(ctx, contigs, components, reads_path, r2t, dir);
        if (ctx.rank() == 0) assignments = std::move(r.assignments);
      }));
    }
  }
  const double r2t_skew = skew(busy);
  capture({kContigs, kComponents, kReads}, {kAssignments});

  // --- Butterfly
  {
    Scope s(log, "butterfly");
    butterfly::ButterflyOptions bf;
    bf.k = options.k;
    bf.tie_break_seed = options.run_seed;
    bf.min_node_support = options.butterfly_min_node_support;
    bf.require_paired_support = options.butterfly_require_paired_support;
    fig.transcripts = butterfly::run_butterfly(contigs, components, assignments, reads, bf);
    seq::write_fasta(dir + "/" + kTranscripts, fig.transcripts);
  }
  capture({kContigs, kComponents, kAssignments, kReads}, {kTranscripts});
  log.close(root);

  const Span& whole = log.spans()[static_cast<std::size_t>(root)];
  fig.wall_s = whole.end_s - whole.start_s;
  for (const auto& s : log.spans()) {
    if (s.parent == root) fig.layers_s += s.end_s - s.start_s;
  }

  std::size_t aligned = 0;
  for (const auto& r : sam) aligned += r.aligned() ? 1 : 0;
  std::size_t assigned = 0;
  for (const auto& a : assignments) assigned += a.component >= 0 ? 1 : 0;
  const double count_s = log.total("kmer.count");
  const double occurrences = static_cast<double>(counter.total());

  out.layer("io.write_input_s", log.total("io.write_input"), "s");
  out.layer("kmer.count_s", count_s, "s");
  out.layer("kmer.dump_s", log.total("kmer.dump"), "s");
  out.layer("kmer.occurrences", occurrences, "count");
  out.layer("kmer.distinct", static_cast<double>(counter.distinct()), "count");
  out.layer("kmer.occurrences_per_s", count_s > 0.0 ? occurrences / count_s : 0.0, "1/s");
  out.layer("inchworm.assemble_s", log.total("inchworm"), "s");
  out.layer("inchworm.contigs", static_cast<double>(contigs.size()), "count");
  out.layer("align.bowtie_s", log.total("align.bowtie"), "s");
  out.layer("align.skew_ratio", bowtie_skew, "ratio");
  out.layer("align.aligned_reads", static_cast<double>(aligned), "count");
  out.layer("chrysalis.scaffold_s", log.total("chrysalis.scaffold"), "s");
  out.layer("chrysalis.gff_s", log.total("chrysalis.gff"), "s");
  out.layer("chrysalis.gff_skew_ratio", gff_skew, "ratio");
  out.layer("chrysalis.components", static_cast<double>(components.num_components()), "count");
  out.layer("chrysalis.r2t_s", log.total("chrysalis.r2t"), "s");
  out.layer("chrysalis.r2t_skew_ratio", r2t_skew, "ratio");
  out.layer("chrysalis.assigned_reads", static_cast<double>(assigned), "count");
  out.layer("simpi.bowtie.bytes", bowtie_comm.bytes, "B");
  out.layer("simpi.bowtie.wait_s", bowtie_comm.wait_s, "s");
  out.layer("simpi.gff.bytes", gff_comm.bytes, "B");
  out.layer("simpi.gff.wait_s", gff_comm.wait_s, "s");
  out.layer("simpi.r2t.bytes", r2t_comm.bytes, "B");
  out.layer("simpi.r2t.wait_s", r2t_comm.wait_s, "s");
  out.layer("butterfly.run_s", log.total("butterfly"), "s");
  out.layer("butterfly.transcripts", static_cast<double>(fig.transcripts.size()), "count");
  out.layer("checkpoint.capture_s", log.total("checkpoint.capture"), "s");
  out.layer("io.artifact_bytes", static_cast<double>(artifact_bytes), "B");
  std::filesystem::remove_all(dir);
  return fig;
}

void zero_layers(const std::vector<std::string>& layers, Outcome& out) {
  auto has = [&](const char* layer) {
    return std::find(layers.begin(), layers.end(), layer) != layers.end();
  };
  if (has("validate")) {
    for (const char* name : {"validate.reference_s", "validate.categories_s"}) {
      out.layer(name, 0.0, "s");
    }
    out.layer("validate.queries", 0.0, "count");
    out.layer("validate.queries_per_s", 0.0, "1/s");
    for (const char* name : {"validate.full_length_isoforms", "validate.fused_isoforms",
                             "validate.full_identical"}) {
      out.layer(name, 0.0, "count");
    }
  }
  if (has("sw")) {
    out.layer("sw.align_s", 0.0, "s");
    out.layer("sw.cells_computed", 0.0, "count");
    out.layer("sw.cells_per_s", 0.0, "1/s");
  }
  if (has("serve")) {
    for (const char* name :
         {"serve.latency_p95_s", "serve.submit_p50_s", "serve.submit_max_s", "serve.queue_wait_p50_s",
          "serve.run_p50_s", "serve.journal_fsync_p99_s", "serve.generator_lag_max_s"}) {
      out.layer(name, 0.0, "s");
    }
    for (const char* name : {"serve.preemptions", "serve.dispatches"}) {
      out.layer(name, 0.0, "count");
    }
    out.layer("serve.failed_ratio", 0.0, "ratio");
  }
}

}  // namespace perfbench
