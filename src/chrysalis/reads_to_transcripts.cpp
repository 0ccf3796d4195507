#include "chrysalis/reads_to_transcripts.hpp"

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "chrysalis/parallel_loop.hpp"
#include "io/io_file.hpp"
#include "seq/fasta.hpp"
#include "seq/kmer.hpp"
#include "simpi/file_io.hpp"
#include "simpi/pack.hpp"
#include "trace/span_recorder.hpp"
#include "util/timer.hpp"

namespace trinity::chrysalis {

kmer::FlatKmerIndex<std::int32_t> build_bundle_kmer_map(
    const std::vector<seq::Sequence>& contigs, const ComponentSet& components, int k) {
  const seq::KmerCodec codec(k);
  // Reserve-from-count: total contig bases bound the distinct k-mers, so
  // the build loop never rehashes.
  std::size_t bases = 0;
  for (const auto& contig : contigs) bases += contig.bases.size();
  kmer::FlatKmerIndex<std::int32_t> bundle_of(bases);
  for (const auto& comp : components.components) {
    for (const auto contig_id : comp.contig_ids) {
      const auto& contig = contigs.at(static_cast<std::size_t>(contig_id));
      for (const auto& occ : codec.extract_canonical(contig.bases)) {
        const auto [it, inserted] = bundle_of.emplace(occ.code, comp.id);
        if (!inserted && comp.id < it->second) it->second = comp.id;
      }
    }
  }
  return bundle_of;
}

namespace {

/// The tally-and-pick kernel both engines share: every canonical k-mer of
/// the read is probed (`probe(code)` yields the k-mer's component, or
/// nullptr when it belongs to none), and the component with the most
/// shared k-mers wins, ties to the smaller id. Only the probe differs
/// between the voting map and the index, which is what makes the two modes
/// bit-identical. `labels_out`, when non-null, receives the sorted distinct
/// components hit (the fragment-equivalence-class key).
template <typename Probe>
ReadAssignment tally_and_pick(const seq::Sequence& read, std::int64_t read_index, int k,
                              Probe probe, std::vector<std::int32_t>* labels_out) {
  ReadAssignment out;
  out.read_index = read_index;
  if (labels_out != nullptr) labels_out->clear();

  const seq::KmerCodec codec(k);
  const auto occurrences = codec.extract_canonical(read.bases);
  if (occurrences.empty()) return out;

  // Components are few per read, so a small flat vector beats a hash map.
  struct Tally {
    std::int32_t component;
    std::uint32_t count;
    std::size_t first;
    std::size_t last;  // last k-mer start position
  };
  std::vector<Tally> tallies;
  for (const auto& occ : occurrences) {
    const std::int32_t* component = probe(occ.code);
    if (component == nullptr) continue;
    bool found = false;
    for (auto& t : tallies) {
      if (t.component == *component) {
        ++t.count;
        t.last = occ.position;
        found = true;
        break;
      }
    }
    if (!found) tallies.push_back({*component, 1, occ.position, occ.position});
  }
  if (tallies.empty()) return out;

  if (labels_out != nullptr) {
    labels_out->reserve(tallies.size());
    for (const auto& t : tallies) labels_out->push_back(t.component);
    std::sort(labels_out->begin(), labels_out->end());
  }

  const auto best = std::min_element(
      tallies.begin(), tallies.end(), [](const Tally& a, const Tally& b) {
        if (a.count != b.count) return a.count > b.count;  // most shared k-mers
        return a.component < b.component;                  // deterministic tie
      });
  out.component = best->component;
  out.shared_kmers = best->count;
  out.region_begin = static_cast<std::uint32_t>(best->first);
  out.region_end = static_cast<std::uint32_t>(best->last + static_cast<std::size_t>(k));
  return out;
}

/// One readsToComponents.out.tsv row.
template <typename Out>
void write_assignment_row(Out& out, const ReadAssignment& a) {
  out << a.read_index << '\t' << a.component << '\t' << a.shared_kmers << '\t'
      << a.region_begin << '\t' << a.region_end << '\n';
}

}  // namespace

namespace detail {

ReadAssignment assign_read(const seq::Sequence& read, std::int64_t read_index,
                           const kmer::FlatKmerIndex<std::int32_t>& bundle_of, int k) {
  return tally_and_pick(
      read, read_index, k, [&](seq::KmerCode code) { return bundle_of.lookup(code); },
      nullptr);
}

ReadAssignment assign_read_indexed(const seq::Sequence& read, std::int64_t read_index,
                                   const TranscriptIndex& index, int k,
                                   std::vector<std::int32_t>* labels_out) {
  return tally_and_pick(
      read, read_index, k,
      [&](seq::KmerCode code) -> const std::int32_t* {
        const PathInterval* hit = index.lookup(code);
        return hit != nullptr ? &hit->component : nullptr;
      },
      labels_out);
}

void write_assignments(const std::string& path,
                       const std::vector<ReadAssignment>& assignments) {
  io::BufferedWriter out(path);
  for (const auto& a : assignments) write_assignment_row(out, a);
  out.close();
}

}  // namespace detail

namespace {

/// The assignment engine a run classifies with: the transcript index
/// (R2TMode::kIndex, `index` set) or the per-run voting map (kVote).
struct Assigner {
  kmer::FlatKmerIndex<std::int32_t> vote;
  std::shared_ptr<const TranscriptIndex> index;

  /// Classifies one read; `labels_out` is filled in index mode only.
  ReadAssignment operator()(const seq::Sequence& read, std::int64_t read_index, int k,
                            std::vector<std::int32_t>* labels_out) const {
    return index != nullptr
               ? detail::assign_read_indexed(read, read_index, *index, k, labels_out)
               : detail::assign_read(read, read_index, vote, k);
  }
};

/// Whether an existing index file should be mmapped instead of building.
bool index_file_present(const ReadsToTranscriptsOptions& options) {
  return !options.index_path.empty() &&
         options.index_lifecycle != IndexLifecycle::kBuild &&
         ::access(options.index_path.c_str(), F_OK) == 0;
}

/// Resolves the index for an R2TMode::kIndex run: the serve layer's shared
/// copy, an mmap of the persisted file, or a fresh build (persisted when
/// `persist` — in hybrid runs only rank 0 saves, so concurrent ranks never
/// race on the atomic-write tmp file). Fills the timing fields the run
/// report surfaces. `load_existing` is the (collectively agreed, for
/// hybrid) result of index_file_present().
std::shared_ptr<const TranscriptIndex> acquire_index(
    const std::vector<seq::Sequence>& contigs, const ComponentSet& components,
    const ReadsToTranscriptsOptions& options, bool load_existing, bool persist,
    R2TTiming& timing) {
  if (options.shared_index != nullptr && options.shared_index->k() == options.k) {
    timing.index_source = "shared-cache";
    return options.shared_index;
  }
  if (options.index_lifecycle == IndexLifecycle::kLoad && options.index_path.empty()) {
    throw std::runtime_error(
        "ReadsToTranscripts: index lifecycle 'load' requires an index path");
  }
  if (options.index_lifecycle == IndexLifecycle::kLoad || load_existing) {
    util::Timer wall;
    auto loaded =
        std::make_shared<TranscriptIndex>(TranscriptIndex::load(options.index_path));
    timing.index_load_seconds = wall.seconds();
    if (loaded->k() == options.k) {
      timing.index_source = "mmap";
      return loaded;
    }
    if (options.index_lifecycle == IndexLifecycle::kLoad) {
      throw std::runtime_error("ReadsToTranscripts: index '" + options.index_path +
                               "' was built with k=" + std::to_string(loaded->k()) +
                               ", this run requires k=" + std::to_string(options.k) +
                               " (rebuild with --r2t-index build)");
    }
    timing.index_load_seconds = 0.0;  // kAuto: stale k, fall through and rebuild
  }
  util::Timer wall;
  auto built = std::make_shared<TranscriptIndex>(
      TranscriptIndex::build(contigs, components, options.k));
  timing.index_build_seconds = wall.seconds();
  timing.index_source = "built";
  if (persist && !options.index_path.empty()) built->save(options.index_path);
  return built;
}

/// Sets up the run's engine and records its cost in `timing`. Setup stays
/// OpenMP-only and runs redundantly per rank ("we have not converted this
/// to a hybrid implementation yet" — paper, Section V.B). Index mode breaks
/// the redundancy on the warm path: every rank mmaps the same file. In a
/// hybrid run (`ctx` non-null) load-vs-build is decided once at rank 0 and
/// broadcast — a per-rank existence check could race with rank 0's save
/// under kAuto, leaving ranks disagreeing on index_source — and cold builds
/// persist from rank 0 only.
Assigner make_assigner(simpi::Context* ctx, const std::vector<seq::Sequence>& contigs,
                       const ComponentSet& components,
                       const ReadsToTranscriptsOptions& options, R2TTiming& timing) {
  Assigner assigner;
  if (options.mode == R2TMode::kIndex) {
    bool load_existing = false;
    if (ctx == nullptr) {
      load_existing = index_file_present(options);
    } else {
      std::vector<std::uint8_t> flag{
          static_cast<std::uint8_t>(ctx->rank() == 0 && index_file_present(options) ? 1 : 0)};
      ctx->bcast(flag, 0);
      load_existing = flag[0] != 0;
    }
    assigner.index = acquire_index(contigs, components, options, load_existing,
                                   /*persist=*/ctx == nullptr || ctx->rank() == 0, timing);
    timing.setup_seconds = timing.index_build_seconds + timing.index_load_seconds;
  } else {
    util::ThreadCpuTimer setup_cpu;
    assigner.vote = build_bundle_kmer_map(contigs, components, options.k);
    timing.setup_seconds = setup_cpu.seconds();
  }
  return assigner;
}

/// What one rank's chunk loop accumulates.
struct RankLoop {
  std::vector<ReadAssignment> assignments;
  EquivalenceClassCounter eq;  ///< fed in index mode only
  double seconds = 0.0;        ///< modeled loop seconds, chunk reads included
  std::uint64_t chunks = 0;    ///< chunks this rank classified
};

/// Classifies one in-memory chunk with an OpenMP team into `loop`. In index
/// mode each read's equivalence-class label set feeds `loop.eq`.
void process_chunk(const std::vector<seq::Sequence>& chunk, std::int64_t base_index,
                   const Assigner& assigner, const ReadsToTranscriptsOptions& options,
                   int real_threads, RankLoop& loop) {
  const std::size_t offset = loop.assignments.size();
  loop.assignments.resize(offset + chunk.size());
  std::vector<std::vector<std::int32_t>> labels;
  if (assigner.index != nullptr) labels.resize(chunk.size());
  const std::vector<IndexRange> all{IndexRange{0, chunk.size()}};
  loop.seconds += timed_parallel_loop(
      all, real_threads, options.model_threads_per_rank,
      [&](std::size_t i) {
        const std::int64_t read_index = base_index + static_cast<std::int64_t>(i);
        // kernel_repeats: see the options doc; extra iterations are discarded.
        for (int rep = 1; rep < options.kernel_repeats; ++rep) {
          (void)assigner(chunk[i], read_index, options.k, nullptr);
        }
        loop.assignments[offset + i] = assigner(
            chunk[i], read_index, options.k, labels.empty() ? nullptr : &labels[i]);
      },
      "r2t.chunk");
  for (const auto& set : labels) loop.eq.add(set);
  ++loop.chunks;
}

/// The reads file as a stream of chunks in file order. next() returns the
/// next chunk (empty at end of file) plus the seconds its read costs the
/// loop. Inline, the caller parses and is charged the parse's thread CPU.
/// Double-buffered (options.overlap_io), a helper thread parses the next
/// chunk while the caller classifies the current one, and the caller is
/// charged only the wall time it still spent blocked (the unhidden I/O
/// remainder, summed in wait_seconds()); hidden_seconds() is the parse CPU
/// that ran behind compute. The reader is only ever touched by one thread
/// at a time: the helper finishes (get()) before the next one is launched.
class ChunkSource {
 public:
  ChunkSource(seq::FastaReader& reader, std::size_t max_reads, bool prefetch)
      : reader_(reader), max_reads_(max_reads), prefetch_(prefetch) {
    if (prefetch_) launch();
  }
  // The helper thread holds `this`.
  ChunkSource(const ChunkSource&) = delete;
  ChunkSource& operator=(const ChunkSource&) = delete;

  std::vector<seq::Sequence> next(double& cost) {
    if (!prefetch_) {
      util::ThreadCpuTimer read_cpu;
      auto chunk = reader_.read_chunk(max_reads_);
      cost = read_cpu.seconds();
      return chunk;
    }
    trace::SpanScope span("r2t.prefetch.wait", trace::kCatLoop);
    util::Timer blocked;
    auto chunk = pending_.get();
    cost = blocked.seconds();
    wait_ += cost;
    if (!chunk.empty()) launch();
    return chunk;
  }

  [[nodiscard]] double hidden_seconds() const { return hidden_; }
  [[nodiscard]] double wait_seconds() const { return wait_; }

 private:
  void launch() {
    pending_ = std::async(std::launch::async, [this] {
      util::ThreadCpuTimer cpu;
      auto chunk = reader_.read_chunk(max_reads_);
      hidden_ += cpu.seconds();
      return chunk;
    });
  }

  seq::FastaReader& reader_;
  std::size_t max_reads_;
  bool prefetch_;
  double hidden_ = 0.0;  // only written by the helper, read after its get()
  double wait_ = 0.0;
  std::future<std::vector<seq::Sequence>> pending_;
};

/// The redundant-streaming loop (paper Section V.B): streams the whole reads
/// file and classifies the chunks whose index is congruent to `rank` modulo
/// `size`; skipped chunks still cost their read. A shared-memory run is
/// size 1, rank 0, keeping every chunk. Prefetch times go to `timing`;
/// returns the reader's parse diagnostics.
io::ParseDiagnostics stream_chunks(const std::string& reads_path, int size, int rank,
                                   const Assigner& assigner,
                                   const ReadsToTranscriptsOptions& options, int real_threads,
                                   RankLoop& loop, R2TTiming& timing) {
  seq::FastaReader reader(reads_path, options.parse_policy);
  ChunkSource source(reader, options.max_mem_reads, options.overlap_io);
  std::int64_t base_index = 0;
  for (std::int64_t chunk_index = 0;; ++chunk_index) {
    double read_cost = 0.0;
    const auto chunk = source.next(read_cost);
    loop.seconds += read_cost;
    if (chunk.empty()) break;
    if (chunk_index % size == rank) {
      process_chunk(chunk, base_index, assigner, options, real_threads, loop);
    }
    base_index += static_cast<std::int64_t>(chunk.size());
  }
  timing.prefetch_wait_seconds = source.wait_seconds();
  timing.prefetch_hidden_seconds = source.hidden_seconds();
  return reader.diagnostics();
}

std::string rank_output_path(const std::string& output_dir, int rank) {
  return output_dir + "/readsToComponents.rank" + std::to_string(rank) + ".tsv";
}

/// Concatenates per-rank files into the final output — the paper's "simple
/// cat command" by the master process. Returns wall seconds.
double concatenate_outputs(const std::vector<std::string>& inputs, const std::string& output) {
  util::Timer wall;
  io::BufferedWriter out(output);
  for (const auto& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("ReadsToTranscripts: cannot open '" + path + "'");
    // operator<<(streambuf*) sets failbit on an empty input; copy manually.
    char buffer[1 << 16];
    while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
      out << std::string_view(buffer, static_cast<std::size_t>(in.gcount()));
    }
  }
  out.close();
  return wall.seconds();
}

void sort_by_read_index(std::vector<ReadAssignment>& assignments) {
  std::sort(assignments.begin(), assignments.end(),
            [](const ReadAssignment& a, const ReadAssignment& b) {
              return a.read_index < b.read_index;
            });
}

}  // namespace

R2TResult run_shared(const std::vector<seq::Sequence>& contigs, const ComponentSet& components,
                     const std::string& reads_path, const ReadsToTranscriptsOptions& options,
                     const std::string& output_dir) {
  const int threads = resolve_omp_threads(options.omp_threads, /*hybrid=*/false);
  R2TResult result;
  const Assigner assigner = make_assigner(nullptr, contigs, components, options, result.timing);
  result.index = assigner.index;

  RankLoop loop;
  result.parse = stream_chunks(reads_path, /*size=*/1, /*rank=*/0, assigner, options, threads,
                               loop, result.timing);
  result.assignments = std::move(loop.assignments);
  result.timing.main_loop.seconds = {loop.seconds};
  result.timing.rank_chunks = {loop.chunks};
  result.timing.rank_reads = {result.assignments.size()};
  if (assigner.index != nullptr) result.eq_classes = loop.eq.classes();

  if (!output_dir.empty()) {
    result.merged_output_path = output_dir + "/readsToComponents.out.tsv";
    detail::write_assignments(result.merged_output_path, result.assignments);
    if (assigner.index != nullptr) {
      io::write_file(output_dir + "/eq_classes.tsv", loop.eq.serialize());
    }
  }
  return result;
}

R2TResult run_hybrid(simpi::Context& ctx, const std::vector<seq::Sequence>& contigs,
                     const ComponentSet& components, const std::string& reads_path,
                     const ReadsToTranscriptsOptions& options, const std::string& output_dir) {
  const int threads = resolve_omp_threads(options.omp_threads, /*hybrid=*/true);
  const double comm_before = ctx.comm_seconds();
  R2TResult result;

  const Assigner assigner = make_assigner(&ctx, contigs, components, options, result.timing);
  result.index = assigner.index;

  RankLoop loop;
  if (options.strategy == R2TStrategy::kRedundantStreaming) {
    result.parse = stream_chunks(reads_path, ctx.size(), ctx.rank(), assigner, options, threads,
                                 loop, result.timing);
  } else {
    // Master/slave ablation: rank 0 reads and ships chunks round-robin;
    // an empty payload is the end-of-stream sentinel.
    constexpr int kChunkTag = 7;
    if (ctx.rank() == 0) {
      seq::FastaReader reader(reads_path, options.parse_policy);
      std::int64_t base_index = 0;
      std::int64_t chunk_index = 0;
      for (;;) {
        util::ThreadCpuTimer read_cpu;
        const auto chunk = reader.read_chunk(options.max_mem_reads);
        loop.seconds += read_cpu.seconds();
        if (chunk.empty()) break;
        const int dest = static_cast<int>(chunk_index % ctx.size());
        if (dest == 0) {
          process_chunk(chunk, base_index, assigner, options, threads, loop);
        } else {
          std::vector<std::string> wire;
          wire.reserve(chunk.size() + 1);
          wire.push_back(std::to_string(base_index));
          for (const auto& read : chunk) wire.push_back(read.bases);
          ctx.send_bytes(dest, kChunkTag, simpi::pack_strings(wire));
        }
        base_index += static_cast<std::int64_t>(chunk.size());
        ++chunk_index;
      }
      for (int r = 1; r < ctx.size(); ++r) {
        ctx.send_bytes(r, kChunkTag, simpi::pack_strings({}));
      }
      result.parse = reader.diagnostics();
    } else {
      for (;;) {
        const auto msg = ctx.recv_bytes(0, kChunkTag);
        const auto wire = simpi::unpack_strings(msg.payload);
        if (wire.empty()) break;
        const std::int64_t base_index = std::stoll(wire.front());
        std::vector<seq::Sequence> chunk(wire.size() - 1);
        for (std::size_t i = 1; i < wire.size(); ++i) chunk[i - 1].bases = wire[i];
        process_chunk(chunk, base_index, assigner, options, threads, loop);
      }
    }
  }

  // Output: per-rank files + master concatenation (the paper's scheme) or
  // a collective ordered write (its MPI-I/O future work).
  double concat_seconds = 0.0;
  if (!output_dir.empty()) {
    sort_by_read_index(loop.assignments);
    result.merged_output_path = output_dir + "/readsToComponents.out.tsv";
    if (options.output_mode == R2TOutputMode::kPerRankConcat) {
      const std::string my_path = rank_output_path(output_dir, ctx.rank());
      detail::write_assignments(my_path, loop.assignments);
      ctx.barrier();
      if (ctx.rank() == 0) {
        std::vector<std::string> inputs;
        for (int r = 0; r < ctx.size(); ++r) {
          inputs.push_back(rank_output_path(output_dir, r));
        }
        concat_seconds = concatenate_outputs(inputs, result.merged_output_path);
      }
      std::vector<double> concat_wire{concat_seconds};
      ctx.bcast(concat_wire, 0);
      concat_seconds = concat_wire[0];
    } else {
      // Collective write: serialize locally, then one shared-file write.
      // Synchronize first so the timer measures the write itself, not the
      // wait for slower ranks still in their loops.
      ctx.barrier();
      util::Timer wall;
      std::ostringstream body;
      for (const auto& a : loop.assignments) write_assignment_row(body, a);
      const std::string data = body.str();
      simpi::write_file_ordered(ctx, result.merged_output_path, data);
      concat_seconds = ctx.allreduce_max(wall.seconds());
    }
  }

  // Pool assignments so every rank returns the full, sorted result.
  const std::uint64_t my_assignment_bytes = loop.assignments.size() * sizeof(ReadAssignment);
  result.assignments = ctx.allgatherv(loop.assignments);
  sort_by_read_index(result.assignments);

  // Pool equivalence-class counters the same way (variable-length TSV wire
  // over an Allgatherv, split by the per-rank counts): every rank ends up
  // with the identical global class table.
  if (assigner.index != nullptr) {
    const std::string wire = loop.eq.serialize();
    const std::vector<char> wire_bytes(wire.begin(), wire.end());
    std::vector<std::size_t> counts;
    const auto pooled = ctx.allgatherv(wire_bytes, &counts);
    EquivalenceClassCounter global;
    std::size_t offset = 0;
    for (const auto count : counts) {
      global.merge(
          EquivalenceClassCounter::deserialize(std::string(pooled.data() + offset, count)));
      offset += count;
    }
    result.eq_classes = global.classes();
    if (!output_dir.empty() && ctx.rank() == 0) {
      io::write_file(output_dir + "/eq_classes.tsv", global.serialize());
    }
  }

  result.timing.setup_seconds = ctx.allreduce_max(result.timing.setup_seconds);
  result.timing.index_build_seconds = ctx.allreduce_max(result.timing.index_build_seconds);
  result.timing.index_load_seconds = ctx.allreduce_max(result.timing.index_load_seconds);
  result.timing.main_loop.seconds = ctx.allgatherv(std::vector<double>{loop.seconds});
  result.timing.rank_chunks = ctx.allgatherv(std::vector<std::uint64_t>{loop.chunks});
  result.timing.rank_reads =
      ctx.allgatherv(std::vector<std::uint64_t>{my_assignment_bytes / sizeof(ReadAssignment)});
  result.timing.assignment_bytes_contributed =
      ctx.allgatherv(std::vector<std::uint64_t>{my_assignment_bytes});
  result.timing.assignment_bytes_pooled =
      result.assignments.size() * sizeof(ReadAssignment);
  result.timing.prefetch_hidden_seconds =
      ctx.allreduce_max(result.timing.prefetch_hidden_seconds);
  result.timing.prefetch_wait_seconds = ctx.allreduce_max(result.timing.prefetch_wait_seconds);
  result.timing.concat_seconds = concat_seconds;
  result.timing.comm_seconds = ctx.allreduce_max(ctx.comm_seconds() - comm_before);
  return result;
}

}  // namespace trinity::chrysalis
