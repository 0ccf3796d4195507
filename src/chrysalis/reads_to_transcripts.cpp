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

/// The assignment engine a run classifies with: exactly one of the two
/// pointers is set (R2TMode::kVote -> vote, kIndex -> index).
struct Assigner {
  const kmer::FlatKmerIndex<std::int32_t>* vote = nullptr;
  const TranscriptIndex* index = nullptr;

  /// Classifies one read; `labels_out` is filled in index mode only.
  ReadAssignment operator()(const seq::Sequence& read, std::int64_t read_index, int k,
                            std::vector<std::int32_t>* labels_out) const {
    return index != nullptr
               ? detail::assign_read_indexed(read, read_index, *index, k, labels_out)
               : detail::assign_read(read, read_index, *vote, k);
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

/// Processes one in-memory chunk with an OpenMP team; returns the modeled
/// loop seconds and appends to `assignments`. In index mode `chunk_labels`
/// (when non-null) receives each read's equivalence-class label set.
double process_chunk(const std::vector<seq::Sequence>& chunk, std::int64_t base_index,
                     const Assigner& assigner, const ReadsToTranscriptsOptions& options,
                     int real_threads, std::vector<ReadAssignment>& assignments,
                     std::vector<std::vector<std::int32_t>>* chunk_labels = nullptr) {
  const std::size_t offset = assignments.size();
  assignments.resize(offset + chunk.size());
  if (chunk_labels != nullptr) chunk_labels->assign(chunk.size(), {});
  const std::vector<IndexRange> all{IndexRange{0, chunk.size()}};
  return timed_parallel_loop(
      all, real_threads, options.model_threads_per_rank,
      [&](std::size_t i) {
        const std::int64_t read_index = base_index + static_cast<std::int64_t>(i);
        // kernel_repeats: see the options doc; extra iterations are discarded.
        for (int rep = 1; rep < options.kernel_repeats; ++rep) {
          (void)assigner(chunk[i], read_index, options.k, nullptr);
        }
        assignments[offset + i] = assigner(
            chunk[i], read_index, options.k,
            chunk_labels != nullptr ? &(*chunk_labels)[i] : nullptr);
      },
      "r2t.chunk");
}

/// Double-buffered chunk source (options.overlap_io): a helper thread
/// parses the next chunk while the caller classifies the current one.
/// next() returns the chunk in file order — identical to calling
/// read_chunk() directly — plus the wall time the caller still spent
/// blocked on the parse (the unhidden I/O remainder); hidden_seconds() is
/// the parse CPU that ran behind compute. The reader is only ever touched
/// by one thread at a time: the helper finishes (get()) before the next
/// helper is launched.
class PrefetchingChunkSource {
 public:
  PrefetchingChunkSource(seq::FastaReader& reader, std::size_t max_reads)
      : reader_(reader), max_reads_(max_reads) {
    launch();
  }

  std::vector<seq::Sequence> next(double& blocked_wall) {
    trace::SpanScope span("r2t.prefetch.wait", trace::kCatLoop);
    util::Timer blocked;
    auto chunk = pending_.get();
    blocked_wall = blocked.seconds();
    if (!chunk.empty()) launch();
    return chunk;
  }

  [[nodiscard]] double hidden_seconds() const { return hidden_; }

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
  double hidden_ = 0.0;  // only written by the helper, read after its get()
  std::future<std::vector<seq::Sequence>> pending_;
};

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

  kmer::FlatKmerIndex<std::int32_t> bundle_of;
  Assigner assigner;
  if (options.mode == R2TMode::kIndex) {
    result.index = acquire_index(contigs, components, options, index_file_present(options),
                                 /*persist=*/true, result.timing);
    assigner.index = result.index.get();
    result.timing.setup_seconds =
        result.timing.index_build_seconds + result.timing.index_load_seconds;
  } else {
    util::ThreadCpuTimer setup_cpu;
    bundle_of = build_bundle_kmer_map(contigs, components, options.k);
    result.timing.setup_seconds = setup_cpu.seconds();
    assigner.vote = &bundle_of;
  }

  EquivalenceClassCounter eq_counter;
  std::vector<std::vector<std::int32_t>> chunk_labels;
  auto* labels = assigner.index != nullptr ? &chunk_labels : nullptr;
  const auto run_chunk = [&](const std::vector<seq::Sequence>& chunk,
                             std::int64_t base_index) {
    const double seconds = process_chunk(chunk, base_index, assigner, options, threads,
                                         result.assignments, labels);
    if (labels != nullptr) {
      for (const auto& set : chunk_labels) eq_counter.add(set);
    }
    return seconds;
  };

  double loop_seconds = 0.0;
  std::uint64_t chunks = 0;
  seq::FastaReader reader(reads_path, options.parse_policy);
  std::int64_t base_index = 0;
  if (options.overlap_io) {
    // Double-buffered: the next chunk parses on a helper thread while this
    // one classifies; only the residual blocked wall time costs the loop.
    PrefetchingChunkSource source(reader, options.max_mem_reads);
    for (;;) {
      double blocked = 0.0;
      const auto chunk = source.next(blocked);
      loop_seconds += blocked;
      result.timing.prefetch_wait_seconds += blocked;
      if (chunk.empty()) break;
      loop_seconds += run_chunk(chunk, base_index);
      base_index += static_cast<std::int64_t>(chunk.size());
      ++chunks;
    }
    result.timing.prefetch_hidden_seconds = source.hidden_seconds();
  } else {
    for (;;) {
      util::ThreadCpuTimer read_cpu;
      const auto chunk = reader.read_chunk(options.max_mem_reads);
      loop_seconds += read_cpu.seconds();
      if (chunk.empty()) break;
      loop_seconds += run_chunk(chunk, base_index);
      base_index += static_cast<std::int64_t>(chunk.size());
      ++chunks;
    }
  }
  result.parse = reader.diagnostics();
  result.timing.main_loop.seconds = {loop_seconds};
  result.timing.rank_chunks = {chunks};
  result.timing.rank_reads = {result.assignments.size()};
  if (assigner.index != nullptr) result.eq_classes = eq_counter.classes();

  if (!output_dir.empty()) {
    result.merged_output_path = output_dir + "/readsToComponents.out.tsv";
    detail::write_assignments(result.merged_output_path, result.assignments);
    if (assigner.index != nullptr) {
      io::write_file(output_dir + "/eq_classes.tsv", eq_counter.serialize());
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

  // Setup stays OpenMP-only and runs redundantly per rank ("we have not
  // converted this to a hybrid implementation yet" — paper, Section V.B).
  // Index mode breaks the redundancy on the warm path: every rank mmaps
  // the same file, and cold builds persist from rank 0 only.
  kmer::FlatKmerIndex<std::int32_t> bundle_of;
  Assigner assigner;
  double my_setup = 0.0;
  if (options.mode == R2TMode::kIndex) {
    // Load-vs-build is decided once at rank 0 and broadcast: a per-rank
    // existence check could race with rank 0's save under kAuto, leaving
    // ranks disagreeing on index_source.
    std::vector<std::uint8_t> flag{
        static_cast<std::uint8_t>(ctx.rank() == 0 && index_file_present(options) ? 1 : 0)};
    ctx.bcast(flag, 0);
    result.index = acquire_index(contigs, components, options, flag[0] != 0,
                                 /*persist=*/ctx.rank() == 0, result.timing);
    assigner.index = result.index.get();
    my_setup = result.timing.index_build_seconds + result.timing.index_load_seconds;
  } else {
    util::ThreadCpuTimer setup_cpu;
    bundle_of = build_bundle_kmer_map(contigs, components, options.k);
    my_setup = setup_cpu.seconds();
    assigner.vote = &bundle_of;
  }

  std::vector<ReadAssignment> my_assignments;
  EquivalenceClassCounter my_eq;
  std::vector<std::vector<std::int32_t>> chunk_labels;
  auto* labels = assigner.index != nullptr ? &chunk_labels : nullptr;
  const auto run_chunk = [&](const std::vector<seq::Sequence>& chunk,
                             std::int64_t base_index) {
    const double seconds = process_chunk(chunk, base_index, assigner, options, threads,
                                         my_assignments, labels);
    if (labels != nullptr) {
      for (const auto& set : chunk_labels) my_eq.add(set);
    }
    return seconds;
  };
  double my_loop = 0.0;
  std::uint64_t my_chunks = 0;
  constexpr int kChunkTag = 7;

  double my_prefetch_hidden = 0.0;
  double my_prefetch_wait = 0.0;

  if (options.strategy == R2TStrategy::kRedundantStreaming) {
    // Every rank streams the whole file and keeps chunks where
    // chunk_index mod size == rank; discarded chunks still cost the read.
    // With overlap_io the next chunk parses on a helper thread while this
    // rank classifies its owned chunk, so the redundant read mostly hides
    // behind compute and only the residual blocked wall time is charged.
    seq::FastaReader reader(reads_path, options.parse_policy);
    std::int64_t base_index = 0;
    std::int64_t chunk_index = 0;
    if (options.overlap_io) {
      PrefetchingChunkSource source(reader, options.max_mem_reads);
      for (;;) {
        double blocked = 0.0;
        const auto chunk = source.next(blocked);
        my_loop += blocked;
        my_prefetch_wait += blocked;
        if (chunk.empty()) break;
        if (chunk_index % ctx.size() == ctx.rank()) {
          my_loop += run_chunk(chunk, base_index);
          ++my_chunks;
        }
        base_index += static_cast<std::int64_t>(chunk.size());
        ++chunk_index;
      }
      my_prefetch_hidden = source.hidden_seconds();
    } else {
      for (;;) {
        util::ThreadCpuTimer read_cpu;
        const auto chunk = reader.read_chunk(options.max_mem_reads);
        my_loop += read_cpu.seconds();
        if (chunk.empty()) break;
        if (chunk_index % ctx.size() == ctx.rank()) {
          my_loop += run_chunk(chunk, base_index);
          ++my_chunks;
        }
        base_index += static_cast<std::int64_t>(chunk.size());
        ++chunk_index;
      }
    }
    result.parse = reader.diagnostics();
  } else {
    // Master/slave ablation: rank 0 reads and ships chunks round-robin;
    // an empty payload is the end-of-stream sentinel.
    if (ctx.rank() == 0) {
      seq::FastaReader reader(reads_path, options.parse_policy);
      std::int64_t base_index = 0;
      std::int64_t chunk_index = 0;
      for (;;) {
        util::ThreadCpuTimer read_cpu;
        const auto chunk = reader.read_chunk(options.max_mem_reads);
        my_loop += read_cpu.seconds();
        if (chunk.empty()) break;
        const int dest = static_cast<int>(chunk_index % ctx.size());
        if (dest == 0) {
          my_loop += run_chunk(chunk, base_index);
          ++my_chunks;
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
        my_loop += run_chunk(chunk, base_index);
        ++my_chunks;
      }
    }
  }

  // Output: per-rank files + master concatenation (the paper's scheme) or
  // a collective ordered write (its MPI-I/O future work).
  double concat_seconds = 0.0;
  if (!output_dir.empty()) {
    sort_by_read_index(my_assignments);
    result.merged_output_path = output_dir + "/readsToComponents.out.tsv";
    if (options.output_mode == R2TOutputMode::kPerRankConcat) {
      const std::string my_path = rank_output_path(output_dir, ctx.rank());
      detail::write_assignments(my_path, my_assignments);
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
      for (const auto& a : my_assignments) write_assignment_row(body, a);
      const std::string data = body.str();
      simpi::write_file_ordered(ctx, result.merged_output_path, data);
      concat_seconds = ctx.allreduce_max(wall.seconds());
    }
  }

  // Pool assignments so every rank returns the full, sorted result.
  const std::uint64_t my_assignment_bytes = my_assignments.size() * sizeof(ReadAssignment);
  result.assignments = ctx.allgatherv(my_assignments);
  sort_by_read_index(result.assignments);

  // Pool equivalence-class counters the same way (variable-length TSV wire
  // over an Allgatherv, split by the per-rank counts): every rank ends up
  // with the identical global class table.
  if (assigner.index != nullptr) {
    const std::string wire = my_eq.serialize();
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

  result.timing.setup_seconds = ctx.allreduce_max(my_setup);
  result.timing.index_build_seconds = ctx.allreduce_max(result.timing.index_build_seconds);
  result.timing.index_load_seconds = ctx.allreduce_max(result.timing.index_load_seconds);
  result.timing.main_loop.seconds = ctx.allgatherv(std::vector<double>{my_loop});
  result.timing.rank_chunks = ctx.allgatherv(std::vector<std::uint64_t>{my_chunks});
  result.timing.rank_reads =
      ctx.allgatherv(std::vector<std::uint64_t>{my_assignment_bytes / sizeof(ReadAssignment)});
  result.timing.assignment_bytes_contributed =
      ctx.allgatherv(std::vector<std::uint64_t>{my_assignment_bytes});
  result.timing.assignment_bytes_pooled =
      result.assignments.size() * sizeof(ReadAssignment);
  result.timing.prefetch_hidden_seconds = ctx.allreduce_max(my_prefetch_hidden);
  result.timing.prefetch_wait_seconds = ctx.allreduce_max(my_prefetch_wait);
  result.timing.concat_seconds = concat_seconds;
  result.timing.comm_seconds = ctx.allreduce_max(ctx.comm_seconds() - comm_before);
  return result;
}

}  // namespace trinity::chrysalis
