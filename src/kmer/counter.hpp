#pragma once
// KmerCounter: the Jellyfish substitute.
//
// In the Trinity workflow, `jellyfish count` + `jellyfish dump` produce the
// k-mer/count stream that Inchworm consumes. This module reproduces that
// role with partition-then-count, HipMer's owner-computes k-mer analysis:
// OpenMP threads extract contiguous read blocks into per-thread buffers, one
// per hash partition, then one thread per partition counts lock-free into
// its FlatKmerIndex, in read order — so dump() order and the binary dump's
// bytes do not depend on the thread count. Counts are over canonical k-mers
// by default, with a non-canonical mode used by stages that are strand-aware.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "kmer/flat_index.hpp"
#include "seq/kmer.hpp"
#include "seq/sequence.hpp"

namespace trinity::kmer {

/// One dumped k-mer with its abundance.
struct KmerCount {
  seq::KmerCode code = 0;
  std::uint32_t count = 0;
};

/// Counting options.
struct CounterOptions {
  int k = 25;                 ///< Trinity's default k-mer size
  bool canonical = true;      ///< count strand-neutral (min of kmer, revcomp)
  int num_threads = 0;        ///< 0 = OpenMP default
};

/// Parallel k-mer counter.
class KmerCounter {
 public:
  /// add_sequences buffers the k-mers of at most this many bases per batch
  /// (4 MB of codes) unless one read is longer, whatever the input size.
  static constexpr std::size_t kBatchBases = std::size_t{1} << 19;

  explicit KmerCounter(CounterOptions options);

  /// Adds every k-mer of every sequence, OpenMP-parallel inside; callable
  /// repeatedly (counts accumulate). Not to be called concurrently.
  void add_sequences(const std::vector<seq::Sequence>& seqs);

  /// Merges pre-counted (k-mer, count) records — rebuilding a counter from
  /// a dump file, e.g. when a checkpointed pipeline resumes past its
  /// counting stage. Codes are taken as stored (a canonical counter's dump
  /// already holds canonical codes).
  void add_counts(const std::vector<KmerCount>& counts);

  /// Count of a specific k-mer (canonicalized when the counter is
  /// canonical); 0 when absent.
  ///
  /// A flat probe: safe to call concurrently with other lookups, but NOT
  /// concurrently with add_sequences/add_counts. The pipeline's phases
  /// respect this (counting completes before Chrysalis starts querying the
  /// weld supports).
  [[nodiscard]] std::uint32_t count_of(seq::KmerCode code) const;

  /// Number of distinct k-mers seen.
  [[nodiscard]] std::size_t distinct() const;

  /// Sum of all counts (total k-mer occurrences).
  [[nodiscard]] std::uint64_t total() const;

  /// Extracts all (k-mer, count) pairs with count >= min_count, in table
  /// order: a function of the counted sequences alone.
  [[nodiscard]] std::vector<KmerCount> dump(std::uint32_t min_count = 1) const;

  [[nodiscard]] const CounterOptions& options() const { return options_; }

 private:
  /// Partitions are picked by the top bits of mix_kmer_code; the table
  /// inside a partition picks its slot from the low bits of the same mix.
  static constexpr int kPartitionBits = 6;
  static constexpr std::size_t kPartitions = std::size_t{1} << kPartitionBits;

  static std::size_t partition_of(seq::KmerCode code) {
    return static_cast<std::size_t>(mix_kmer_code(code) >> (64 - kPartitionBits));
  }

  CounterOptions options_;
  seq::KmerCodec codec_;
  std::array<FlatKmerIndex<std::uint32_t>, kPartitions> partitions_;
};

/// Binary dump: u32 k, u64 record count, then (u64 code, u32 count) pairs.
void write_dump_binary(const std::string& path, const std::vector<KmerCount>& counts, int k);

/// Reads the binary dump; throws std::runtime_error on a k mismatch, and
/// io::ParseError (kTruncatedRecord) when the file holds fewer records than
/// its header claims.
std::vector<KmerCount> read_dump_binary(const std::string& path, int expected_k);

}  // namespace trinity::kmer
