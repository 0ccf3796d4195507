#pragma once
// KmerCounter: the Jellyfish substitute.
//
// In the Trinity workflow, `jellyfish count` + `jellyfish dump` produce the
// k-mer/count stream that Inchworm consumes. This module reproduces that
// role: an OpenMP-parallel counter over a lock-striped hash table
// (Jellyfish's own claim to fame is a lock-free hash; striping exercises
// the same concurrent-insert path at our scale), plus text and binary dump
// formats and a loader. Counts are over canonical k-mers by default, with
// a non-canonical mode used by stages that are strand-aware.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

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
  int num_shards = 64;        ///< lock stripes; must be a power of two
  int num_threads = 0;        ///< 0 = OpenMP default
};

/// Parallel k-mer counter.
class KmerCounter {
 public:
  explicit KmerCounter(CounterOptions options);

  /// Adds every k-mer of every sequence. Thread-safe via shard locks;
  /// callable repeatedly (counts accumulate).
  void add_sequences(const std::vector<seq::Sequence>& seqs);

  /// Adds every k-mer of one sequence (single-threaded helper).
  void add_sequence(const seq::Sequence& s);

  /// Merges pre-counted (k-mer, count) records — rebuilding a counter from
  /// a dump file, e.g. when a checkpointed pipeline resumes past its
  /// counting stage. Codes are taken as stored (a canonical counter's dump
  /// already holds canonical codes).
  void add_counts(const std::vector<KmerCount>& counts);

  /// Count of a specific k-mer (canonicalized when the counter is
  /// canonical); 0 when absent.
  ///
  /// Lock-free: safe to call concurrently with other lookups, but NOT
  /// concurrently with add_sequence(s). The pipeline's phases respect this
  /// (counting completes before Chrysalis starts querying); a locked
  /// lookup here would otherwise serialize the weld-support checks, which
  /// issue tens of lookups per candidate across every rank.
  [[nodiscard]] std::uint32_t count_of(seq::KmerCode code) const;

  /// Number of distinct k-mers seen.
  [[nodiscard]] std::size_t distinct() const;

  /// Sum of all counts (total k-mer occurrences).
  [[nodiscard]] std::uint64_t total() const;

  /// Extracts all (k-mer, count) pairs with count >= min_count, in
  /// unspecified order.
  [[nodiscard]] std::vector<KmerCount> dump(std::uint32_t min_count = 1) const;

  [[nodiscard]] const CounterOptions& options() const { return options_; }
  [[nodiscard]] const seq::KmerCodec& codec() const { return codec_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<seq::KmerCode, std::uint32_t> map;
  };

  Shard& shard_for(seq::KmerCode code) {
    return shards_[static_cast<std::size_t>(code) & shard_mask_];
  }
  const Shard& shard_for(seq::KmerCode code) const {
    return shards_[static_cast<std::size_t>(code) & shard_mask_];
  }

  CounterOptions options_;
  seq::KmerCodec codec_;
  std::vector<Shard> shards_;
  std::size_t shard_mask_;
};

/// Binary dump: u32 k, u64 record count, then (u64 code, u32 count) pairs.
void write_dump_binary(const std::string& path, const std::vector<KmerCount>& counts, int k);

/// Reads the binary dump; throws std::runtime_error on a k mismatch or a
/// truncated file.
std::vector<KmerCount> read_dump_binary(const std::string& path, int expected_k);

}  // namespace trinity::kmer
