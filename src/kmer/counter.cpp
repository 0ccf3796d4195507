#include "kmer/counter.hpp"

#include "io/io_file.hpp"

#include <omp.h>

#include <fstream>
#include <stdexcept>

namespace trinity::kmer {

namespace {
bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }
}  // namespace

KmerCounter::KmerCounter(CounterOptions options)
    : options_(options), codec_(options.k) {
  if (!is_power_of_two(options_.num_shards)) {
    throw std::invalid_argument("KmerCounter: num_shards must be a power of two");
  }
  shards_ = std::vector<Shard>(static_cast<std::size_t>(options_.num_shards));
  shard_mask_ = static_cast<std::size_t>(options_.num_shards) - 1;
}

void KmerCounter::add_sequence(const seq::Sequence& s) {
  const auto occurrences =
      options_.canonical ? codec_.extract_canonical(s.bases) : codec_.extract(s.bases);
  for (const auto& occ : occurrences) {
    Shard& shard = shard_for(occ.code);
    std::scoped_lock lock(shard.mu);
    ++shard.map[occ.code];
  }
}

void KmerCounter::add_counts(const std::vector<KmerCount>& counts) {
  for (const auto& kc : counts) {
    Shard& shard = shard_for(kc.code);
    std::scoped_lock lock(shard.mu);
    shard.map[kc.code] += kc.count;
  }
}

void KmerCounter::add_sequences(const std::vector<seq::Sequence>& seqs) {
  const int requested = options_.num_threads;
  const auto n = static_cast<std::int64_t>(seqs.size());
#pragma omp parallel for schedule(dynamic, 64) num_threads(requested > 0 ? requested \
                                                                         : omp_get_max_threads())
  for (std::int64_t i = 0; i < n; ++i) {
    add_sequence(seqs[static_cast<std::size_t>(i)]);
  }
}

std::uint32_t KmerCounter::count_of(seq::KmerCode code) const {
  const seq::KmerCode key = options_.canonical ? codec_.canonical(code) : code;
  // Unlocked read; see the header contract (no concurrent inserts).
  const Shard& shard = shard_for(key);
  const auto it = shard.map.find(key);
  return it == shard.map.end() ? 0u : it->second;
}

std::size_t KmerCounter::distinct() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

std::uint64_t KmerCounter::total() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    for (const auto& [code, count] : shard.map) total += count;
  }
  return total;
}

std::vector<KmerCount> KmerCounter::dump(std::uint32_t min_count) const {
  std::vector<KmerCount> out;
  out.reserve(distinct());
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    for (const auto& [code, count] : shard.map) {
      if (count >= min_count) out.push_back({code, count});
    }
  }
  return out;
}

void write_dump_binary(const std::string& path, const std::vector<KmerCount>& counts, int k) {
  const auto k32 = static_cast<std::uint32_t>(k);
  const auto n = static_cast<std::uint64_t>(counts.size());
  std::string body;
  body.reserve(sizeof(k32) + sizeof(n) + counts.size() * (sizeof(seq::KmerCode) + 4));
  body.append(reinterpret_cast<const char*>(&k32), sizeof(k32));
  body.append(reinterpret_cast<const char*>(&n), sizeof(n));
  for (const auto& kc : counts) {
    body.append(reinterpret_cast<const char*>(&kc.code), sizeof(kc.code));
    body.append(reinterpret_cast<const char*>(&kc.count), sizeof(kc.count));
  }
  io::write_file(path, body);  // fault-injectable; throws io::IoError
}

std::vector<KmerCount> read_dump_binary(const std::string& path, int expected_k) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_dump_binary: cannot open '" + path + "'");
  std::uint32_t k32 = 0;
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&k32), sizeof(k32));
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  if (!in) throw std::runtime_error("read_dump_binary: truncated header in '" + path + "'");
  if (static_cast<int>(k32) != expected_k) {
    throw std::runtime_error("read_dump_binary: k mismatch in '" + path + "'");
  }
  std::vector<KmerCount> out(n);
  for (auto& kc : out) {
    in.read(reinterpret_cast<char*>(&kc.code), sizeof(kc.code));
    in.read(reinterpret_cast<char*>(&kc.count), sizeof(kc.count));
  }
  if (!in) throw std::runtime_error("read_dump_binary: truncated records in '" + path + "'");
  return out;
}

}  // namespace trinity::kmer
