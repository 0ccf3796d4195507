#include "kmer/counter.hpp"

#include "io/error.hpp"
#include "io/io_file.hpp"

#include <omp.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace trinity::kmer {

KmerCounter::KmerCounter(CounterOptions options) : options_(options), codec_(options.k) {}

void KmerCounter::add_counts(const std::vector<KmerCount>& counts) {
  for (const auto& kc : counts) partitions_[partition_of(kc.code)][kc.code] += kc.count;
}

void KmerCounter::add_sequences(const std::vector<seq::Sequence>& seqs) {
  const int threads = options_.num_threads > 0 ? options_.num_threads : omp_get_max_threads();
  // buffers[t][p]: the codes thread t extracted for partition p this batch.
  std::vector<std::array<std::vector<seq::KmerCode>, kPartitions>> buffers(
      static_cast<std::size_t>(threads));
  for (std::size_t begin = 0, end = 0; begin < seqs.size(); begin = end) {
    for (std::size_t bases = 0; end < seqs.size() &&
                                (end == begin || bases + seqs[end].bases.size() <= kBatchBases);
         ++end) {
      bases += seqs[end].bases.size();
    }
#pragma omp parallel num_threads(threads)
    {
      // Static scheduling hands each thread one contiguous block, in thread
      // order, so buffers read in thread order are in read order.
      auto& mine = buffers[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(static)
      for (std::size_t i = begin; i < end; ++i) {
        for (const auto& occ : codec_.extract(seqs[i].bases)) {
          const seq::KmerCode code = options_.canonical ? codec_.canonical(occ.code) : occ.code;
          mine[partition_of(code)].push_back(code);
        }
      }
      // The implicit barrier above ends extraction; each partition now has
      // one owner, so counting takes no lock.
#pragma omp for schedule(dynamic, 1)
      for (std::size_t p = 0; p < kPartitions; ++p) {
        for (auto& buffer : buffers) {
          for (const seq::KmerCode code : buffer[p]) ++partitions_[p][code];
          buffer[p].clear();
        }
      }
    }
  }
}

std::uint32_t KmerCounter::count_of(seq::KmerCode code) const {
  const seq::KmerCode key = options_.canonical ? codec_.canonical(code) : code;
  const std::uint32_t* count = partitions_[partition_of(key)].lookup(key);
  return count == nullptr ? 0u : *count;
}

std::size_t KmerCounter::distinct() const {
  std::size_t total = 0;
  for (const auto& partition : partitions_) total += partition.size();
  return total;
}

std::uint64_t KmerCounter::total() const {
  std::uint64_t total = 0;
  for (const auto& partition : partitions_) {
    for (const auto& [code, count] : partition) total += count;
  }
  return total;
}

std::vector<KmerCount> KmerCounter::dump(std::uint32_t min_count) const {
  std::vector<KmerCount> out;
  out.reserve(distinct());
  for (const auto& partition : partitions_) {
    for (const auto& [code, count] : partition) {
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
  // Check the claimed record count against the file before allocating for it.
  constexpr std::uint64_t kHeaderBytes = sizeof(k32) + sizeof(n);
  const std::uint64_t records_held =
      (std::filesystem::file_size(path) - kHeaderBytes) / (sizeof(seq::KmerCode) + 4);
  if (n > records_held) {
    throw io::ParseError(io::ParseCategory::kTruncatedRecord, path, 1, kHeaderBytes,
                         "header claims " + std::to_string(n) + " records, file holds " +
                             std::to_string(records_held));
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
