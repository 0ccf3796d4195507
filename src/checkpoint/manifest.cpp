#include "checkpoint/manifest.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "io/io_file.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace trinity::checkpoint {

namespace {

// Hashes and fingerprints are written as 16-hex-digit strings: JSON
// numbers are doubles and cannot carry a full 64-bit value.
std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex64(const util::Json& value) {
  const std::string& s = value.as_string();
  if (s.size() != 16 ||
      !std::all_of(s.begin(), s.end(), [](unsigned char c) { return std::isxdigit(c); })) {
    throw std::runtime_error("manifest line: bad hash");
  }
  return std::stoull(s, nullptr, 16);
}

util::Json artifacts_json(const std::vector<ArtifactRecord>& artifacts) {
  util::Json out = util::Json::array();
  for (const auto& a : artifacts) {
    util::Json entry = util::Json::object();
    entry.set("path", a.path);
    entry.set("bytes", a.bytes);
    entry.set("hash", hex64(a.hash));
    out.push_back(std::move(entry));
  }
  return out;
}

std::vector<ArtifactRecord> parse_artifacts(const util::Json& value) {
  std::vector<ArtifactRecord> out;
  for (const auto& entry : value.items()) {
    ArtifactRecord a;
    for (const auto& [key, field] : entry.members()) {
      if (key == "path") a.path = field.as_string();
      else if (key == "bytes") a.bytes = static_cast<std::uint64_t>(field.as_int());
      else if (key == "hash") a.hash = parse_hex64(field);
      else throw std::runtime_error("manifest line: unknown artifact key " + key);
    }
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace

std::string to_json_line(const StageRecord& record) {
  util::Json out = util::Json::object();
  out.set("stage", record.stage);
  out.set("fingerprint", hex64(record.fingerprint));
  if (!record.trace.empty()) out.set("trace", record.trace);
  out.set("outputs", artifacts_json(record.outputs));
  return out.dump();
}

std::optional<StageRecord> parse_json_line(const std::string& line) {
  try {
    StageRecord record;
    bool saw_stage = false, saw_fingerprint = false;
    const util::Json doc = util::Json::parse(line);
    for (const auto& [key, value] : doc.members()) {
      if (key == "stage") { record.stage = value.as_string(); saw_stage = true; }
      else if (key == "fingerprint") { record.fingerprint = parse_hex64(value); saw_fingerprint = true; }
      else if (key == "trace") record.trace = value.as_string();
      else if (key == "outputs") record.outputs = parse_artifacts(value);
      // Earlier-format keys: a stage that never completed is no checkpoint.
      else if (key == "complete") { if (!value.as_bool()) return std::nullopt; }
      else if (key == "inputs" || key == "attempt" || key == "wall_seconds" ||
               key == "checkpoint_seconds") continue;
      else return std::nullopt;  // unknown key
    }
    if (!saw_stage || !saw_fingerprint) return std::nullopt;
    return record;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

RunManifest RunManifest::load(const std::string& path) {
  RunManifest manifest(path);
  std::ifstream in(path);
  if (!in) return manifest;  // no manifest yet: nothing to resume
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto record = parse_json_line(line)) {
      manifest.upsert(std::move(*record));
    } else {
      ++manifest.dropped_lines_;
    }
  }
  return manifest;
}

const StageRecord* RunManifest::find(const std::string& stage) const {
  for (const auto& r : records_) {
    if (r.stage == stage) return &r;
  }
  return nullptr;
}

void RunManifest::upsert(StageRecord record) {
  for (auto& r : records_) {
    if (r.stage == record.stage) {
      r = std::move(record);
      return;
    }
  }
  records_.push_back(std::move(record));
}

void RunManifest::commit() const {
  if (path_.empty()) throw std::runtime_error("RunManifest::commit: no path set");
  std::string body;
  for (const auto& r : records_) {
    body += to_json_line(r);
    body += '\n';
  }
  // tmp + fsync + rename through the fault-injectable io layer; failures
  // surface as io::IoError with transient/permanent classification.
  io::write_file_atomic(path_, body);
}

const char* to_string(StageCheck check) {
  switch (check) {
    case StageCheck::kValid: return "valid";
    case StageCheck::kNoRecord: return "no record";
    case StageCheck::kFingerprintMismatch: return "options fingerprint mismatch";
    case StageCheck::kArtifactMissing: return "artifact missing";
    case StageCheck::kArtifactModified: return "artifact modified";
  }
  return "unknown";
}

ArtifactRecord capture_artifact(const std::string& work_dir, const std::string& rel_path) {
  const std::string full = work_dir + "/" + rel_path;
  ArtifactRecord a;
  a.path = rel_path;
  a.bytes = static_cast<std::uint64_t>(std::filesystem::file_size(full));
  a.hash = util::fnv1a_file(full);
  return a;
}

StageCheck validate_stage(const StageRecord& record, const std::string& work_dir,
                          std::uint64_t fingerprint) {
  if (record.fingerprint != fingerprint) return StageCheck::kFingerprintMismatch;
  for (const auto& a : record.outputs) {
    const std::string full = work_dir + "/" + a.path;
    std::error_code ec;
    const auto size = std::filesystem::file_size(full, ec);
    if (ec) return StageCheck::kArtifactMissing;
    if (size != a.bytes) return StageCheck::kArtifactModified;
    try {
      if (util::fnv1a_file(full) != a.hash) return StageCheck::kArtifactModified;
    } catch (const std::exception&) {
      return StageCheck::kArtifactMissing;
    }
  }
  return StageCheck::kValid;
}

}  // namespace trinity::checkpoint
