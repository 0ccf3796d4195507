#include "bench.hpp"
#include "util/json.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

int SpanLog::open(std::string name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const double t = now_s();
  spans_.push_back({std::move(name), t, t, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  // Scopes close innermost-first, so the closing span is the top one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double SpanLog::total(const std::string& name) const {
  double sum = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) sum += s.end_s - s.start_s;
  }
  return sum;
}

void SpanLog::write(const std::string& path, const std::string& trace_id) const {
  using trinity::util::Json;
  const double epoch = spans_.empty() ? 0.0 : spans_.front().start_s;
  Json list = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json j = Json::object();
    j.set("id", static_cast<std::int64_t>(i));
    j.set("name", s.name);
    j.set("start_s", s.start_s - epoch);
    j.set("end_s", s.end_s - epoch);
    j.set("parent", static_cast<std::int64_t>(s.parent));
    list.push_back(std::move(j));
  }
  Json doc = Json::object();
  doc.set("trace_id", trace_id);
  doc.set("spans", std::move(list));
  std::ofstream f(path);
  f << doc.dump(1) << "\n";
  if (!f) throw std::runtime_error("perfbench: cannot write span file " + path);
}

}  // namespace perfbench
