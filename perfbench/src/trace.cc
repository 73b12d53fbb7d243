#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/json.h"
#include "stats.h"

namespace perfbench {

Tracer::Tracer() : epoch_ns_(NowNs()) {}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char times[96];
    std::snprintf(times, sizeof(times), "\"start_us\": %.3f, \"end_us\": %.3f",
                  static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                  static_cast<double>(s.end_ns - epoch_ns_) / 1e3);
    out << "  {\"name\": \"" << galois::JsonEscape(s.name) << "\", " << times
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"query\": " << s.query << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, int64_t query,
                       int64_t parent)
    : tracer_(tracer) {
  span_.name = std::move(name);
  span_.query = query;
  span_.parent = parent;
  span_.id = tracer_->NewId();
  span_.start_ns = NowNs();
}

int64_t ScopedSpan::End() {
  if (!ended_) {
    span_.end_ns = NowNs();
    ended_ = true;
    tracer_->Record(span_);
  }
  return span_.end_ns - span_.start_ns;
}

int64_t UnionNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                int64_t lo, int64_t hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (e <= s) continue;
    if (!open || s > cur_end) {
      if (open) covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

std::map<std::string, LayerTotals> SummariseLayers(
    const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTotals> rows;
  for (const Span& s : spans) {
    LayerTotals& row = rows[s.name];
    const int64_t duration = s.end_ns - s.start_ns;
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      covered = UnionNs(it->second, s.start_ns, s.end_ns);
    }
    ++row.count;
    row.total_us += static_cast<double>(duration) / 1e3;
    row.self_us += static_cast<double>(duration - covered) / 1e3;
  }
  return rows;
}

std::string FormatLayerTable(const std::map<std::string, LayerTotals>& rows) {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof(line), "%-22s %9s %14s %14s %14s\n", "span",
                "count", "total_ms", "mean_us", "self_mean_us");
  os << line;
  for (const auto& [name, row] : rows) {
    const double n = row.count > 0 ? static_cast<double>(row.count) : 1.0;
    std::snprintf(line, sizeof(line), "%-22s %9lld %14.3f %14.2f %14.2f\n",
                  name.c_str(), static_cast<long long>(row.count),
                  row.total_us / 1e3, row.total_us / n, row.self_us / n);
    os << line;
  }
  return os.str();
}

}  // namespace perfbench
