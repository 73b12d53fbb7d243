#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval at a layer boundary. Spans of one query share
/// `query`; `parent` is the id of the span that caused this one (0 for a
/// root).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t query = 0;
};

/// In-memory span recorder: spans are appended under a mutex and written
/// out only when the run ends, so recording costs no IO.
class Tracer {
 public:
  Tracer();

  int64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span);
  std::vector<Span> spans() const;

  /// Writes {"spans": [...]} with times in microseconds since the tracer
  /// was created.
  bool WriteJson(const std::string& path) const;

 private:
  const int64_t epoch_ns_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Times one span on the calling thread: records [construction, End()] or
/// [construction, destruction].
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t query,
             int64_t parent);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }
  /// Ends the span now; returns its duration in ns. Idempotent.
  int64_t End();

 private:
  Tracer* tracer_;
  Span span_;
  bool ended_ = false;
};

/// Length of the union of [start, end) intervals, clipped to
/// [lo, hi).
int64_t UnionNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                int64_t lo, int64_t hi);

/// Per span name: count, summed duration and summed self time (duration
/// minus the part of it the span's children cover).
struct LayerTotals {
  int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::map<std::string, LayerTotals> SummariseLayers(
    const std::vector<Span>& spans);

/// A fixed-width table of SummariseLayers, one row per span name.
std::string FormatLayerTable(const std::map<std::string, LayerTotals>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
