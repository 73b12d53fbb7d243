#include "timing_llm.h"

#include <variant>

#include "stats.h"

namespace perfbench {

namespace {

using galois::Result;
namespace llm = galois::llm;

/// The query a thread is currently working for (0 = none), set by
/// QueryScope for the duration of one call into the model stack.
struct ThreadQuery {
  int64_t query = 0;
  int64_t parent = 0;
};
thread_local ThreadQuery t_query;

class ThreadQueryGuard {
 public:
  ThreadQueryGuard(int64_t query, int64_t parent) : saved_(t_query) {
    t_query = ThreadQuery{query, parent};
  }
  ~ThreadQueryGuard() { t_query = saved_; }
  ThreadQueryGuard(const ThreadQueryGuard&) = delete;
  ThreadQueryGuard& operator=(const ThreadQueryGuard&) = delete;

 private:
  ThreadQuery saved_;
};

}  // namespace

Result<llm::Completion> TimingLlm::CompleteMetered(const llm::Prompt& prompt,
                                                   llm::CostMeter* usage) {
  const int64_t start = NowNs();
  Result<llm::Completion> out = inner_->CompleteMetered(prompt, usage);
  Note(start, NowNs(), {&prompt}, out.ok());
  return out;
}

Result<std::vector<llm::Completion>> TimingLlm::CompleteBatchMetered(
    const std::vector<llm::Prompt>& prompts, llm::CostMeter* usage) {
  const int64_t start = NowNs();
  Result<std::vector<llm::Completion>> out =
      inner_->CompleteBatchMetered(prompts, usage);
  std::vector<const llm::Prompt*> seen;
  seen.reserve(prompts.size());
  for (const llm::Prompt& p : prompts) seen.push_back(&p);
  Note(start, NowNs(), seen, out.ok());
  return out;
}

void TimingLlm::Note(int64_t start_ns, int64_t end_ns,
                     const std::vector<const llm::Prompt*>& prompts,
                     bool ok) {
  int64_t key_scans = 0;
  for (const llm::Prompt* p : prompts) {
    if (std::holds_alternative<llm::KeyScanIntent>(p->intent)) ++key_scans;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (RoundTripStats* s : {&stats_, &attributed_}) {
      if (s == &attributed_ && t_query.query == 0) continue;
      ++s->round_trips;
      s->prompts += static_cast<int64_t>(prompts.size());
      s->key_scan_prompts += key_scans;
      if (!ok) ++s->errors;
      s->total_us += static_cast<double>(end_ns - start_ns) / 1e3;
    }
  }
  if (tracer_ != nullptr && t_query.query != 0) {
    Span span;
    span.name = "llm.round_trip";
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.id = tracer_->NewId();
    span.parent = t_query.parent;
    span.query = t_query.query;
    tracer_->Record(std::move(span));
  }
}

RoundTripStats TimingLlm::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

RoundTripStats TimingLlm::attributed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attributed_;
}

void TimingLlm::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = RoundTripStats();
  attributed_ = RoundTripStats();
}

Result<llm::Completion> QueryScope::CompleteMetered(const llm::Prompt& prompt,
                                                    llm::CostMeter* usage) {
  ThreadQueryGuard guard(query_, parent_);
  return inner_->CompleteMetered(prompt, usage);
}

Result<std::vector<llm::Completion>> QueryScope::CompleteBatchMetered(
    const std::vector<llm::Prompt>& prompts, llm::CostMeter* usage) {
  ThreadQueryGuard guard(query_, parent_);
  return inner_->CompleteBatchMetered(prompts, usage);
}

}  // namespace perfbench
