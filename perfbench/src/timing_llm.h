#ifndef PERFBENCH_TIMING_LLM_H_
#define PERFBENCH_TIMING_LLM_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "llm/language_model.h"
#include "trace.h"

namespace perfbench {

/// Round trips seen by a TimingLlm since its last Reset().
struct RoundTripStats {
  int64_t round_trips = 0;
  int64_t prompts = 0;
  int64_t key_scan_prompts = 0;  // key-scan pages bought
  int64_t errors = 0;
  double total_us = 0.0;         // summed round-trip wall time
};

/// Wraps a transport (HttpLlm or SimulatedLlm) and times every round trip
/// from outside. Registered as a Database's `external` backend, so it sits
/// below the prompt cache and resilience decorators and sees only the
/// round trips that are billed. When a QueryScope above it has tagged the
/// calling thread and a tracer is attached, each round trip is also
/// recorded as an `llm.round_trip` span of that query.
class TimingLlm : public galois::llm::LanguageModel {
 public:
  TimingLlm(galois::llm::LanguageModel* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  const std::string& name() const override { return inner_->name(); }
  galois::Result<galois::llm::Completion> Complete(
      const galois::llm::Prompt& prompt) override {
    return CompleteMetered(prompt, nullptr);
  }
  galois::Result<std::vector<galois::llm::Completion>> CompleteBatch(
      const std::vector<galois::llm::Prompt>& prompts) override {
    return CompleteBatchMetered(prompts, nullptr);
  }
  galois::Result<galois::llm::Completion> CompleteMetered(
      const galois::llm::Prompt& prompt,
      galois::llm::CostMeter* usage) override;
  galois::Result<std::vector<galois::llm::Completion>> CompleteBatchMetered(
      const std::vector<galois::llm::Prompt>& prompts,
      galois::llm::CostMeter* usage) override;
  galois::llm::CostMeter cost() const override { return inner_->cost(); }
  void ResetCost() override { inner_->ResetCost(); }

  /// Every round trip, and the subset made for a QueryScope-tagged query.
  RoundTripStats stats() const;
  RoundTripStats attributed() const;
  void Reset();

 private:
  void Note(int64_t start_ns, int64_t end_ns,
            const std::vector<const galois::llm::Prompt*>& prompts, bool ok);

  galois::llm::LanguageModel* inner_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  RoundTripStats stats_;       // guarded by mu_
  RoundTripStats attributed_;  // guarded by mu_
};

/// Per-query decorator placed above a Database's model stack by the
/// traced pipeline. Every call into the stack runs with the calling
/// thread tagged with this query's id and parent span, so round trips
/// made from pool threads are still attributed to their query.
class QueryScope : public galois::llm::LanguageModel {
 public:
  QueryScope(galois::llm::LanguageModel* inner, int64_t query,
             int64_t parent_span)
      : inner_(inner), query_(query), parent_(parent_span) {}

  const std::string& name() const override { return inner_->name(); }
  galois::Result<galois::llm::Completion> Complete(
      const galois::llm::Prompt& prompt) override {
    return CompleteMetered(prompt, nullptr);
  }
  galois::Result<std::vector<galois::llm::Completion>> CompleteBatch(
      const std::vector<galois::llm::Prompt>& prompts) override {
    return CompleteBatchMetered(prompts, nullptr);
  }
  galois::Result<galois::llm::Completion> CompleteMetered(
      const galois::llm::Prompt& prompt,
      galois::llm::CostMeter* usage) override;
  galois::Result<std::vector<galois::llm::Completion>> CompleteBatchMetered(
      const std::vector<galois::llm::Prompt>& prompts,
      galois::llm::CostMeter* usage) override;
  galois::llm::CostMeter cost() const override { return inner_->cost(); }
  void ResetCost() override { inner_->ResetCost(); }

 private:
  galois::llm::LanguageModel* inner_;
  int64_t query_;
  int64_t parent_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_LLM_H_
