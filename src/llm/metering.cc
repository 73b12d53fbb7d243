#include "llm/metering.h"

#include <cmath>

namespace galois::llm {

namespace {

/// Milliseconds to integer picoseconds and back: integer sums are exact,
/// so they do not depend on the order the round trips completed in.
int64_t ToPicos(double ms) { return std::llround(ms * 1e9); }
double ToMillis(int64_t ps) { return static_cast<double>(ps) / 1e9; }

}  // namespace

void CostTap::Record(const CostMeter& delta, CostMeter* usage) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tapped_ += delta;
    latency_ps_ += ToPicos(delta.simulated_latency_ms);
    for (const auto& [name, slice] : delta.by_model) {
      slice_latency_ps_[name] += ToPicos(slice.simulated_latency_ms);
    }
  }
  if (usage != nullptr) *usage += delta;
}

Result<Completion> CostTap::CompleteMetered(const Prompt& prompt,
                                            CostMeter* usage) {
  CostMeter delta;
  GALOIS_ASSIGN_OR_RETURN(Completion c,
                          inner_->CompleteMetered(prompt, &delta));
  Record(delta, usage);
  return c;
}

Result<std::vector<Completion>> CostTap::CompleteBatchMetered(
    const std::vector<Prompt>& prompts, CostMeter* usage) {
  CostMeter delta;
  GALOIS_ASSIGN_OR_RETURN(std::vector<Completion> out,
                          inner_->CompleteBatchMetered(prompts, &delta));
  Record(delta, usage);
  return out;
}

CostMeter CostTap::cost() const {
  std::lock_guard<std::mutex> lock(mu_);
  CostMeter out = tapped_;
  out.simulated_latency_ms = ToMillis(latency_ps_);
  for (auto& [name, slice] : out.by_model) {
    slice.simulated_latency_ms = ToMillis(slice_latency_ps_.at(name));
  }
  return out;
}

void CostTap::ResetCost() {
  std::lock_guard<std::mutex> lock(mu_);
  tapped_.Reset();
  latency_ps_ = 0;
  slice_latency_ps_.clear();
}

}  // namespace galois::llm
