#ifndef GALOIS_LLM_METERING_H_
#define GALOIS_LLM_METERING_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "llm/language_model.h"

namespace galois::llm {

/// Per-query cost attribution decorator.
///
/// A CostTap sits on top of a (usually shared) model stack for the
/// duration of one logical query: every round trip issued through it is
/// forwarded to the inner stack via the metered API, and the usage the
/// stack reports for that call — and only that call — is accumulated
/// into the tap's own meter. cost() therefore returns exactly what
/// flowed through *this tap*, however many other taps (other concurrent
/// queries, other sessions) are billing the same stack at the same
/// moment. This is what makes `QueryResult::cost` exact under
/// concurrency, where the old snapshot-and-diff of the shared stack's
/// meter was racy.
///
/// The tap is transparent to identification (name() forwards) and adds
/// no caching, routing or policy — attribution only. ResetCost() clears
/// the tap's meter and leaves the inner stack untouched.
///
/// Thread-safety: the completion calls and cost() may be called
/// concurrently (over a thread-safe stack the executor bills one query
/// from several phase threads); the meter is guarded by a mutex and
/// updated once per round trip. thread_safe() forwards the inner stack's
/// answer.
///
/// The meter is independent of completion order: overlapped round trips
/// finish in any order, and a sum of doubles depends on its order in the
/// last bits. The tap therefore sums simulated latency as integer
/// picoseconds, for the aggregate and for every by_model slice, and
/// converts to milliseconds in cost(), so the same round trips give a
/// bit-identical meter however they interleave.
///
/// Failed round trips add nothing to the tap even when the stack billed
/// them internally (see LanguageModel::CompleteMetered); the stack-wide
/// meter remains the source of truth for total spend.
class CostTap : public ForwardingModel {
 public:
  /// `inner` must outlive the tap.
  explicit CostTap(LanguageModel* inner) : ForwardingModel(inner) {}

  /// Forwards to the inner stack's metered call; the reported usage is
  /// added to the tap's meter and, when `usage` is non-null, to the
  /// caller's meter too (taps compose).
  Result<Completion> CompleteMetered(const Prompt& prompt,
                                     CostMeter* usage) override;
  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override;

  /// Usage accumulated through this tap only.
  CostMeter cost() const override;

  /// Clears the tap's meter; the inner stack's meter is untouched.
  void ResetCost() override;

 private:
  void Record(const CostMeter& delta, CostMeter* usage);

  mutable std::mutex mu_;
  // Guarded by mu_. tapped_'s simulated_latency_ms fields are order-
  // dependent double sums; cost() replaces them with the exact sums below.
  CostMeter tapped_;
  int64_t latency_ps_ = 0;
  std::map<std::string, int64_t> slice_latency_ps_;
};

}  // namespace galois::llm

#endif  // GALOIS_LLM_METERING_H_
