#ifndef GALOIS_LLM_BATCH_SCHEDULER_H_
#define GALOIS_LLM_BATCH_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "llm/language_model.h"

namespace galois {
class PoolBudget;
}  // namespace galois

namespace galois::llm {

/// How one retrieval phase dispatches its prompts to the model.
struct BatchPolicy {
  /// When true, queued prompts go out via CompleteBatch round trips;
  /// when false, one Complete call per prompt (the paper prototype's
  /// cost shape, kept for the Section 6 batching ablation).
  bool batch = true;

  /// Upper bound on prompts per CompleteBatch round trip; 0 sends a whole
  /// flush as one batch. Real APIs cap request sizes, so large phases are
  /// split into ceil(n / max_batch_size) round trips.
  size_t max_batch_size = 0;

  /// Round trips a Flush may keep in flight at once, with batch on or
  /// off. Above 1, Flush pulls its round trips (chunks of max_batch_size
  /// prompts, or single prompts with batch off) from up to this many
  /// threads: its own and chunk pullers on ThreadPool::Shared(), each of
  /// which takes a slot of `budget` or stays deferred. The model behind
  /// the scheduler must then be safe under concurrent calls (SimulatedLlm
  /// and PromptCache are). 1 is the paper prototype's ladder: one round
  /// trip after another, in order, on the calling thread.
  int parallel_batches = 1;

  /// Per-query cancellation/deadline token (null = not cancellable).
  /// Checked before every round trip this scheduler starts — single
  /// prompts, batched chunks and CompleteOne alike — so a cancelled or
  /// expired query stops issuing new LLM traffic at the next dispatch
  /// boundary. Round trips already in flight complete (and bill).
  CancelToken control;

  /// The query's pool slots, shared by every fan-out of the query (see
  /// PoolBudget). Per-query state like `control`: core::PhysicalPlan
  /// sets it. Null, as for a scheduler built outside a plan, gives each
  /// Flush a fresh budget of parallel_batches - 1 slots.
  std::shared_ptr<PoolBudget> budget;
};

/// Collects the pending prompts of one executor phase (a filter-check
/// pass, an attribute column, ...) and dispatches them according to a
/// BatchPolicy. This is the single chokepoint between the Galois plan and
/// the LanguageModel: the operators above it never decide batched vs.
/// sequential vs. concurrent themselves — mirroring how a logic layer sits
/// over a relational store without knowing its physical access pattern
/// (cf. the DB-nets separation of logic and persistence layers).
///
/// Duplicate prompt texts within one flush (repeated keys from a join,
/// the same attribute needed by two operators) are dispatched once and
/// fanned back out to every position, so the model is billed a single
/// completion per distinct prompt. Dedupe happens before chunking, so no
/// two concurrent chunks ever carry the same prompt text.
///
/// One dispatch loop serves batch on and off: the distinct prompts are
/// cut into chunks (of max_batch_size prompts with batch on, of one
/// prompt with batch off) and pulled in index order. The loop copies no
/// queued prompt to dedupe or to send one alone; a batched chunk is
/// copied into its own request vector only when it is sent.
///
/// Thread-safety: a scheduler instance is NOT itself thread-safe — it is
/// a per-phase, single-owner object (Add/Flush/CompleteOne from one
/// thread). The concurrency introduced by parallel_batches is internal
/// to Flush, which joins every in-flight round trip before returning.
/// Its chunk pullers are TaskHandles started against the query's
/// PoolBudget, so a Flush may run inside any pool task: a puller without
/// a slot, or that no worker has started, runs on the joining thread.
class BatchScheduler {
 public:
  /// `model` must outlive the scheduler. `phase` is a human-readable
  /// label ("filter-check:population") used to attribute errors to the
  /// retrieval phase that failed.
  BatchScheduler(LanguageModel* model, BatchPolicy policy,
                 std::string phase = "")
      : model_(model), policy_(policy), phase_(std::move(phase)) {}

  /// Queues a prompt; the returned ticket is its index into the vector
  /// that the next Flush returns.
  size_t Add(Prompt prompt) {
    pending_.push_back(std::move(prompt));
    return pending_.size() - 1;
  }

  size_t pending() const { return pending_.size(); }

  /// Dispatches every queued prompt (deduped by text, split into chunks,
  /// up to parallel_batches round trips in flight) and returns one
  /// completion per Add, in Add order — regardless of the order in which
  /// concurrent round trips finish.
  ///
  /// Error contract: the queue is emptied unconditionally — also on
  /// error. Prompts queued before a failed Flush are dropped, never
  /// retried implicitly; callers own retry policy and must re-Add. On
  /// failure the returned Status keeps the model's error code and
  /// prefixes the message with the phase label and the chunk ("chunk
  /// 3/4 (2 prompts)") or, with batch off, the prompt ("prompt 2/5")
  /// that failed. It is the lowest-indexed failure at any
  /// parallel_batches. At 1 the loop stops at that failure, so nothing
  /// after it is sent or billed; above 1 every round trip is still
  /// started (and billed), which keeps the reported error the ladder's
  /// whichever round trips finish first.
  Result<std::vector<Completion>> Flush();

  /// Convenience: queue `prompts` and flush in one call.
  Result<std::vector<Completion>> Run(std::vector<Prompt> prompts);

  /// Dispatches one prompt immediately, outside any batch (scan paging:
  /// whether page k+1 is wanted depends on page k's answer). Never
  /// billed as a batch round trip.
  Result<Completion> CompleteOne(const Prompt& prompt) {
    GALOIS_RETURN_IF_ERROR(CheckCancel(policy_.control));
    return model_->Complete(prompt);
  }

  const BatchPolicy& policy() const { return policy_; }
  const std::string& phase() const { return phase_; }

  /// CompleteBatch round trips this scheduler has dispatched, failed
  /// ones included; a chunk that a cancelled query never sent is not
  /// counted, and neither is a prompt sent alone (batch off or
  /// CompleteOne). Read it between Flushes (Flush joins its chunk
  /// pullers).
  int batches_dispatched() const { return batches_dispatched_.load(); }

 private:
  /// Prefixes `status` with the phase/chunk context, keeping its code.
  Status Annotate(const Status& status, const std::string& where) const;

  LanguageModel* model_;
  BatchPolicy policy_;
  std::string phase_;
  std::vector<Prompt> pending_;
  std::atomic<int> batches_dispatched_{0};
};

}  // namespace galois::llm

#endif  // GALOIS_LLM_BATCH_SCHEDULER_H_
