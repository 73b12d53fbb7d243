#ifndef GALOIS_CORE_LLM_OPERATORS_H_
#define GALOIS_CORE_LLM_OPERATORS_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/options.h"
#include "core/provenance.h"
#include "llm/batch_scheduler.h"
#include "llm/language_model.h"

namespace galois::core {

/// The physical operators that access the LLM (Section 4, Figure 3).
/// These functions are the prompt-issuing leaves of the Galois plan; the
/// relational part of the plan runs on the classic engine.
///
/// Each operator is one synchronous phase over a list of keys; a single
/// key is a one-element list. Every phase dispatches its prompts through
/// one llm::BatchScheduler: batched (CompleteBatch round trips split by
/// ExecutionOptions::max_batch_size, up to
/// ExecutionOptions::parallel_batches in flight concurrently) when
/// options.batch_prompts is on, sequential Complete calls otherwise. All
/// modes issue the same deduplicated prompt set and return identical
/// results; only the round trips — and, with parallelism, the wall-clock
/// time — differ. Each scheduler carries a phase label
/// ("filter-check:population") so a failed round trip names the phase and
/// chunk in its error message. Which phases overlap is decided one layer
/// up, by core::PhysicalPlan.

/// The scheduler dispatch policy implied by the execution options.
llm::BatchPolicy BatchPolicyFor(const ExecutionOptions& options);

/// Starts the `index`-th task of a group of independent phases: a plan's
/// LLM tables, a table's column chains, a key scan's pages in flight. The
/// first (`index` 0) is deferred to its Join and so runs on the joining
/// thread. With `overlap` the others launch on ThreadPool::Shared(), so a
/// fan-out of k tasks occupies at most k - 1 pool workers. Without it
/// they are deferred too, and joining the group in order runs it one
/// task after another on the calling thread — the paper prototype's
/// ladder, prompt for prompt.
template <typename T>
TaskHandle<T> StartPhaseTask(bool overlap, size_t index,
                             std::function<T()> fn) {
  if (overlap && index > 0) {
    return TaskHandle<T>::Launch(ThreadPool::Shared(), std::move(fn));
  }
  return TaskHandle<T>::Deferred(std::move(fn));
}

/// Paging accounting of one LlmKeyScan: every page bought (round trip
/// issued), how many of those were dispatched speculatively before the
/// previous page's answer had been consumed, and how many were bought
/// past the page that terminated the scan (speculation overshoot — those
/// completions are still joined and land in the prompt-cache layer, so
/// a later scan of the same table gets them for free).
struct KeyScanStats {
  int pages = 0;
  int prefetched = 0;
  int overfetched = 0;
};

/// Leaf data access: retrieves the set of key-attribute values of `table`
/// by iterating "Return more results" prompts until the model stops
/// producing new keys (workflow: "we iterate with the prompt until we stop
/// getting new results"). An optional `filter` is pushed into the scan
/// prompt (Section 6 optimisation). Keys are deduplicated, first-seen
/// order.
///
/// One paging loop serves demand and speculative paging. Each page is one
/// BatchScheduler::CompleteOne task, and the scan keeps a window of
/// 1 + options.prefetch_pages pages in flight (a negative value counts as
/// 0). Page prompts are independent texts (page k+1's prompt does not
/// embed page k's answer), but the *termination decision* is sequential,
/// so pages are joined in page order. A page issued while no other is in
/// flight runs on the scanning thread at its Join; a page issued behind
/// others is launched on ThreadPool::Shared() (StartPhaseTask's rule) and
/// counted as prefetched. At window 1 the scan is the paper prototype's
/// ladder, call for call. At any window the surviving keys, pages bought
/// and CostMeter are identical whenever the scan terminates at the
/// max_scan_pages cap; when the model terminates it early, or a page
/// fails, the pages still in flight are joined (they bill, and their
/// completions stay in any prompt-cache decorator) and reported as
/// overfetched. A failed page returns CompleteOne's status at every
/// window. `key_limit >= 0` stops paging as soon as that many keys have
/// been scanned (the plan compiler sets it when a LIMIT provably bounds
/// the scan): the returned prefix may exceed the limit within the last
/// page but no further page round trips are issued, so a bounded scan
/// always uses a window of 1.
Result<std::vector<std::string>> LlmKeyScan(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const ExecutionOptions& options,
    const std::optional<llm::PromptFilter>& filter = std::nullopt,
    KeyScanStats* stats = nullptr, int64_t key_limit = -1);

/// Attribute-retrieval phase: fetches `column` of every entity in `keys`
/// through the batch scheduler and converts each completion to a typed
/// cell via the cleaning layer (or keeps the raw string when cleaning is
/// disabled). One value per key, in order. `provenances`, when non-null,
/// receives one record per key with the raw prompt and completion.
Result<std::vector<Value>> LlmGetAttributeBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys,
    const catalog::ColumnDef& column, const ExecutionOptions& options,
    std::vector<CellProvenance>* provenances = nullptr);

/// Selection-check phase: asks, per key, whether `filter` holds. Returns
/// one verdict per key, in order: 1/0 for yes/no and -1 when the model
/// answers "Unknown" (callers drop unknown keys, matching the
/// closed-world behaviour of a selection).
Result<std::vector<int>> LlmFilterCheckBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys, const llm::PromptFilter& filter,
    const ExecutionOptions& options);

/// Critic-verification phase (Section 6): asks, per (keys[i],
/// claimed[i]) pair, whether the claimed value of `column` is true.
/// Returns one verdict per pair: 1 (confirmed), 0 (rejected) or -1 (the
/// critic answered "Unknown" — treated as confirmation by callers, the
/// critic abstains). `keys` and `claimed` must have equal length.
Result<std::vector<int>> LlmVerifyCellBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys,
    const catalog::ColumnDef& column, const std::vector<Value>& claimed,
    const ExecutionOptions& options);

}  // namespace galois::core

#endif  // GALOIS_CORE_LLM_OPERATORS_H_
