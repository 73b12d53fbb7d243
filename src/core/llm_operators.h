#ifndef GALOIS_CORE_LLM_OPERATORS_H_
#define GALOIS_CORE_LLM_OPERATORS_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
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
/// one llm::BatchScheduler: CompleteBatch round trips split by
/// ExecutionOptions::max_batch_size when options.batch_prompts is on,
/// one Complete round trip per prompt otherwise, and up to
/// ExecutionOptions::parallel_batches of them in flight, within the
/// query's budget (ExecutionOptions::budget). All modes return identical
/// results, and every phase but the key scan issues the same
/// deduplicated prompt set in all of them; only the round trips — and,
/// with parallelism, the wall-clock time — differ. (A
/// batched key scan may also buy pages past the one that ends it, see
/// LlmKeyScan.) Each scheduler carries a phase label
/// ("filter-check:population") so a failed round trip names the phase and
/// chunk in its error message. Which phases overlap is decided one layer
/// up, by core::PhysicalPlan.

/// The scheduler dispatch policy implied by the execution options.
llm::BatchPolicy BatchPolicyFor(const ExecutionOptions& options);

/// Paging accounting of one LlmKeyScan. `pages` counts the page prompts
/// the scan sent. `flushed` counts those sent in the sized scan's
/// flushes, its first round trip included, and `batches` the
/// CompleteBatch round trips the scheduler dispatched for them.
/// `overfetched` counts the flushed pages the scan did not consume: the
/// pages past the one that ended the scan, and every page of a failed
/// flush. A failed flush counts only the pages the model's meter billed
/// for it, so over a model without a prompt cache `pages` is the meter's
/// prompt count. Overfetched pages were billed, and their completions
/// stay in any prompt-cache decorator, so a later scan of the same table
/// gets them for free. `learned` is the length, read from a
/// KeyScanLengths, that sized the scan's first round trip; 0 when no
/// earlier scan did.
struct KeyScanStats {
  int pages = 0;
  int flushed = 0;
  int batches = 0;
  int overfetched = 0;
  int learned = 0;

  /// Round trips of the scan: each page fetched on its own (the
  /// on-demand pages) and each flush batch.
  int round_trips() const { return pages - flushed + batches; }
};

/// The lengths of the sized key scans that have ended, learned from the
/// model's own answers: per table, model and max_scan_pages, the pages up
/// to and including the page that ended the latest such scan, or
/// max_scan_pages when no page did. A scan's key is what decides its
/// prompts and answers: the table's name, entity type and key column, the
/// scan model's name() and max_scan_pages. The latest length wins, so a
/// changed model costs one mis-sized scan. A galois::Database owns one and
/// hands it to every query's plan beside the materialisation cache; a
/// caller that passes none scans as if no scan had run before.
/// Thread-safe.
class KeyScanLengths {
 public:
  /// The recorded length of a scan of `table` by a model named `model`
  /// capped at `max_scan_pages`; 0 when none is recorded.
  int Find(const catalog::TableDef& table, const std::string& model,
           int max_scan_pages) const;

  /// Records `pages` as the length of that scan.
  void Record(const catalog::TableDef& table, const std::string& model,
              int max_scan_pages, int pages);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, int> pages_;
};

/// Leaf data access: retrieves the set of key-attribute values of `table`
/// by iterating "Return more results" prompts until the model stops
/// producing new keys (workflow: "we iterate with the prompt until we stop
/// getting new results"). An optional `filter` is pushed into the scan
/// prompt (Section 6 optimisation). Keys are deduplicated, first-seen
/// order.
///
/// One paging loop. Page prompts are independent texts (page k+1's
/// prompt does not embed page k's answer), but the *termination
/// decision* is sequential, so pages are consumed strictly in page order.
/// With options.batch_prompts on, the first round trip is one
/// BatchScheduler::Flush of pages 0 and 1 (the ladder buys page 1
/// whenever page 0 brings a new key), and the n new keys page 0 returns
/// size the scan: the catalog's table.expected_rows predicts
/// ceil(expected_rows / n) pages of keys and the page that ends the scan
/// (capped by max_scan_pages). Whenever the pages sent run out inside
/// that prediction, the next ones go out in one Flush, one page more than
/// the scan has consumed (pages 0-1, then 2-4, then 5-10, ...) and only
/// when that is at least two pages, chunked by max_batch_size and fanned
/// over parallel_batches like every batched phase. Any other page is
/// fetched on demand, one BatchScheduler::CompleteOne each. The scan
/// takes the paper prototype's ladder, call for call, with batch_prompts
/// off, for a `filter` scan, for a LIMIT-bounded scan and for a table
/// whose expected_rows is 0.
///
/// A sized scan over `lengths` that finds its table there, at length L,
/// sends pages 0 .. L-1 in its first round trip instead, and page 0 then
/// predicts the longer of L and the catalog's estimate; a scan that runs
/// past both goes on in the growing flushes. A sized scan that ends, the
/// failed-flush case below included, records its length in `lengths`; a
/// scan that fails or is cancelled records nothing, and unsized scans
/// neither read nor write it. So the prompts and round trips of a sized
/// scan depend on the scans before it, and its keys never do.
///
/// Either way the keys are the ladder's. A flush also buys the pages past
/// the one that ends the scan (they bill, see KeyScanStats): fewer than
/// the scan consumed, because each flush is at most one page larger than
/// the pages before it, or one page when page 0 ends the scan, and at
/// most L minus the pages consumed for a learned first round trip. A
/// failed flush, the first one included, is not the scan's error: the
/// scan goes on demand, unsized, from that flush's first page to its end,
/// so it ends with the ladder's keys or the ladder's Status, code and
/// message, and what the failed flush billed still bills. It is counted from
/// `model`'s meter, so over a model stack that other queries share pass
/// a per-scan llm::CostTap, as core::PhysicalPlan does.
/// `key_limit >= 0` stops paging as soon as that many keys have been
/// scanned (the plan compiler sets it when a LIMIT provably bounds the
/// scan): the returned prefix may exceed the limit within the last page
/// but no further page round trips are issued.
Result<std::vector<std::string>> LlmKeyScan(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const ExecutionOptions& options,
    const std::optional<llm::PromptFilter>& filter = std::nullopt,
    KeyScanStats* stats = nullptr, int64_t key_limit = -1,
    KeyScanLengths* lengths = nullptr);

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
