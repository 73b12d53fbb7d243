#ifndef GALOIS_CORE_OPTIONS_H_
#define GALOIS_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/cancel.h"

namespace galois {
class PoolBudget;
}  // namespace galois

namespace galois::core {

/// When to push a selection into the leaf key-scan prompt instead of
/// issuing one filter-check prompt per key (Section 6, query
/// optimization): fewer prompts, but merged prompts answer less
/// accurately.
enum class PushdownPolicy {
  kNever,   // paper default: per-key filter-check prompts
  kAlways,  // always merge the first selection into the scan prompt
  kAuto,    // cost-based: merge only for scans expected to be large
};

const char* PushdownPolicyName(PushdownPolicy p);

/// Execution options of the Galois executor. The defaults reproduce the
/// paper's prototype; the flags exist for the Section 6 ablations and
/// extensions.
struct ExecutionOptions {
  /// Selection pushdown strategy (see PushdownPolicy).
  PushdownPolicy pushdown_policy = PushdownPolicy::kNever;

  /// kAuto pushes down only when the table's expected cardinality is at
  /// least this many rows (each avoided filter prompt is worth more on
  /// large scans, while the accuracy penalty is per-prompt).
  size_t auto_pushdown_min_rows = 60;

  /// Verify every retrieved non-NULL cell with a second critic prompt and
  /// null the cells the critic rejects (Section 6, "Knowledge of the
  /// Unknown"). Costs one extra prompt per cell.
  bool verify_cells = false;

  /// Record per-cell provenance (prompt, completion, critic verdict) in
  /// QueryOutput::trace / QueryResult::trace (Section 6, "Provenance").
  bool record_provenance = false;

  /// Issue per-key prompts (filter checks, attribute retrievals, critic
  /// verifications) as batches via LanguageModel::CompleteBatch instead of
  /// one round trip each. Answers are identical; the simulated latency
  /// drops because a batch pays one shared overhead and overlapped
  /// decoding. Off by default to mirror the paper prototype's sequential
  /// behaviour. Either way, every retrieval phase is dispatched through
  /// llm::BatchScheduler, which also dedupes repeated prompt texts within
  /// a phase (repeated keys from a join are billed once). The key scan
  /// batches too: its first round trip carries pages 0 and 1, or every
  /// page the Database's last scan of the table needed (its learned
  /// length, core::KeyScanLengths), then the pages the catalog's
  /// expected_rows predicts, the one that ends the scan included, travel
  /// in flushes that grow with the pages consumed, and the pages the scan
  /// did not need past the one that ended it still bill
  /// (core::LlmKeyScan). So a batched scan's prompts and round trips
  /// depend on the Database's earlier scans; its keys never do.
  bool batch_prompts = false;

  /// Upper bound on prompts per CompleteBatch round trip when
  /// batch_prompts is on; 0 sends each retrieval phase as a single batch
  /// (the paper's "~110 batched prompts per query" shape). Real APIs cap
  /// request sizes, so a phase of n prompts is split into
  /// ceil(n / max_batch_size) round trips — num_batches in the CostMeter
  /// grows accordingly while answers stay identical.
  size_t max_batch_size = 0;

  /// The query's budget of model round trips in flight, with
  /// batch_prompts on or off. Overlap is the default, and it needs a
  /// thread-safe stack: over a model that does not declare
  /// llm::LanguageModel::thread_safe(), core::PhysicalPlan runs the query
  /// at 1 whatever this says.
  /// Above 1, core::PhysicalPlan gives the query parallel_batches - 1
  /// slots of ThreadPool::Shared() (a PoolBudget), and every fan-out of
  /// the query takes from them:
  ///  - within a phase, its round trips (the max_batch_size chunks with
  ///    batch_prompts on, the single prompts with it off) are pulled by
  ///    the calling thread and a pool worker per slot it gets, so a
  ///    phase of n round trips takes about ceil(n / parallel_batches)
  ///    round trips of wall-clock time;
  ///  - across phases, core::PhysicalPlan overlaps what is independent:
  ///    the LLM tables of a join, and within a table the per-column
  ///    attribute -> verify chains, so wall-clock time drops from the
  ///    *sum* of the phase latencies towards the *max* along the longest
  ///    chain.
  /// A fan-out that finds no free slot runs on the thread that joins it,
  /// so the query never holds more than parallel_batches - 1 pool workers
  /// or has more than parallel_batches round trips in flight, however
  /// many tables, columns and chunks it has. At 1 every phase runs on the
  /// calling thread in the paper prototype's order; tests and benches
  /// that need that ladder pin it. Results, provenance order and the
  /// CostMeter are the same at every value. Values < 1 are treated as 1.
  int parallel_batches = 4;

  /// Run the cleaning step (Section 4, workflow step 3): normalise numeric
  /// formats, parse dates, coerce types. When off, raw completion strings
  /// are stored as-is — the ablation shows how much accuracy this loses.
  bool enable_cleaning = true;

  /// Enforce per-column domain constraints (years in [1000, 2100], ...),
  /// rejecting hallucinated out-of-range values as NULL.
  bool enforce_domains = true;

  /// Upper bound on "Return more results" pages per key scan (the paper's
  /// user-specified termination threshold alternative).
  int max_scan_pages = 64;

  /// Execute per-key selection checks with the LLM (the paper's filter
  /// operator). When false, the attribute is retrieved instead and the
  /// predicate is evaluated by the engine on the cleaned value.
  bool llm_filter_checks = true;

  /// Per-phase model routing: maps a retrieval phase ("key-scan",
  /// "filter-check", "attribute", "verify"/"critic", "freeform") to a
  /// backend name. Consumed by whoever assembles the model stack (eval
  /// harness, shell, examples): they register backends on an
  /// llm::ModelRouter and feed this map to ConfigureRoutes, so e.g.
  /// critic verification runs on a strong model while bulk retrieval
  /// runs on a cheap one (the cascade configuration of Section 6's cost
  /// discussion). Phases not listed use the router's default backend.
  /// Empty (default) means no routing — a single model serves every
  /// phase. In the eval harness, backend names are model profile names
  /// ("flan", "chatgpt", ...).
  std::map<std::string, std::string> phase_models;

  /// Per-query wall-clock budget in milliseconds; 0 disables. Enforced
  /// cooperatively: `Session::Query` arms a CancelState with this budget
  /// at query entry, the batch scheduler refuses to start new round
  /// trips once it fires, and the executor stops between phases. Work
  /// already in flight completes (and bills).
  int64_t query_deadline_ms = 0;

  /// Runtime cancellation/deadline token for the query this options
  /// snapshot executes. Not a tuning knob: Session::Query fills it from
  /// query_deadline_ms (or the caller's token) per query; it is excluded
  /// from ToString and from the materialisation-cache fingerprint. Null
  /// means not cancellable.
  CancelToken control;

  /// The running query's pool slots, shared by all its fan-outs (see
  /// parallel_batches). Not a tuning knob either: core::PhysicalPlan
  /// creates it per query, once it has fitted parallel_batches to the
  /// model, and like `control` it is excluded from ToString and from the
  /// materialisation-cache fingerprint. Null outside a running plan.
  std::shared_ptr<PoolBudget> budget;

  std::string ToString() const;
};

}  // namespace galois::core

#endif  // GALOIS_CORE_OPTIONS_H_
