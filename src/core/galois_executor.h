#ifndef GALOIS_CORE_GALOIS_EXECUTOR_H_
#define GALOIS_CORE_GALOIS_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/options.h"
#include "core/provenance.h"
#include "llm/language_model.h"
#include "sql/ast.h"
#include "types/relation.h"

namespace galois::core {

class MaterialisationCache;

/// The per-query counters that say where a query's LLM cost was avoided,
/// declared once. Every carrier takes this block as a public base —
/// QueryOutput (and through it galois::QueryResult),
/// net::PartialQueryResponse, net::ServerStats and eval::QueryOutcome —
/// so copying it is one base assignment, summing it is one `+=`, and the
/// GALP codec writes it through one helper pair. This is the one place
/// to add a per-query counter.
///
/// Materialisation-cache traffic, all 0 when no cache is attached:
/// `table_cache_lookups` counts the LLM tables looked up and
/// `table_cache_hits` those served without any LLM round trip. Hits split
/// by kind: `table_cache_exact_hits` matched the (base key, predicate
/// descriptor) pair byte-for-byte; `table_cache_subsumption_hits` were
/// served from an entry cached under a weaker filter, with the residual
/// conjuncts re-applied in memory (still zero LLM round trips).
/// `table_cache_store_hits` counts the hits served by entries the cache
/// warm-started from the persistent store — tables this *process* never
/// paid for; prompt-level store hits are in llm::CostMeter::store_hits.
///
/// Sized key-scan paging (core::LlmKeyScan), both 0 with batch_prompts
/// off: `scan_pages_prefetched` counts every page the scans sent in
/// batched flushes, pages 0-1 of each scan's first round trip included,
/// and `scan_pages_overfetched` the subset the scans did not consume,
/// past the page that terminated each (paid for, parked in the prompt
/// cache).
struct QueryCounters {
  int64_t table_cache_lookups = 0;
  int64_t table_cache_hits = 0;
  int64_t table_cache_exact_hits = 0;
  int64_t table_cache_subsumption_hits = 0;
  int64_t table_cache_store_hits = 0;
  int64_t scan_pages_prefetched = 0;
  int64_t scan_pages_overfetched = 0;

  QueryCounters& operator+=(const QueryCounters& other) {
    table_cache_lookups += other.table_cache_lookups;
    table_cache_hits += other.table_cache_hits;
    table_cache_exact_hits += other.table_cache_exact_hits;
    table_cache_subsumption_hits += other.table_cache_subsumption_hits;
    table_cache_store_hits += other.table_cache_store_hits;
    scan_pages_prefetched += other.scan_pages_prefetched;
    scan_pages_overfetched += other.scan_pages_overfetched;
    return *this;
  }
};
static_assert(sizeof(QueryCounters) == 7 * sizeof(int64_t),
              "a new counter must be summed in QueryCounters::operator+= "
              "and keyed in the GALP codec (net/protocol.cc)");

/// Everything one query execution produced, as a self-contained value:
/// the relation plus the query's own cost meter, provenance trace,
/// physical-plan report and counters. Returned by GaloisExecutor::Run;
/// the public galois::QueryResult is this plus the measured wall clock.
/// Because the result is a value (not accessors on the executor),
/// concurrent queries against one executor can never read each other's
/// measurements.
struct QueryOutput : QueryCounters {
  Relation relation;

  /// Exactly this query's LLM spend (per-backend breakdown included),
  /// attributed per round trip through a per-query llm::CostTap —
  /// correct even when other queries bill the same shared model stack
  /// concurrently.
  llm::CostMeter cost;

  /// Per-cell provenance; populated only when
  /// ExecutionOptions::record_provenance is set.
  ExecutionTrace trace;

  /// Rendering of the executed physical operator DAG with per-operator
  /// rows / round trips / cost (PhysicalPlan::Render) — what the shell's
  /// `.explain` shows for the last query.
  std::string physical_plan;
};

/// One LLM base table of a compiled plan, described precisely enough for
/// a cluster coordinator to dispatch its materialisation to another node
/// — and for that node to prove it compiled the *same* shard before
/// spending a single prompt. Everything that decides what the
/// materialisation produces is captured: the catalog table, the FROM
/// alias (which qualifies the output schema), the needed non-key columns
/// in definition order (the key column is implied, and always first in
/// the materialised relation), and the canonical predicate descriptor
/// (PredicateDescriptor::Encode() bytes — pushed/checked conjuncts plus
/// the LIMIT paging bound). A byte-for-byte match means coordinator and
/// node agree on catalog and planner version; a mismatch is version
/// skew, a deterministic error.
struct ShardSpec {
  std::string table;
  std::string alias;
  std::vector<std::string> columns;
  std::string descriptor;
};

/// A pre-materialised base table injected into execution in place of the
/// engine's own LLM materialisation — the gather half of scatter-gather.
/// The relation must be shaped exactly as MaterialiseLlm produces it:
/// alias-qualified key column first, then the needed columns in
/// definition order. Execution checks that shape (join keys are column
/// positions compiled against it) and fails with kInvalidArgument,
/// naming the alias, on any other.
struct TableOverlay {
  std::string alias;
  Relation relation;
};

/// A shard execution request as a cluster node receives it off the wire:
/// the shard spec to validate the local plan against, and the full query
/// (the node re-plans it against its own catalog).
struct ShardRequest : ShardSpec {
  std::string sql;
};

/// The Galois executor (the paper's primary contribution, Section 4).
///
/// Executes SPJA SQL where some or all base relations live in a language
/// model. Execution is plan-driven end to end: Run parses the statement,
/// builds the logical plan (planner::BuildLogicalPlan), annotates it with
/// the physical decisions (planner::BindPhysicalAnnotations — pushdown,
/// consumed conjuncts, retrieve columns, the LIMIT paging bound), and
/// compiles it into a physical operator DAG (core/physical_plan) whose
/// stages decompose the task chain-of-thought style:
///
///   1. leaf access — retrieve the key-attribute values of each LLM table
///      with iterative key-scan prompts (bounded by LIMIT when the plan
///      proves that safe);
///   2. selection — simple predicates on LLM tables become per-key
///      filter-check prompts (or are pushed into the scan prompt when the
///      pushdown optimisation is on);
///   3. attribute completion — every non-key attribute the rest of the
///      plan needs is retrieved with one prompt per (key, attribute) and
///      cleaned into a typed cell;
///   4. relational tail — joins, aggregates, ORDER BY etc. run on the
///      classic engine over the materialised tuples ("traditional
///      algorithms for any operator involving attributes that have already
///      been retrieved").
///
/// The planner is the single source of truth for what executes where:
/// the executor never re-derives pushdown or column decisions (the
/// hardwired pre-plan ladder that did is retired).
///
/// Hybrid queries mix `LLM.` and `DB.` tables: DB tables are read from the
/// catalog instances, exactly like the intro's
/// `SELECT c.GDP, AVG(e.salary) FROM LLM.country c, DB.Employees e ...`.
///
/// With ExecutionOptions::parallel_batches > 1 (the default) over a model
/// stack that declares thread_safe(), the DAG's independent phases
/// overlap: LLM tables materialise concurrently, within one table the
/// needed-column attribute -> verify chains run concurrently, and within
/// a phase several round trips are in flight, never more than
/// parallel_batches for the whole query. At 1, or over a serial stack,
/// they run one after another in the paper prototype's order.
/// Results, provenance order and cost accounting are the same either way
/// (see PhysicalPlan). A MaterialisationCache attached via
/// set_materialisation_cache adds cross-query reuse on top: a table is
/// served with zero LLM round trips when its (base key, predicate
/// descriptor) pair — definition, result-affecting options, model, plus
/// the canonicalised pushed conjuncts and paging bound — was already
/// materialised, either exactly, by projection from a wider cached
/// column set, or by predicate subsumption from an entry cached under a
/// weaker filter (the residual conjuncts re-applied in memory and
/// billed as a residual-filter operator in the explain DAG).
///
/// Threading model: the executor is immutable after setup (construction
/// plus an optional set_materialisation_cache). Run/Execute are const,
/// compile a fresh physical plan per call, and keep all per-query state —
/// meter, trace, operator stats, cache counters — in that plan and the
/// returned QueryOutput, so one executor instance may run any number of
/// queries concurrently from different threads. This is the engine
/// beneath galois::Database / galois::Session (src/api/database.h), which
/// is the intended public entry point; the executor remains available for
/// tests and benches that drive the engine directly.
class GaloisExecutor {
 public:
  /// `model` and `catalog` must outlive the executor. `options` are fixed
  /// for the executor's lifetime — per-query variation is the Session's
  /// job (it snapshots its options into a fresh executor per query).
  GaloisExecutor(llm::LanguageModel* model,
                 const catalog::Catalog* catalog,
                 ExecutionOptions options = ExecutionOptions());

  /// Parses and executes `sql`, returning the self-contained result.
  /// Thread-safe: may be called concurrently with itself.
  Result<QueryOutput> RunSql(const std::string& sql) const;

  /// Executes a parsed statement.
  Result<QueryOutput> Run(const sql::SelectStatement& stmt) const;

  /// Relation-only conveniences for callers that need no measurements.
  Result<Relation> ExecuteSql(const std::string& sql) const;
  Result<Relation> Execute(const sql::SelectStatement& stmt) const;

  /// Compiles `sql` and lists its LLM base tables as shard specs, in
  /// FROM order — the scatter plan a cluster coordinator dispatches.
  /// Empty when the query touches no LLM table (run it locally).
  /// Thread-safe, spends nothing.
  Result<std::vector<ShardSpec>> PlanShards(const std::string& sql) const;

  /// Executes exactly one shard of `request.sql`: re-plans the query,
  /// validates the compiled shard under `request.alias` against the
  /// request's table/columns/descriptor (mismatch = version skew,
  /// kInvalidArgument, nothing spent), and materialises that single
  /// table through the same table step, materialisation cache included,
  /// as a whole query. The output's relation is the shard's materialised
  /// table; cost is exactly the shard's spend.
  Result<QueryOutput> RunShard(const ShardRequest& request) const;

  /// Executes `sql` with the given tables pre-materialised: overlaid
  /// aliases skip their LLM materialisation (and the cache) entirely and
  /// cost nothing; everything else — DB tables, non-overlaid LLM tables,
  /// the whole relational tail — runs as usual. The coordinator's merge
  /// step: with every LLM table overlaid, the run spends zero prompts.
  /// An overlay not shaped as its table's materialisation (see
  /// TableOverlay) fails the query with kInvalidArgument.
  Result<QueryOutput> RunSqlWithOverlays(
      const std::string& sql, std::vector<TableOverlay> overlays) const;

  const ExecutionOptions& options() const { return options_; }

  /// Attaches a cross-query materialisation cache (nullptr detaches).
  /// Non-owning; the cache is thread-safe and may be shared by several
  /// executors. Setup-time only: do not call with queries in flight.
  /// Bypassed while options().record_provenance is on (a cache hit
  /// cannot replay per-cell prompt traces).
  void set_materialisation_cache(MaterialisationCache* cache) {
    materialisation_cache_ = cache;
  }
  MaterialisationCache* materialisation_cache() const {
    return materialisation_cache_;
  }

 private:
  /// The one execution step behind Run, RunShard and RunSqlWithOverlays:
  /// bills through a fresh per-query CostTap, checks for cancellation,
  /// compiles `stmt` (build -> bind -> compile), then executes the whole
  /// plan over `overlays` and renders it — or, when `shard` is set, only
  /// that shard's table. Fills QueryOutput::cost from the tap.
  Result<QueryOutput> CompileAndExecute(const sql::SelectStatement& stmt,
                                        const ShardSpec* shard,
                                        std::vector<TableOverlay> overlays)
      const;

  llm::LanguageModel* model_;
  const catalog::Catalog* catalog_;
  ExecutionOptions options_;
  MaterialisationCache* materialisation_cache_ = nullptr;
};

}  // namespace galois::core

#endif  // GALOIS_CORE_GALOIS_EXECUTOR_H_
