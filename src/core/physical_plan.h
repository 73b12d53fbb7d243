#ifndef GALOIS_CORE_PHYSICAL_PLAN_H_
#define GALOIS_CORE_PHYSICAL_PLAN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "core/galois_executor.h"
#include "core/llm_operators.h"
#include "core/materialisation_cache.h"
#include "core/options.h"
#include "core/provenance.h"
#include "engine/operators.h"
#include "engine/relational_stages.h"
#include "llm/language_model.h"
#include "llm/metering.h"
#include "llm/prompt.h"
#include "planner/planner.h"

namespace galois::core {

/// The planner::BindingOptions implied by an ExecutionOptions snapshot —
/// the one translation point between the executor's knobs and the
/// annotation pass, so the two layers cannot drift apart.
planner::BindingOptions BindingOptionsFor(const ExecutionOptions& options);

/// Execution statistics of one physical operator, filled in by
/// PhysicalPlan::Execute and rendered by Render / the shell's `.explain`.
struct OperatorStats {
  /// The operator ran (a phase skipped because an earlier phase failed or
  /// because the whole table came from the materialisation cache stays
  /// false).
  bool executed = false;
  /// The operator's table was served by the materialisation cache: zero
  /// LLM round trips, rows from the cached materialisation.
  bool from_cache = false;
  /// The operator's table was served by a remote shard (cluster
  /// scatter-gather): zero local LLM round trips, rows from the gathered
  /// partial relation. The remote node's spend is aggregated into the
  /// query meter by the coordinator, not attributed to this node.
  bool from_remote = false;
  /// Output rows of the operator; -1 when it never produced any.
  int64_t rows = -1;
  /// LLM round trips this operator issued: batch round trips (falling
  /// back to prompt count under sequential dispatch), or for a key scan
  /// KeyScanStats::round_trips(), where pages may share a round trip.
  int64_t round_trips = 0;
  /// Exactly this operator's LLM spend, attributed through a nested
  /// per-operator llm::CostTap. All-zero for relational operators.
  llm::CostMeter cost;
};

/// A node of the physical operator DAG. Labels are display strings
/// ("FilterCheck c.population > 1000000 (one prompt per surviving key)");
/// children are non-owning pointers into the plan's node arena.
struct PhysicalNode {
  std::string label;
  std::vector<PhysicalNode*> children;
  OperatorStats stats;
};

/// The compiled physical form of one annotated logical plan: a DAG whose
/// LLM-backed leaves (key scan, key critic, filter checks, attribute
/// retrieval, cell critic) wrap the prompt-issuing operators in
/// core/llm_operators, and whose relational tail (joins, residual filter,
/// aggregation, fused HAVING+projection, sort, distinct, limit) runs the
/// exact stages in engine/relational_stages that the statement-driven
/// executor runs.
///
/// Joins are the one place the two paths differ in algorithm, not in
/// result: Compile moves each `a.x = b.y` conjunct whose refs resolve into
/// the two inputs of a join — from the WHERE residual onto a comma join,
/// or from an explicit join's ON clause — onto that join, which then runs
/// as engine::HashJoin. It emits the same rows in the same order as the
/// cross join + filter or nested loop it replaces. Only predicates that
/// cannot fail on any row (engine::EvalCannotFail) give up keys, so
/// skipping the pairs the hash join never forms cannot hide an error.
///
/// Compile() lowers a logical plan that has been through
/// planner::BindPhysicalAnnotations — the single source of truth for
/// pushdown, consumed conjuncts, retrieve columns and the LIMIT paging
/// bound. Execute() materialises every base table (through the
/// materialisation cache when attached), runs the relational tail, and
/// records per-operator statistics on the DAG. Render() pretty-prints
/// the DAG with those statistics.
///
/// Materialisation has one code path, MaterialiseAll, which
/// ExecuteShard runs for its one table. Each pending LLM table, and within
/// it each needed column's attribute -> verify chain, is one phase task,
/// joined in FROM and column order. A query gets one PoolBudget of
/// parallel_batches - 1 slots of ThreadPool::Shared(), which its phase
/// tasks and the round trips of its phases all take from. With
/// parallel_batches > 1, over a model that declares thread_safe(), the
/// tasks overlap: the first of each group runs on the joining thread and
/// each other one on a pool worker when it takes a slot (StartPhaseTask
/// in physical_plan.cc), so the query never has more than
/// parallel_batches model calls in flight. At 1, or over a serial model,
/// there is no slot and each task runs when joined, on the calling
/// thread, so the prompts go out in the paper prototype's ladder order:
/// tables in FROM order; within a table the scan pages, key verification
/// and filter checks, then attribute and verify for each column in turn.
/// Either way the first failing task in that order supplies the error,
/// and tasks not yet started when it surfaces never run.
///
/// One PhysicalPlan executes one query: GaloisExecutor::Run compiles a
/// fresh plan per call, so executor-level thread-safety is preserved
/// (nothing per-query ever lands on the executor).
class PhysicalPlan {
 public:
  /// Lowers `plan` (annotated, see above) against `catalog`. The plan
  /// tree is owned by the returned PhysicalPlan — the compiled spec keeps
  /// borrowing views into its expressions.
  static Result<PhysicalPlan> Compile(planner::PlanNodePtr plan,
                                      const catalog::Catalog* catalog,
                                      const ExecutionOptions& options);

  PhysicalPlan(PhysicalPlan&&) = default;
  PhysicalPlan& operator=(PhysicalPlan&&) = default;

  /// Runs the plan to completion against `model` (the query's CostTap —
  /// every prompt of every operator bills through it), an optional
  /// materialisation cache and optional learned key-scan lengths, which
  /// size the plan's batched key scans and learn from them (see
  /// LlmKeyScan). Returns the relation, provenance trace and
  /// cache counters; QueryOutput::cost and ::physical_plan are the
  /// caller's to fill (it owns the tap and the render timing). Call at
  /// most once per compiled plan.
  ///
  /// This is where a query's options meet its model. When `model` does
  /// not declare thread_safe(), the plan runs at parallel_batches 1,
  /// whatever the options say, so the model is called from this thread,
  /// one call at a time, in ladder order. Then the query gets its budget
  /// of parallel_batches - 1 pool slots (ExecutionOptions::budget).
  /// ExecuteShard does the same.
  Result<QueryOutput> Execute(llm::LanguageModel* model,
                              MaterialisationCache* cache,
                              KeyScanLengths* scan_lengths = nullptr);

  /// Lists the plan's LLM base tables as shard specs, in FROM order
  /// (see ShardSpec in galois_executor.h).
  std::vector<ShardSpec> LlmShards() const;

  /// Injects pre-materialised tables (matched by FROM alias) that
  /// Execute uses in place of the engine's own LLM materialisation.
  /// Overlaid tables spend nothing and bypass the materialisation cache;
  /// one whose schema is not GroupSchema's fails Execute with
  /// kInvalidArgument. Call before Execute.
  void SetOverlays(std::vector<TableOverlay> overlays);

  /// Executes exactly one shard: validates the compiled group aliased
  /// `shard.alias` against the shard's spec, then materialises that
  /// group through the same table step as Execute (cache and scan
  /// lengths included), and nothing else. See GaloisExecutor::RunShard.
  Result<QueryOutput> ExecuteShard(const ShardSpec& shard,
                                   llm::LanguageModel* model,
                                   MaterialisationCache* cache,
                                   KeyScanLengths* scan_lengths);

  /// Indented tree rendering with per-operator statistics, e.g.
  ///   Limit 5  [rows=5]
  ///     Project [name]  [rows=5]
  ///       Retrieve c.{population} (...)  [rows=5, round trips=1, ...]
  std::string Render() const;

  const PhysicalNode* root() const { return root_; }

 private:
  /// One base relation of the FROM clause with everything its
  /// materialisation needs, compiled straight from the annotated scan
  /// node (no re-derivation).
  struct TableGroup {
    const planner::PlanNode* scan = nullptr;
    const catalog::TableDef* def = nullptr;
    std::string alias;
    bool from_llm = false;
    /// Non-key columns to retrieve, in definition order.
    std::vector<const catalog::ColumnDef*> needed_columns;
    /// Predicates executed through the LLM, in conjunct order.
    std::vector<llm::PromptFilter> llm_filters;
    /// llm_filters[0] merges into the scan prompt (pushdown).
    bool push_first_filter = false;
    /// LIMIT-derived paging bound (-1 unbounded).
    int64_t key_limit = -1;
    /// The structured predicate half of the materialisation-cache key,
    /// compiled (and canonicalised) from the annotated scan filters —
    /// what predicate-subsumption lookups reason over.
    PredicateDescriptor descriptor;
    /// Key-scan paging outcome (pages bought, pages flushed, their
    /// batches and the pages overfetched), filled by MaterialiseLlm and
    /// aggregated into QueryOutput by MaterialiseAll.
    KeyScanStats scan_stats;

    // Stats targets; null when the phase does not exist for this group.
    PhysicalNode* scan_node = nullptr;
    PhysicalNode* key_verify_node = nullptr;
    std::vector<PhysicalNode*> check_nodes;  // per non-merged filter
    PhysicalNode* retrieve_node = nullptr;
    PhysicalNode* cell_verify_node = nullptr;
    PhysicalNode* top = nullptr;  // root of this group's subtree
  };

  /// A join step in execution (bottom-up, FROM/JOIN) order. With keys it
  /// runs as engine::HashJoin; otherwise as CrossJoin (no predicate),
  /// LeftOuterJoin or NestedLoopJoin on the logical join's predicate.
  struct JoinStep {
    const planner::PlanNode* logical = nullptr;
    PhysicalNode* node = nullptr;
    std::vector<engine::JoinKey> keys;
    /// The ON conjuncts that are not keys, checked per candidate pair;
    /// null when there are none.
    sql::ExprPtr extra;
  };

  PhysicalPlan() = default;

  PhysicalNode* NewNode(std::string label);

  /// Splices a residual-filter operator above `group`'s subtree after a
  /// predicate-subsumption cache hit, so Explain shows the in-memory
  /// conjunct re-check (and its row reduction) as a first-class
  /// operator.
  void InsertResidualNode(TableGroup& group,
                          const MaterialisationLookupInfo& info);

  /// The schema of `group`'s materialised relation, qualified by its
  /// alias: every column of a DB table; the key, then needed_columns, of
  /// an LLM table. Join keys are resolved against it at compile time.
  static Result<Schema> GroupSchema(const TableGroup& group);

  Result<Relation> MaterialiseDb(TableGroup& group);
  Result<Relation> MaterialiseLlm(TableGroup& group,
                                  llm::LanguageModel* model,
                                  KeyScanLengths* scan_lengths,
                                  ExecutionTrace* trace);
  /// The table step: materialises groups_[i] for each i in `groups`
  /// (an overlay, a DB instance, a cache hit or the LLM phases) and
  /// returns the relations in that order. Execute passes every group,
  /// ExecuteShard the one it validated.
  Result<std::vector<Relation>> MaterialiseAll(
      const std::vector<size_t>& groups, llm::LanguageModel* model,
      MaterialisationCache* cache, KeyScanLengths* scan_lengths,
      QueryOutput* out);

  planner::PlanNodePtr plan_;  // owns every expression the spec borrows
  const catalog::Catalog* catalog_ = nullptr;
  ExecutionOptions options_;

  std::deque<PhysicalNode> nodes_;  // arena; addresses stable
  PhysicalNode* root_ = nullptr;

  std::vector<TableGroup> groups_;  // FROM order
  std::vector<JoinStep> joins_;     // execution order (groups_[i+1] joins)

  /// Pre-materialised tables by alias (SetOverlays); consumed by
  /// MaterialiseAll in place of the matching group's LLM phases.
  std::vector<TableOverlay> overlays_;

  /// Engine-side WHERE residue (null when fully consumed by scan filters
  /// and join keys) and its node. Points into the logical plan, or at
  /// residual_storage_ when join keys were taken out of it.
  const sql::Expr* residual_ = nullptr;
  sql::ExprPtr residual_storage_;
  PhysicalNode* filter_node_ = nullptr;

  engine::TailSpec spec_;  // views into plan_'s expressions
  PhysicalNode* aggregate_node_ = nullptr;
  PhysicalNode* having_node_ = nullptr;
  PhysicalNode* project_node_ = nullptr;
  PhysicalNode* sort_node_ = nullptr;
  PhysicalNode* distinct_node_ = nullptr;
  PhysicalNode* limit_node_ = nullptr;
  int64_t limit_value_ = -1;
};

}  // namespace galois::core

#endif  // GALOIS_CORE_PHYSICAL_PLAN_H_
