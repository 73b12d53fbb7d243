#ifndef GALOIS_PLANNER_PLANNER_H_
#define GALOIS_PLANNER_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "sql/ast.h"

namespace galois::planner {

/// Logical operator kinds. The plan mirrors Figure 3 of the paper: leaf
/// scans over LLM-backed relations are annotated as prompt-driven key
/// retrievals; filters over LLM relations are annotated as per-key prompt
/// checks; attribute-completion nodes are injected before operators that
/// need not-yet-retrieved attributes.
enum class PlanOp {
  kScan,        // base relation access (DB instance or LLM key scan)
  kFilter,      // sigma
  kRetrieve,    // LLM attribute completion (injected node)
  kJoin,        // theta join
  kAggregate,   // gamma
  kProject,     // pi
  kSort,        // ORDER BY
  kLimit,       // LIMIT
  kDistinct,    // DISTINCT
};

const char* PlanOpName(PlanOp op);

/// One WHERE conjunct bound to an LLM scan as a per-key check prompt (or,
/// for the first one under pushdown, merged into the scan prompt). Set by
/// BindPhysicalAnnotations; the plan compiler turns each into an
/// llm::PromptFilter without re-deriving the decision.
struct ScanFilter {
  std::string column;              // catalog column name (validated)
  std::string column_description;  // catalog description, for the prompt
  std::string op;                  // =, !=, <, <=, >, >=, LIKE
  Value value;                     // literal, mirrored onto `col op value`
  const sql::Expr* conjunct = nullptr;  // the consumed WHERE conjunct
  /// Subsumption legality: true when the engine could re-evaluate this
  /// conjunct over materialised cell values (plain comparison operators
  /// whose verdict is Value::Compare-reproducible). LIKE is not — the
  /// model's pattern matching has no engine-side mirror — so a LIKE
  /// conjunct can serve from cache only as part of an identical filter.
  bool residually_checkable = false;
};

/// A node of the logical plan tree.
struct PlanNode {
  PlanOp op;
  std::vector<std::unique_ptr<PlanNode>> children;

  // kScan
  std::string table;
  std::string alias;
  bool from_llm = false;
  std::string key_column;
  /// WHERE conjuncts this scan executes through the LLM, in conjunct
  /// order (BindPhysicalAnnotations).
  std::vector<ScanFilter> scan_filters;
  /// True when scan_filters[0] is merged into the scan prompt instead of
  /// issuing per-key checks (pushdown policy, decided per scan).
  bool merge_first_filter = false;
  /// Stop key-scan paging once this many keys have been scanned; -1 means
  /// unbounded. Set only when a LIMIT provably bounds the scan (no WHERE,
  /// no joins, no sort/distinct/aggregate, no critic key rejection).
  int64_t scan_key_limit = -1;

  // kFilter / kJoin
  sql::ExprPtr predicate;
  /// True when the filter executes as per-key LLM prompts rather than on
  /// the engine (set by the optimizer for simple predicates on LLM scans).
  bool via_llm = false;
  /// True when the filter was merged into the scan prompt (pushdown).
  bool pushed_into_scan = false;
  /// The engine-side residue of a WHERE filter after
  /// BindPhysicalAnnotations moved conjuncts into scan_filters: the AND of
  /// the unconsumed conjuncts, null when everything was consumed. Only
  /// meaningful when `annotated` is set.
  sql::ExprPtr residual;
  bool annotated = false;

  // kJoin: `predicate` is the ON clause (null for a comma join). The
  // physical plan (core::PhysicalPlan::Compile) runs the join as a hash
  // join on its `a.x = b.y` conjuncts whose refs resolve into its two
  // inputs — the ON clause's own, or for a comma join the WHERE
  // residual's — with the other ON conjuncts checked per candidate pair,
  // when the predicates involved cannot fail on any row. The hash join
  // emits the rows, in the order, of the operator it replaces: CrossJoin
  // + Filter (no predicate), LeftOuterJoin (kLeft) or NestedLoopJoin,
  // which run whenever there is no usable equality. The ground-truth
  // engine (engine::ExecuteSelect) always runs those three.
  sql::JoinType join_type = sql::JoinType::kInner;

  // kRetrieve / kProject / kAggregate: column or expression lists. For
  // kProject, `columns` carries the select-item aliases ("" when none),
  // parallel to exprs.
  std::vector<std::string> columns;
  std::vector<sql::ExprPtr> exprs;

  // kAggregate: the first group_expr_count entries of `exprs` are the
  // explicit GROUP BY expressions; the rest are aggregate-bearing select
  // items.
  size_t group_expr_count = 0;

  // kSort: per-expression direction, parallel to exprs.
  std::vector<bool> descending;

  // kLimit
  int64_t limit = 0;

  /// One-line description ("Scan[LLM] city (keys via prompts)").
  std::string Describe() const;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

/// Builds the canonical logical plan for `stmt`: scans (with retrieve
/// nodes for every needed non-key attribute), filters, joins, aggregate,
/// project, sort, limit, distinct — bottom-up, unoptimised.
Result<PlanNodePtr> BuildLogicalPlan(const sql::SelectStatement& stmt,
                                     const catalog::Catalog& catalog);

/// Rewrite: marks simple comparisons over LLM scans as LLM-executed filter
/// checks (via_llm) and, when `merge_into_scan` is set, pushes the first
/// such filter into the scan prompt (Section 6's prompt-combining
/// optimisation). Returns the number of filters rewritten.
int OptimizeLlmFilters(PlanNode* root, bool merge_into_scan);

/// Knobs of BindPhysicalAnnotations, mirroring the ExecutionOptions the
/// executor will run under. Plain parameters: the planner stays below
/// core/ in the layering and must not include its options header.
struct BindingOptions {
  /// Execute simple WHERE comparisons on LLM scans as per-key check
  /// prompts (ExecutionOptions::llm_filter_checks).
  bool llm_filter_checks = true;
  /// PushdownPolicy::kAlways — always merge the first scan filter into
  /// the scan prompt.
  bool merge_filter_into_scan = false;
  /// PushdownPolicy::kAuto — merge only when the table's expected
  /// cardinality reaches auto_pushdown_min_rows.
  bool merge_filter_auto = false;
  size_t auto_pushdown_min_rows = 60;
  /// ExecutionOptions::verify_cells: the critic pass may reject scanned
  /// keys, so the first-N-keys prefix of the scan is not the first N
  /// output rows and LIMIT cannot bound paging.
  bool scan_rows_may_drop = false;
  /// Master switch for the LIMIT paging bound (on by default).
  bool bound_scan_paging_by_limit = true;
};

/// The authoritative physical-binding pass: validates every column against
/// the catalog and annotates the plan with everything the plan compiler
/// needs, so planner and executor can never disagree about pushdown or
/// consumed conjuncts (the drift the hardwired ladder had).
///
///   - splits the WHERE filter's conjuncts into per-scan ScanFilters
///     (simple `col op literal` comparisons on LLM scans, conjunct order
///     preserved; never on the NULL-padded side of a LEFT JOIN, whose
///     padded rows the conjunct must also filter) and the engine-side
///     `residual`;
///   - decides per scan whether the first filter merges into the scan
///     prompt (merge_first_filter);
///   - recomputes every Retrieve node's columns with the executor's exact
///     resolution rules — catalog-validated, key excluded, consumed filter
///     columns excluded, unqualified ambiguous refs unresolved; a `*`
///     materialises every column of the scans it names only as a select
///     item (`SELECT *`, `SELECT t.*`), while an aggregate's `*`
///     (COUNT(*)) reads no column — emitted in definition order
///     (inserting or removing Retrieve nodes as needed);
///   - derives scan_key_limit when the plan is exactly
///     Limit -> Project -> [Retrieve] -> Scan with nothing that could drop
///     or reorder rows in between (see PlanNode::scan_key_limit).
///
/// Returns the number of WHERE conjuncts consumed as scan filters.
Result<int> BindPhysicalAnnotations(PlanNode* root,
                                    const catalog::Catalog& catalog,
                                    const BindingOptions& options);

/// Pretty-prints the plan as an indented tree (Figure 3 rendering).
std::string Explain(const PlanNode& root);

/// Estimated number of prompts the plan will issue, assuming `num_keys`
/// rows per LLM scan and `page_size` keys per scan page. Used by the
/// optimizer ablations to reason about prompt budgets without running a
/// model.
int64_t EstimatePromptCount(const PlanNode& root, int64_t num_keys,
                            int64_t page_size);

}  // namespace galois::planner

#endif  // GALOIS_PLANNER_PLANNER_H_
