#include "core/galois_executor.h"

#include <utility>

#include "core/physical_plan.h"
#include "planner/planner.h"
#include "sql/parser.h"

namespace galois::core {

GaloisExecutor::GaloisExecutor(llm::LanguageModel* model,
                               const catalog::Catalog* catalog,
                               ExecutionOptions options)
    : model_(model), catalog_(catalog), options_(options) {}

Result<QueryOutput> GaloisExecutor::RunSql(const std::string& sql) const {
  GALOIS_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::ParseSelect(sql));
  return Run(stmt);
}

Result<Relation> GaloisExecutor::ExecuteSql(const std::string& sql) const {
  GALOIS_ASSIGN_OR_RETURN(QueryOutput out, RunSql(sql));
  return std::move(out).relation;
}

Result<Relation> GaloisExecutor::Execute(
    const sql::SelectStatement& stmt) const {
  GALOIS_ASSIGN_OR_RETURN(QueryOutput out, Run(stmt));
  return std::move(out).relation;
}

namespace {

/// Logical plan -> physical annotations -> physical operator DAG, the
/// compile step of every entry point. The annotation pass is the only
/// place that decides pushdown, consumed conjuncts and retrieve columns;
/// the compiler and DAG merely carry those decisions out. The logical
/// plan deep-clones every statement expression, so the returned
/// PhysicalPlan is self-contained.
Result<PhysicalPlan> Compile(const sql::SelectStatement& stmt,
                             const catalog::Catalog* catalog,
                             const ExecutionOptions& options) {
  GALOIS_ASSIGN_OR_RETURN(planner::PlanNodePtr plan,
                          planner::BuildLogicalPlan(stmt, *catalog));
  GALOIS_RETURN_IF_ERROR(
      planner::BindPhysicalAnnotations(plan.get(), *catalog,
                                       BindingOptionsFor(options))
          .status());
  return PhysicalPlan::Compile(std::move(plan), catalog, options);
}

}  // namespace

Result<std::vector<ShardSpec>> GaloisExecutor::PlanShards(
    const std::string& sql) const {
  GALOIS_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::ParseSelect(sql));
  GALOIS_ASSIGN_OR_RETURN(PhysicalPlan physical,
                          Compile(stmt, catalog_, options_));
  return physical.LlmShards();
}

Result<QueryOutput> GaloisExecutor::RunShard(
    const ShardRequest& request) const {
  GALOIS_ASSIGN_OR_RETURN(sql::SelectStatement stmt,
                          sql::ParseSelect(request.sql));
  return CompileAndExecute(stmt, &request, {});
}

Result<QueryOutput> GaloisExecutor::RunSqlWithOverlays(
    const std::string& sql, std::vector<TableOverlay> overlays) const {
  GALOIS_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::ParseSelect(sql));
  return CompileAndExecute(stmt, nullptr, std::move(overlays));
}

Result<QueryOutput> GaloisExecutor::Run(
    const sql::SelectStatement& stmt) const {
  return CompileAndExecute(stmt, nullptr, {});
}

Result<QueryOutput> GaloisExecutor::CompileAndExecute(
    const sql::SelectStatement& stmt, const ShardSpec* shard,
    std::vector<TableOverlay> overlays) const {
  // Per-query cost attribution: every round trip goes through this tap,
  // so the meter below is exactly this query's spend even when other
  // queries bill the same shared model stack concurrently.
  llm::CostTap tap(model_);
  GALOIS_RETURN_IF_ERROR(CheckCancel(options_.control));
  GALOIS_ASSIGN_OR_RETURN(PhysicalPlan physical,
                          Compile(stmt, catalog_, options_));
  physical.SetOverlays(std::move(overlays));
  GALOIS_ASSIGN_OR_RETURN(
      QueryOutput out,
      shard != nullptr
          ? physical.ExecuteShard(*shard, &tap, materialisation_cache_,
                                  scan_lengths_)
          : physical.Execute(&tap, materialisation_cache_, scan_lengths_));
  out.cost = tap.cost();
  if (shard == nullptr) out.physical_plan = physical.Render();
  return out;
}

}  // namespace galois::core
