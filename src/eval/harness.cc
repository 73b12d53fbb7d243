#include "eval/harness.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "api/database.h"
#include "engine/executor.h"
#include "qa/qa_baseline.h"
#include "sql/parser.h"

namespace galois::eval {

Result<std::vector<QueryOutcome>> RunExperiment(
    const knowledge::SpiderLikeWorkload& workload,
    const llm::ModelProfile& profile, const ExperimentConfig& config) {
  // The whole wiring — base model, per-phase routed models sharing the
  // run's seed and world, materialisation cache — is the Database
  // builder's job now. Routed profiles are resolved here (backend names
  // in phase_models are model profile names); a route that points at the
  // base profile aliases the base backend, so cost() never double-counts.
  DatabaseOptions db_options;
  db_options.workload = &workload;
  db_options.llm_seed = config.llm_seed;
  db_options.execution = config.options;
  db_options.enable_materialisation_cache = config.use_materialisation_cache;
  // A persistent store needs a PromptCache per backend to capture the
  // completions it journals (and to have something to warm-start into).
  const bool persist = !config.store_path.empty();
  db_options.store.path = config.store_path;

  BackendSpec base;
  base.name = profile.name;
  base.simulated = profile;
  base.prompt_cache = persist;
  db_options.backends.push_back(std::move(base));
  db_options.default_backend = profile.name;
  for (const auto& [phase, target] : config.options.phase_models) {
    (void)phase;
    if (db_options.HasBackend(target)) continue;
    GALOIS_ASSIGN_OR_RETURN(llm::ModelProfile routed,
                            llm::ModelProfile::ByName(target));
    BackendSpec spec;
    spec.name = target;
    spec.simulated = std::move(routed);
    spec.prompt_cache = persist;
    db_options.backends.push_back(std::move(spec));
  }

  GALOIS_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Open(std::move(db_options)));
  Session session = db->CreateSession();

  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(workload.queries().size());
  for (const knowledge::QuerySpec& query : workload.queries()) {
    QueryOutcome outcome;
    outcome.query_id = query.id;
    outcome.query_class = query.query_class;

    // Ground truth R_D from the relational engine over the instances.
    GALOIS_ASSIGN_OR_RETURN(
        Relation rd, engine::ExecuteSql(query.sql, workload.catalog()));
    outcome.rd_rows = rd.NumRows();

    if (config.run_galois) {
      GALOIS_ASSIGN_OR_RETURN(QueryResult rm, session.Query(query.sql));
      outcome.galois_wall_ms = rm.wall_ms;
      outcome.rm_rows = rm.relation.NumRows();
      outcome.cardinality_diff_percent =
          CardinalityDiffPercent(rd.NumRows(), rm.relation.NumRows());
      outcome.galois_match = MatchCells(rd, rm.relation);
      outcome.galois_cost = std::move(rm.cost);
      static_cast<core::QueryCounters&>(outcome) = rm;
    }
    if (config.run_nl_qa) {
      GALOIS_ASSIGN_OR_RETURN(
          qa::QaResult nl,
          qa::RunNlQuestion(db->model(), query, rd.schema()));
      outcome.nl_match = MatchCells(rd, nl.relation);
    }
    if (config.run_cot_qa) {
      GALOIS_ASSIGN_OR_RETURN(
          qa::QaResult cot,
          qa::RunChainOfThought(db->model(), query, rd.schema()));
      outcome.cot_match = MatchCells(rd, cot.relation);
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

double AverageCardinalityDiff(const std::vector<QueryOutcome>& outcomes) {
  double sum = 0.0;
  size_t count = 0;
  for (const QueryOutcome& o : outcomes) {
    // "averaged over all queries with non-empty results".
    if (o.rd_rows == 0 || !o.cardinality_diff_percent.has_value()) {
      continue;
    }
    sum += *o.cardinality_diff_percent;
    ++count;
  }
  if (count == 0) return 0.0;
  return sum / static_cast<double>(count);
}

double Table2Average(const std::vector<QueryOutcome>& outcomes,
                     Method method,
                     std::optional<knowledge::QueryClass> cls) {
  double sum = 0.0;
  size_t count = 0;
  for (const QueryOutcome& o : outcomes) {
    if (cls.has_value() && o.query_class != *cls) continue;
    const std::optional<CellMatchResult>* match = nullptr;
    switch (method) {
      case Method::kGalois:
        match = &o.galois_match;
        break;
      case Method::kNlQa:
        match = &o.nl_match;
        break;
      case Method::kCotQa:
        match = &o.cot_match;
        break;
    }
    if (!match->has_value()) continue;
    sum += (*match)->Percent();
    ++count;
  }
  if (count == 0) return 0.0;
  return sum / static_cast<double>(count);
}

}  // namespace galois::eval
