#ifndef GALOIS_EVAL_HARNESS_H_
#define GALOIS_EVAL_HARNESS_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/galois_executor.h"
#include "eval/metrics.h"
#include "knowledge/workload.h"
#include "llm/model_profile.h"

namespace galois::eval {

/// What to run for each query.
struct ExperimentConfig {
  bool run_galois = true;        // R_M
  bool run_nl_qa = false;        // T_M
  bool run_cot_qa = false;       // T^C_M
  core::ExecutionOptions options;
  uint64_t llm_seed = 7;

  /// Share one core::MaterialisationCache across the workload's queries:
  /// a table materialisation computed for one query serves every later
  /// query with the same fingerprint (incl. narrower column sets), with
  /// zero LLM round trips. Per-query traffic lands in
  /// QueryOutcome::table_cache_{lookups,hits}.
  bool use_materialisation_cache = false;

  /// Directory of a persistent result store (store::ResultStore). When
  /// non-empty, the run journals its materialisations and prompt
  /// completions there (every backend gets a PromptCache so completions
  /// are captured), and a later run pointed at the same path warm-starts
  /// from it — the cross-*process* version of use_materialisation_cache.
  std::string store_path;
};

/// Per-query measurements. The core::QueryCounters base holds the Galois
/// run's counters (the cache counters need the materialisation cache, the
/// scan-page counters batch_prompts, the store hits store_path).
struct QueryOutcome : core::QueryCounters {
  int query_id = 0;
  knowledge::QueryClass query_class = knowledge::QueryClass::kSelection;
  size_t rd_rows = 0;

  // Galois (R_M).
  std::optional<size_t> rm_rows;
  std::optional<double> cardinality_diff_percent;
  std::optional<CellMatchResult> galois_match;
  llm::CostMeter galois_cost;
  /// Measured wall-clock time of the Galois run. Unlike
  /// galois_cost.simulated_latency_ms (the modelled API latency, which is
  /// invariant under parallel_batches), this shrinks when round trips
  /// overlap — the pair shows how much of the simulated budget
  /// concurrency actually recovers.
  double galois_wall_ms = 0.0;

  // Baselines.
  std::optional<CellMatchResult> nl_match;
  std::optional<CellMatchResult> cot_match;
};

/// Runs the workload for one model profile and collects the measurements
/// that Tables 1 and 2 aggregate.
Result<std::vector<QueryOutcome>> RunExperiment(
    const knowledge::SpiderLikeWorkload& workload,
    const llm::ModelProfile& profile, const ExperimentConfig& config);

/// Table 1 aggregate: average cardinality-difference percent over queries
/// with non-empty ground truth.
double AverageCardinalityDiff(const std::vector<QueryOutcome>& outcomes);

/// Which accessor to average in Table2Average.
enum class Method { kGalois, kNlQa, kCotQa };

/// Table 2 aggregate: mean cell-match percent for a method over one query
/// class ("All" = std::nullopt).
double Table2Average(const std::vector<QueryOutcome>& outcomes,
                     Method method,
                     std::optional<knowledge::QueryClass> cls);

}  // namespace galois::eval

#endif  // GALOIS_EVAL_HARNESS_H_
