#ifndef GALOIS_EVAL_METRICS_H_
#define GALOIS_EVAL_METRICS_H_

#include <cstddef>

#include "llm/language_model.h"
#include "types/relation.h"

namespace galois::eval {

/// The paper's cardinality ratio f = |2*R_D| / (|R_D| + |R_M|), in [0, 2];
/// f == 1 when the cardinalities match (Section 5, Evaluation 1).
double CardinalityRatio(size_t rd_rows, size_t rm_rows);

/// Table 1's reported quantity: (1 - f) as a percentage. Negative when the
/// method returns fewer rows than the ground truth, positive when it
/// over-generates.
double CardinalityDiffPercent(size_t rd_rows, size_t rm_rows);

/// Relative numeric tolerance of the content analysis: "a numerical value
/// is correct if the relative error w.r.t. R_D is less than 5%".
inline constexpr double kNumericTolerance = 0.05;

/// Lenient string comparison standing in for the paper's *manual* tuple
/// mapping: case-insensitive, ignores a leading article, a disambiguating
/// ", ..." suffix ("Rome, Italy" == "Rome") and abbreviated given names
/// ("J. Smith" == "James Smith"). Note the relational engine's joins stay
/// byte-strict — that asymmetry is exactly why joins fail in Table 2 while
/// human content-grading still credits readable answers.
bool LenientStringMatch(const std::string& truth,
                        const std::string& predicted);

/// Whether a predicted cell matches a ground-truth cell: numerics within
/// 5% relative error, strings via LenientStringMatch, dates by value,
/// NULL never matches.
bool CellMatches(const Value& truth, const Value& predicted);

/// Result of aligning a predicted relation against the ground truth.
struct CellMatchResult {
  size_t matched_cells = 0;
  size_t total_cells = 0;  // rows(R_D) x columns(R_D)

  double Percent() const {
    if (total_cells == 0) return 100.0;
    return 100.0 * static_cast<double>(matched_cells) /
           static_cast<double>(total_cells);
  }
};

/// Greedy tuple mapping + cell comparison (Section 5, Evaluation 2): each
/// ground-truth row is matched to the not-yet-used predicted row with the
/// most matching cells; matched cells are counted against the total number
/// of ground-truth cells. This mechanises the paper's manual mapping.
CellMatchResult MatchCells(const Relation& truth,
                           const Relation& predicted);

/// Prompt-efficiency view of a CostMeter (Section 5's "~110 *batched*
/// prompts per query" is the paper's figure for its own query set; one
/// pass over the 46-query workload here bills 68.6 at default options):
/// how many round trips the batching layer actually paid and how much
/// the prompt cache absorbed.
struct BatchStats {
  int64_t num_prompts = 0;
  int64_t num_batches = 0;
  int64_t cache_hits = 0;

  /// Average prompts per batched round trip; 0 when nothing was batched.
  double PromptsPerBatch() const;

  /// Fraction of prompts answered from the cache, in [0, 1].
  double CacheHitRate() const;
};

BatchStats SummarizeBatching(const llm::CostMeter& cost);

/// Element-wise sum of per-query cost meters (for whole-workload totals).
llm::CostMeter TotalCost(const std::vector<llm::CostMeter>& costs);

}  // namespace galois::eval

#endif  // GALOIS_EVAL_METRICS_H_
