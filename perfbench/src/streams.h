#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "knowledge/workload.h"

namespace perfbench {

/// Seeded SQL streams. Each is a pure function of (workload, seed): the
/// program under test only ever sees the generated SQL text.

/// cold-llm: session `session`'s closed-loop stream, `passes` seeded
/// shuffles of the 46 Spider-like queries back to back.
std::vector<std::string> ColdSessionStream(
    const galois::knowledge::SpiderLikeWorkload& workload, uint64_t seed,
    int session, int passes);

/// warm-serve: one seeded shuffle of the 46 queries. The warm-up replays
/// it once in order; each measured connection replays it cyclically.
std::vector<std::string> WarmStream(
    const galois::knowledge::SpiderLikeWorkload& workload, uint64_t seed);

/// What the explore-mix generator meant a query to be. The measured cache
/// outcome is reported separately; these are the generator's targets.
enum class ExploreKind {
  kFresh,           // a string filter over country not seen before
  kFreshCityList,   // a per-country city list not seen before
  kFreshThreshold,  // a numeric threshold weaker than any before it
  kExactRepeat,     // one of the last eight queries again
  kStricter,        // a threshold stricter than the latest cached one
};
const char* ExploreKindName(ExploreKind kind);

struct ExploreQuery {
  std::string sql;
  /// "<table>|<WHERE text>": distinct filters are counted on this.
  std::string filter;
  ExploreKind kind = ExploreKind::kFresh;
};

/// Generator shares, fixed per block of kExploreBlock queries (the order
/// inside a block is seeded): 4 exact repeats (exact hits), 3 stricter
/// thresholds (subsumption hits), and 13 fresh filters (misses, 65%): 3
/// numeric thresholds, 3 per-country city lists and 7 string filters over
/// country. Every fresh query over country scans the same 48-row table
/// and every city list the same 98-row one, so the median sits among
/// misses of one cost and the p90 among the city lists.
constexpr int kExploreBlock = 20;
constexpr int kExploreExactPerBlock = 4;
constexpr int kExploreStricterPerBlock = 3;
constexpr int kExploreFreshThresholdPerBlock = 3;
constexpr int kExploreCityListPerBlock = 3;

/// explore-mix: `count` parameterised queries over the catalog's domains
/// (point lookups by key, per-country city lists, continents, numeric
/// thresholds), deterministic in `seed`.
std::vector<ExploreQuery> ExploreStream(
    const galois::knowledge::SpiderLikeWorkload& workload, uint64_t seed,
    size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
