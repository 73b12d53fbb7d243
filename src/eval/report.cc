#include "eval/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace galois::eval {

namespace {

std::string Fixed1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f", v);
  return buf;
}

std::string Fixed0(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

}  // namespace

std::string FormatTable1(
    const std::vector<std::pair<std::string, std::vector<QueryOutcome>>>&
        per_model) {
  std::ostringstream os;
  os << "Table 1: Average cardinality difference of R_M vs |R_D| "
        "(closer to 0 is better)\n";
  os << "  Model                       Diff as % of |R_D|\n";
  for (const auto& [name, outcomes] : per_model) {
    os << "  " << name << std::string(28 - std::min<size_t>(28, name.size()), ' ')
       << Fixed1(AverageCardinalityDiff(outcomes)) << "\n";
  }
  return os.str();
}

std::string FormatTable2(const std::vector<QueryOutcome>& outcomes) {
  using knowledge::QueryClass;
  std::ostringstream os;
  os << "Table 2: Cell value matches (%) vs ground truth R_D\n";
  os << "  Method                All   Selections  Aggregates  Joins only\n";
  auto row = [&](const char* label, Method m) {
    os << "  " << label
       << Fixed0(Table2Average(outcomes, m, std::nullopt)) << "    "
       << Fixed0(Table2Average(outcomes, m, QueryClass::kSelection))
       << "          "
       << Fixed0(Table2Average(outcomes, m, QueryClass::kAggregate))
       << "          "
       << Fixed0(Table2Average(outcomes, m, QueryClass::kJoin)) << "\n";
  };
  row("R_M  (SQL Queries)    ", Method::kGalois);
  row("T_M  (NL Questions)   ", Method::kNlQa);
  row("T_C_M (NL Quest.+CoT) ", Method::kCotQa);
  return os.str();
}

std::string FormatCostStats(const std::vector<QueryOutcome>& outcomes) {
  std::ostringstream os;
  double total_prompts = 0.0;
  double total_latency_ms = 0.0;
  double total_wall_ms = 0.0;
  std::vector<llm::CostMeter> costs;
  costs.reserve(outcomes.size());
  std::vector<double> latencies;
  size_t count = 0;
  for (const QueryOutcome& o : outcomes) {
    costs.push_back(o.galois_cost);
    // Queries answered entirely from cache issue zero prompts; they stay
    // out of the per-query prompt/latency averages but keep their batch
    // and cache-hit attribution in the batching summary below.
    if (o.galois_cost.num_prompts == 0) continue;
    total_prompts += static_cast<double>(o.galois_cost.num_prompts);
    total_latency_ms += o.galois_cost.simulated_latency_ms;
    total_wall_ms += o.galois_wall_ms;
    latencies.push_back(o.galois_cost.simulated_latency_ms);
    ++count;
  }
  const llm::CostMeter totals = TotalCost(costs);
  if (count == 0 && totals.num_batches == 0 && totals.cache_hits == 0) {
    return "No cost data collected\n";
  }
  char buf[256];
  if (count == 0) {
    os << "No prompt-issuing queries (all served from cache)\n";
  }
  if (count > 0) {
    std::sort(latencies.begin(), latencies.end());
    double mean_prompts = total_prompts / static_cast<double>(count);
    double mean_latency_s = total_latency_ms / 1000.0 /
                            static_cast<double>(count);
    double median_s = latencies[latencies.size() / 2] / 1000.0;
    double p95_s =
        latencies[static_cast<size_t>(
            static_cast<double>(latencies.size() - 1) * 0.95)] /
        1000.0;
    std::snprintf(buf, sizeof(buf),
                  "Cost stats over %zu queries: avg %.0f prompts/query, "
                  "avg %.1f s/query (simulated), median %.1f s, p95 "
                  "%.1f s\n",
                  count, mean_prompts, mean_latency_s, median_s, p95_s);
    os << buf;
    if (total_wall_ms > 0.0) {
      // Measured wall clock shrinks under parallel_batches while the
      // simulated per-trip latency above stays invariant.
      std::snprintf(buf, sizeof(buf),
                    "Measured wall clock: avg %.1f ms/query\n",
                    total_wall_ms / static_cast<double>(count));
      os << buf;
    }
  }
  BatchStats batching = SummarizeBatching(totals);
  std::snprintf(buf, sizeof(buf),
                "Batching: avg %.1f batches/query (%.1f prompts/batch), "
                "cache hits %lld (%.0f%% of prompts)\n",
                static_cast<double>(batching.num_batches) /
                    static_cast<double>(outcomes.size()),
                batching.PromptsPerBatch(),
                static_cast<long long>(batching.cache_hits),
                100.0 * batching.CacheHitRate());
  os << buf;
  core::QueryCounters counters;
  for (const QueryOutcome& o : outcomes) counters += o;
  if (counters.table_cache_lookups > 0) {
    // Table-level reuse: whole materialisations served without any LLM
    // round trip (cross-query MaterialisationCache), split into exact
    // descriptor matches and predicate-subsumption serves.
    std::snprintf(buf, sizeof(buf),
                  "Materialisation cache: %lld table hits / %lld lookups "
                  "(%.0f%%), %lld exact + %lld by subsumption\n",
                  static_cast<long long>(counters.table_cache_hits),
                  static_cast<long long>(counters.table_cache_lookups),
                  100.0 * static_cast<double>(counters.table_cache_hits) /
                      static_cast<double>(counters.table_cache_lookups),
                  static_cast<long long>(counters.table_cache_exact_hits),
                  static_cast<long long>(
                      counters.table_cache_subsumption_hits));
    os << buf;
  }
  if (counters.scan_pages_prefetched > 0) {
    // Sized key scans: pages fetched ahead in flushes, and the subset
    // bought past the page that terminated its scan.
    std::snprintf(buf, sizeof(buf),
                  "Key-scan paging: %lld pages fetched ahead, %lld "
                  "overfetched\n",
                  static_cast<long long>(counters.scan_pages_prefetched),
                  static_cast<long long>(counters.scan_pages_overfetched));
    os << buf;
  }
  if (counters.table_cache_store_hits > 0 || totals.store_hits > 0) {
    // Cross-process reuse: work recovered from the persistent store —
    // this run never paid an LLM round trip for any of it.
    std::snprintf(buf, sizeof(buf),
                  "Persistent store: %lld table hits, %lld prompt hits\n",
                  static_cast<long long>(counters.table_cache_store_hits),
                  static_cast<long long>(totals.store_hits));
    os << buf;
  }
  // Per-backend spend. One line per model keeps single-backend reports
  // unchanged in shape while a cascade (critic on the strong model, bulk
  // retrieval on the cheap one) shows where the tokens actually went.
  if (totals.by_model.size() > 1) {
    os << "Per-backend spend:\n";
    for (const auto& [name, usage] : totals.by_model) {
      double share =
          totals.num_prompts > 0
              ? 100.0 * static_cast<double>(usage.num_prompts) /
                    static_cast<double>(totals.num_prompts)
              : 0.0;
      std::snprintf(buf, sizeof(buf),
                    "  %-24s %6lld prompts (%3.0f%%), %8lld prompt tok, "
                    "%8lld completion tok, %lld batches\n",
                    name.c_str(),
                    static_cast<long long>(usage.num_prompts), share,
                    static_cast<long long>(usage.prompt_tokens),
                    static_cast<long long>(usage.completion_tokens),
                    static_cast<long long>(usage.num_batches));
      os << buf;
    }
  }
  return os.str();
}

std::string FormatStoreStats(const store::StoreStats& stats) {
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "Persistent store: %lld materialisations + %lld prompts "
                "live (%lld/%lld bytes live/file)\n",
                static_cast<long long>(stats.live_materialisations),
                static_cast<long long>(stats.live_prompts),
                static_cast<long long>(stats.live_bytes),
                static_cast<long long>(stats.file_bytes));
  os << buf;
  std::snprintf(buf, sizeof(buf),
                "  recovered %lld+%lld records (%lld dropped) in %.1f ms; "
                "%lld appends (%lld errors); %lld vacuums, %lld evictions\n",
                static_cast<long long>(stats.materialisations_recovered),
                static_cast<long long>(stats.prompts_recovered),
                static_cast<long long>(stats.records_dropped),
                static_cast<double>(stats.recovery_micros) / 1000.0,
                static_cast<long long>(stats.appends),
                static_cast<long long>(stats.append_errors),
                static_cast<long long>(stats.vacuums),
                static_cast<long long>(stats.evictions));
  os << buf;
  return os.str();
}

}  // namespace galois::eval
