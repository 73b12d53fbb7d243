// Google-benchmark microbenchmarks for the substrate components: SQL
// parsing, expression evaluation, classic operators, cleaning, the
// simulated LLM, and the full Galois pipeline. These guard the
// performance of the pieces the experiment harness leans on.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>

#include "api/database.h"
#include "clean/normalize.h"
#include "cluster/cluster_coordinator.h"
#include "core/galois_executor.h"
#include "core/llm_operators.h"
#include "core/materialisation_cache.h"
#include "engine/executor.h"
#include "knowledge/workload.h"
#include "llm/http_llm.h"
#include "llm/model_router.h"
#include "llm/prompt_cache.h"
#include "llm/prompt_templates.h"
#include "llm/simulated_llm.h"
#include "net/galois_server.h"
#include "net/protocol.h"
#include "sql/parser.h"
#include "tests/fake_llm_server.h"

namespace {

const galois::knowledge::SpiderLikeWorkload& Workload() {
  static const auto* w = []() {
    auto r = galois::knowledge::SpiderLikeWorkload::Create();
    return new galois::knowledge::SpiderLikeWorkload(
        std::move(r).value());
  }();
  return *w;
}

void BM_ParseSimpleQuery(benchmark::State& state) {
  const std::string sql =
      "SELECT name FROM country WHERE continent = 'Europe'";
  for (auto _ : state) {
    benchmark::DoNotOptimize(galois::sql::ParseSelect(sql));
  }
}
BENCHMARK(BM_ParseSimpleQuery);

void BM_ParseComplexQuery(benchmark::State& state) {
  const std::string sql =
      "SELECT co.continent, COUNT(*), AVG(ci.population) "
      "FROM city ci, country co WHERE ci.country = co.name AND "
      "ci.population BETWEEN 100000 AND 10000000 GROUP BY co.continent "
      "HAVING COUNT(*) > 2 ORDER BY COUNT(*) DESC LIMIT 10";
  for (auto _ : state) {
    benchmark::DoNotOptimize(galois::sql::ParseSelect(sql));
  }
}
BENCHMARK(BM_ParseComplexQuery);

void BM_GroundTruthSelection(benchmark::State& state) {
  const std::string sql =
      "SELECT name FROM country WHERE continent = 'Europe'";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        galois::engine::ExecuteSql(sql, Workload().catalog()));
  }
}
BENCHMARK(BM_GroundTruthSelection);

void BM_GroundTruthJoinAggregate(benchmark::State& state) {
  const std::string sql =
      "SELECT co.continent, COUNT(*) FROM city ci, country co "
      "WHERE ci.country = co.name GROUP BY co.continent";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        galois::engine::ExecuteSql(sql, Workload().catalog()));
  }
}
BENCHMARK(BM_GroundTruthJoinAggregate);

void BM_CleanNumber(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(galois::clean::ParseNumber("1.2 million"));
    benchmark::DoNotOptimize(galois::clean::ParseNumber("3,450,000"));
    benchmark::DoNotOptimize(galois::clean::ParseNumber("about 42k"));
  }
}
BENCHMARK(BM_CleanNumber);

void BM_CleanDate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(galois::clean::ParseDate("August 4, 1962"));
    benchmark::DoNotOptimize(galois::clean::ParseDate("04/08/1962"));
  }
}
BENCHMARK(BM_CleanDate);

void BM_SimulatedAttributePrompt(benchmark::State& state) {
  galois::llm::SimulatedLlm model(&Workload().kb(),
                                  galois::llm::ModelProfile::ChatGpt(),
                                  &Workload().catalog());
  galois::llm::AttributeGetIntent intent;
  intent.concept_name = "country";
  intent.key = "Italy";
  intent.attribute = "population";
  galois::llm::Prompt prompt = galois::llm::BuildAttributePrompt(intent);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Complete(prompt));
  }
}
BENCHMARK(BM_SimulatedAttributePrompt);

void BM_GaloisSelectionQuery(benchmark::State& state) {
  galois::llm::SimulatedLlm model(&Workload().kb(),
                                  galois::llm::ModelProfile::ChatGpt(),
                                  &Workload().catalog());
  galois::core::GaloisExecutor galois(&model, &Workload().catalog());
  const std::string sql =
      "SELECT name FROM country WHERE continent = 'Europe'";
  for (auto _ : state) {
    benchmark::DoNotOptimize(galois.ExecuteSql(sql));
  }
}
BENCHMARK(BM_GaloisSelectionQuery);

void BM_GaloisSelectionQueryBatched(benchmark::State& state) {
  // range(0) is max_batch_size: 0 = one batch per retrieval phase.
  galois::llm::SimulatedLlm model(&Workload().kb(),
                                  galois::llm::ModelProfile::ChatGpt(),
                                  &Workload().catalog());
  galois::core::ExecutionOptions options;
  options.batch_prompts = true;
  options.max_batch_size = static_cast<size_t>(state.range(0));
  galois::core::GaloisExecutor galois(&model, &Workload().catalog(),
                                      options);
  const std::string sql =
      "SELECT name FROM country WHERE continent = 'Europe'";
  galois::Result<galois::core::QueryOutput> last = galois.RunSql(sql);
  for (auto _ : state) {
    last = galois.RunSql(sql);
    benchmark::DoNotOptimize(last);
  }
  state.counters["batches"] =
      static_cast<double>(last->cost.num_batches);
  state.counters["prompts"] =
      static_cast<double>(last->cost.num_prompts);
}
BENCHMARK(BM_GaloisSelectionQueryBatched)->Arg(0)->Arg(8)->Arg(32);

/// Forwards every call to a model and keeps the peak number of calls in
/// flight. The metered calls forward the usage pointer, so a query's
/// meter stays exact while its calls overlap.
class InFlightCounter : public galois::llm::ForwardingModel {
 public:
  explicit InFlightCounter(galois::llm::LanguageModel* inner)
      : galois::llm::ForwardingModel(inner) {}

  galois::Result<galois::llm::Completion> CompleteMetered(
      const galois::llm::Prompt& prompt,
      galois::llm::CostMeter* usage) override {
    InFlight guard(this);
    return inner_->CompleteMetered(prompt, usage);
  }
  galois::Result<std::vector<galois::llm::Completion>> CompleteBatchMetered(
      const std::vector<galois::llm::Prompt>& prompts,
      galois::llm::CostMeter* usage) override {
    InFlight guard(this);
    return inner_->CompleteBatchMetered(prompts, usage);
  }

  int peak() const { return peak_.load(); }

 private:
  struct InFlight {
    explicit InFlight(InFlightCounter* c) : counter(c) {
      const int now = counter->in_flight_.fetch_add(1) + 1;
      int peak = counter->peak_.load();
      while (now > peak && !counter->peak_.compare_exchange_weak(peak, now)) {
      }
    }
    ~InFlight() { counter->in_flight_.fetch_sub(1); }
    InFlightCounter* counter;
  };

  std::atomic<int> in_flight_{0};
  std::atomic<int> peak_{0};
};

void BM_GaloisConcurrentDispatch(benchmark::State& state) {
  // range(0) is batch_prompts (max_batch_size 4 when on) and range(1) is
  // parallel_batches. The simulated model sleeps a fixed 5 ms of wall
  // time per round trip, so overlapping round trips shows up directly in
  // real time: at parallel_batches=4 a phase of n round trips (chunks
  // with batching on, single prompts with it off) takes ~ceil(n / 4)
  // round trips instead of n. Answers and the CostMeter (num_batches,
  // cache_hits, tokens, simulated latency) are identical across
  // parallel_batches; only wall clock moves, and peak_in_flight, the most
  // model calls the query ever had in flight, stays within
  // parallel_batches.
  galois::llm::SimulatedLlm model(&Workload().kb(),
                                  galois::llm::ModelProfile::ChatGpt(),
                                  &Workload().catalog());
  model.set_wall_latency_ms(5.0);
  InFlightCounter counter(&model);
  galois::core::ExecutionOptions options;
  options.batch_prompts = state.range(0) != 0;
  options.max_batch_size = 4;
  options.parallel_batches = static_cast<int>(state.range(1));
  galois::core::GaloisExecutor galois(&counter, &Workload().catalog(),
                                      options);
  const std::string sql =
      "SELECT name, capital, population FROM country";
  galois::Result<galois::core::QueryOutput> last = galois.RunSql(sql);
  for (auto _ : state) {
    last = galois.RunSql(sql);
    benchmark::DoNotOptimize(last);
  }
  state.counters["batches"] =
      static_cast<double>(last->cost.num_batches);
  state.counters["prompts"] =
      static_cast<double>(last->cost.num_prompts);
  state.counters["peak_in_flight"] = static_cast<double>(counter.peak());
}
BENCHMARK(BM_GaloisConcurrentDispatch)
    ->ArgNames({"batch", "parallel_batches"})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({1, 4})
    ->Args({1, 8})
    ->Args({0, 1})
    ->Args({0, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GaloisPipelinedJoin(benchmark::State& state) {
  // range(0) selects the schedule at identical batching (batch on,
  // max_batch_size=4): Arg(0) runs at parallel_batches=1, the serial
  // ladder, Arg(1) at parallel_batches=4, where phases overlap. The
  // query joins two LLM tables needing three non-key columns each, with
  // critic verification on — per table: scan, scan-verify, then
  // 3 × (attribute + verify) phases. The ladder pays every round trip in
  // sequence; at 4 the two tables and, within each, the three column
  // chains overlap, multiplying the intra-phase chunk overlap by the
  // inter-phase width. prompts/batches/cache_hits are identical across
  // both rows — only wall time moves.
  galois::llm::SimulatedLlm model(&Workload().kb(),
                                  galois::llm::ModelProfile::ChatGpt(),
                                  &Workload().catalog());
  model.set_wall_latency_ms(5.0);
  galois::core::ExecutionOptions options;
  options.batch_prompts = true;
  options.max_batch_size = 4;
  options.parallel_batches = state.range(0) != 0 ? 4 : 1;
  options.verify_cells = true;
  galois::core::GaloisExecutor galois(&model, &Workload().catalog(),
                                      options);
  const std::string sql =
      "SELECT ci.name, ci.population, ci.mayor, ci.country, "
      "co.capital, co.population, co.continent "
      "FROM city ci, country co WHERE ci.country = co.name";
  galois::Result<galois::core::QueryOutput> last = galois.RunSql(sql);
  for (auto _ : state) {
    last = galois.RunSql(sql);
    benchmark::DoNotOptimize(last);
  }
  state.counters["batches"] =
      static_cast<double>(last->cost.num_batches);
  state.counters["prompts"] =
      static_cast<double>(last->cost.num_prompts);
  state.counters["cache_hits"] =
      static_cast<double>(last->cost.cache_hits);
}
BENCHMARK(BM_GaloisPipelinedJoin)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GaloisMaterialisationCacheWarm(benchmark::State& state) {
  // Warm rerun of the overlapped join through the cross-query
  // MaterialisationCache: both tables are served by fingerprint with
  // zero LLM round trips per iteration (table_hits counts 2 per query).
  galois::llm::SimulatedLlm model(&Workload().kb(),
                                  galois::llm::ModelProfile::ChatGpt(),
                                  &Workload().catalog());
  model.set_wall_latency_ms(5.0);
  galois::core::ExecutionOptions options;
  options.batch_prompts = true;
  options.max_batch_size = 4;
  options.parallel_batches = 4;
  options.verify_cells = true;
  galois::core::GaloisExecutor galois(&model, &Workload().catalog(),
                                      options);
  galois::core::MaterialisationCache table_cache;
  galois.set_materialisation_cache(&table_cache);
  const std::string sql =
      "SELECT ci.name, ci.population, ci.mayor, ci.country, "
      "co.capital, co.population, co.continent "
      "FROM city ci, country co WHERE ci.country = co.name";
  galois::Result<galois::core::QueryOutput> last = galois.RunSql(sql);
  benchmark::DoNotOptimize(last);  // cold fill
  for (auto _ : state) {
    last = galois.RunSql(sql);
    benchmark::DoNotOptimize(last);
  }
  state.counters["prompts_per_iter"] =
      static_cast<double>(last->cost.num_prompts);
  state.counters["table_hits"] =
      static_cast<double>(last->table_cache_hits);
}
BENCHMARK(BM_GaloisMaterialisationCacheWarm)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GaloisBatchedWarmCache(benchmark::State& state) {
  // Warm rerun through the batch-aware PromptCache: every batch is served
  // from cache without an inner round trip.
  galois::llm::SimulatedLlm inner(&Workload().kb(),
                                  galois::llm::ModelProfile::ChatGpt(),
                                  &Workload().catalog());
  galois::llm::PromptCache cache(&inner);
  galois::core::ExecutionOptions options;
  options.batch_prompts = true;
  galois::core::GaloisExecutor galois(&cache, &Workload().catalog(),
                                      options);
  const std::string sql =
      "SELECT name, capital FROM country WHERE continent = 'Europe'";
  galois::Result<galois::core::QueryOutput> last = galois.RunSql(sql);
  benchmark::DoNotOptimize(last);  // cold fill
  for (auto _ : state) {
    last = galois.RunSql(sql);
    benchmark::DoNotOptimize(last);
  }
  state.counters["cache_hits"] =
      static_cast<double>(last->cost.cache_hits);
}
BENCHMARK(BM_GaloisBatchedWarmCache);

void BM_StoreJournalAppend(benchmark::State& state) {
  // Cost of journaling one materialisation: frame encode + CRC + append
  // (kNone durability, so no fsync dominates the measurement). This is
  // the overhead a cache insert pays on the query path.
  const std::string dir = "/tmp/galois_bench_store_append";
  std::remove((dir + "/galois.store").c_str());
  galois::store::StoreOptions options;
  options.path = dir;
  options.durability = galois::store::Durability::kNone;
  options.background_vacuum = false;
  auto store = galois::store::ResultStore::Open(options);
  if (!store.ok()) {
    state.SkipWithError("store open failed");
    return;
  }
  std::vector<galois::Tuple> rows;
  for (int r = 0; r < 40; ++r) {
    galois::Tuple row;
    row.push_back(galois::Value::String("key" + std::to_string(r)));
    row.push_back(galois::Value::Int(1000000 + r));
    row.push_back(galois::Value::Double(0.5 + r));
    rows.push_back(std::move(row));
  }
  const std::vector<std::string> columns = {"population", "gdp"};
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*store)->PutMaterialisation(
        "fp" + std::to_string(i++ % 1024), columns, rows));
  }
  auto stats = (*store)->stats();
  state.counters["bytes_per_append"] = static_cast<double>(
      stats.appends > 0 ? stats.append_bytes / stats.appends : 0);
}
BENCHMARK(BM_StoreJournalAppend);

void BM_StoreWarmOpen(benchmark::State& state) {
  // Cold-process warm start: Open (recovery scan of a populated journal)
  // plus the full ForEach feed of every recovered entry — the once-per-
  // process price of never re-billing the workload.
  const std::string dir = "/tmp/galois_bench_store_open";
  std::remove((dir + "/galois.store").c_str());
  galois::store::StoreOptions options;
  options.path = dir;
  options.background_vacuum = false;
  {
    auto seed_store = galois::store::ResultStore::Open(options);
    if (!seed_store.ok()) {
      state.SkipWithError("store open failed");
      return;
    }
    std::vector<galois::Tuple> rows;
    for (int r = 0; r < 40; ++r) {
      galois::Tuple row;
      row.push_back(galois::Value::String("key" + std::to_string(r)));
      row.push_back(galois::Value::Int(1000000 + r));
      row.push_back(galois::Value::Double(0.5 + r));
      rows.push_back(std::move(row));
    }
    const std::vector<std::string> columns = {"population", "gdp"};
    for (int i = 0; i < 128; ++i) {
      (void)(*seed_store)
          ->PutMaterialisation("fp" + std::to_string(i), columns, rows);
      (void)(*seed_store)
          ->PutPrompt("GPT-3.5-turbo", "prompt " + std::to_string(i),
                      "completion " + std::to_string(i));
    }
  }
  int64_t recovered = 0;
  for (auto _ : state) {
    auto store = galois::store::ResultStore::Open(options);
    if (!store.ok()) {
      state.SkipWithError("reopen failed");
      return;
    }
    recovered = 0;
    (*store)->ForEachMaterialisation(
        [&recovered](const std::string&, const std::string&,
                     const std::string&, const std::vector<std::string>&,
                     const std::vector<galois::Tuple>&) { ++recovered; });
    (*store)->ForEachPrompt([&recovered](const std::string&,
                                         const std::string&,
                                         const std::string&) {
      ++recovered;
    });
    benchmark::DoNotOptimize(store);
  }
  state.counters["entries"] = static_cast<double>(recovered);
}
BENCHMARK(BM_StoreWarmOpen)->Unit(benchmark::kMillisecond);

void BM_GaloisJoinQuery(benchmark::State& state) {
  galois::llm::SimulatedLlm model(&Workload().kb(),
                                  galois::llm::ModelProfile::ChatGpt(),
                                  &Workload().catalog());
  galois::core::GaloisExecutor galois(&model, &Workload().catalog());
  const std::string sql =
      "SELECT ci.name, co.continent FROM city ci, country co "
      "WHERE ci.country = co.name";
  for (auto _ : state) {
    benchmark::DoNotOptimize(galois.ExecuteSql(sql));
  }
}
BENCHMARK(BM_GaloisJoinQuery);

void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        galois::knowledge::SpiderLikeWorkload::Create());
  }
}
BENCHMARK(BM_WorkloadGeneration);

// --- multi-backend transport (PR 4) ----------------------------------------

// Pure routing overhead: the ModelRouter in front of a SimulatedLlm adds
// one intent dispatch + map lookup per prompt — this pins the price of
// leaving the router in the stack even for single-backend runs.
void BM_RouterDispatchOverhead(benchmark::State& state) {
  galois::llm::SimulatedLlm model(&Workload().kb(),
                                  galois::llm::ModelProfile::ChatGpt(),
                                  &Workload().catalog());
  galois::llm::ModelRouter router;
  if (!router.AddBackend("chatgpt", &model).ok()) {
    state.SkipWithError("router setup failed");
    return;
  }
  galois::llm::AttributeGetIntent intent;
  intent.concept_name = "country";
  intent.key = "Italy";
  intent.attribute = "capital";
  intent.attribute_description = "capital city";
  galois::llm::Prompt prompt = galois::llm::BuildAttributePrompt(intent);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.Complete(prompt));
  }
}
BENCHMARK(BM_RouterDispatchOverhead);

// Real loopback HTTP round trips through the full wire path (JSON
// encode, socket, FakeLlmServer, JSON decode) — batched, at several
// concurrency levels. Comparing against BM_GaloisConcurrentDispatch
// shows what the physical transport costs over the in-process model.
void BM_HttpLoopbackBatchedQuery(benchmark::State& state) {
  galois::llm::SimulatedLlm backing(&Workload().kb(),
                                    galois::llm::ModelProfile::ChatGpt(),
                                    &Workload().catalog());
  galois::tests::FakeLlmServer server(&backing);
  if (!server.Start().ok()) {
    state.SkipWithError("fake server failed to start");
    return;
  }
  galois::llm::HttpLlm http(server.ClientOptions());
  galois::core::ExecutionOptions options;
  options.batch_prompts = true;
  options.max_batch_size = 8;
  options.parallel_batches = static_cast<int>(state.range(0));
  galois::core::GaloisExecutor galois(&http, &Workload().catalog(),
                                      options);
  const std::string sql =
      "SELECT name, capital, population FROM country "
      "WHERE continent = 'Europe'";
  galois::Result<galois::core::QueryOutput> last = galois.RunSql(sql);
  for (auto _ : state) {
    last = galois.RunSql(sql);
    benchmark::DoNotOptimize(last);
  }
  state.counters["prompts"] =
      static_cast<double>(last->cost.num_prompts);
  state.counters["batches"] =
      static_cast<double>(last->cost.num_batches);
}
// Loopback timings swing 2-5x between back-to-back runs on a shared VM,
// so these rows record the median of five repetitions.
BENCHMARK(BM_HttpLoopbackBatchedQuery)
    ->Arg(1)
    ->Arg(4)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Database/Session façade (PR 5) ----------------------------------------

// Throughput scaling of concurrent sessions against ONE galois::Database
// over the loopback HTTP backend: range(0) sessions each run the same
// query per iteration via QueryAsync, so an iteration completes
// range(0) queries — items_per_second reports queries/sec. Per-query
// round trips ride real sockets through the FakeLlmServer; scaling
// beyond 1 shows the façade's whole-stack concurrency (shared thread
// pool, batch scheduler, shared transport) rather than any single
// layer's.
void BM_ConcurrentSessions(benchmark::State& state) {
  static galois::llm::SimulatedLlm* backing =
      new galois::llm::SimulatedLlm(&Workload().kb(),
                                    galois::llm::ModelProfile::ChatGpt(),
                                    &Workload().catalog());
  static galois::tests::FakeLlmServer* server = [] {
    auto* s = new galois::tests::FakeLlmServer(backing);
    if (!s->Start().ok()) {
      delete s;
      s = nullptr;
    }
    return s;
  }();
  if (server == nullptr) {
    state.SkipWithError("fake server failed to start");
    return;
  }
  galois::DatabaseOptions options;
  options.workload = &Workload();
  galois::BackendSpec http;
  http.name = "http";
  http.http = server->ClientOptions();
  options.backends.push_back(std::move(http));
  options.execution.batch_prompts = true;
  options.execution.max_batch_size = 8;
  options.execution.parallel_batches = 2;
  auto db = galois::Database::Open(std::move(options));
  if (!db.ok()) {
    state.SkipWithError("database open failed");
    return;
  }
  const int num_sessions = static_cast<int>(state.range(0));
  std::vector<galois::Session> sessions;
  for (int s = 0; s < num_sessions; ++s) {
    sessions.push_back((*db)->CreateSession());
  }
  const std::string sql =
      "SELECT name, capital, population FROM country "
      "WHERE continent = 'Europe'";
  int64_t prompts_per_query = 0;
  for (auto _ : state) {
    std::vector<galois::AsyncQuery> in_flight;
    in_flight.reserve(sessions.size());
    for (galois::Session& session : sessions) {
      in_flight.push_back(session.QueryAsync(sql));
    }
    for (galois::AsyncQuery& pending : in_flight) {
      auto result = pending.Join();
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      prompts_per_query = result->cost.num_prompts;
    }
  }
  state.SetItemsProcessed(state.iterations() * num_sessions);
  state.counters["prompts_per_query"] =
      static_cast<double>(prompts_per_query);
}
BENCHMARK(BM_ConcurrentSessions)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_LimitBoundedKeyScan(benchmark::State& state) {
  // range(0) is the LIMIT (0 = unbounded). The planner proves a bare
  // `SELECT key FROM t LIMIT n` needs only the first n scanned keys and
  // annotates the scan with a paging bound, so the LIMIT arm must buy
  // strictly fewer pages than the unbounded arm on the same ~50-key
  // scan. The "pages" counter makes the saving diffable across PRs.
  galois::llm::ModelProfile profile =
      galois::llm::ModelProfile::ChatGpt();
  profile.coverage_floor = 1.0;  // full coverage: the scan pages through
  profile.coverage_gain = 0.0;   // every city in the world (~50 keys)
  profile.paging_fatigue = 0.0;
  profile.hallucinated_key_rate = 0.0;
  profile.page_size = 5;
  galois::llm::SimulatedLlm model(&Workload().kb(), profile,
                                  &Workload().catalog());
  galois::core::GaloisExecutor galois(&model, &Workload().catalog());
  const int64_t limit = state.range(0);
  const std::string sql =
      limit > 0
          ? "SELECT name FROM city LIMIT " + std::to_string(limit)
          : std::string("SELECT name FROM city");
  galois::Result<galois::core::QueryOutput> last = galois.RunSql(sql);
  for (auto _ : state) {
    last = galois.RunSql(sql);
    benchmark::DoNotOptimize(last);
  }
  // A key-only scan issues exactly one prompt per page.
  state.counters["pages"] = static_cast<double>(last->cost.num_prompts);
  state.counters["rows"] =
      static_cast<double>(last->relation.NumRows());
}
BENCHMARK(BM_LimitBoundedKeyScan)->Arg(0)->Arg(5);

void BM_SubsumptionWarmOverlap(benchmark::State& state) {
  // Warm rerun of an overlapping-predicate workload: the widest filter
  // is materialised once (cold fill), then every narrower variant is
  // served by predicate subsumption — zero LLM round trips per
  // iteration, only the in-memory residual re-check. This is the cache
  // redesign's headline saving; prompts_per_iter must stay 0.
  galois::llm::ModelProfile profile = galois::llm::ModelProfile::ChatGpt();
  profile.coverage_floor = 1.0;
  profile.coverage_gain = 0.0;
  profile.paging_fatigue = 0.0;
  profile.hallucinated_key_rate = 0.0;
  profile.page_size = 5;
  galois::llm::SimulatedLlm model(&Workload().kb(), profile,
                                  &Workload().catalog());
  model.set_wall_latency_ms(5.0);
  galois::core::GaloisExecutor galois(&model, &Workload().catalog());
  galois::core::MaterialisationCache table_cache;
  galois.set_materialisation_cache(&table_cache);
  const std::vector<std::string> narrower = {
      "SELECT name, population FROM country WHERE population > 50000000",
      "SELECT name, population FROM country WHERE population >= 100000000",
      "SELECT name, population FROM country "
      "WHERE population > 50000000 AND population < 200000000",
  };
  galois::Result<galois::core::QueryOutput> last = galois.RunSql(
      "SELECT name, population FROM country WHERE population > 1000000");
  benchmark::DoNotOptimize(last);  // cold fill of the widest entry
  int64_t prompts = 0;
  int64_t subsumed = 0;
  for (auto _ : state) {
    for (const std::string& sql : narrower) {
      last = galois.RunSql(sql);
      benchmark::DoNotOptimize(last);
      prompts += last->cost.num_prompts;
      subsumed += last->table_cache_subsumption_hits;
    }
  }
  state.counters["prompts_per_iter"] =
      static_cast<double>(prompts) / static_cast<double>(state.iterations());
  state.counters["subsumption_hits"] =
      static_cast<double>(subsumed) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SubsumptionWarmOverlap)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SizedKeyScan(benchmark::State& state) {
  // range(0) is batch_prompts. The same city scan both arms, ended by the
  // model: the ladder pays one 5 ms round trip per page, while the sized
  // scan sends pages 0-1, then the pages the catalog predicts, the page
  // that ends the scan included, in flushes that grow with the pages
  // consumed (2-4, 5-10, 11-20), so "round_trips" drops to 4 while
  // "pages" less "overfetched" stays the ladder's 21.
  galois::llm::ModelProfile profile = galois::llm::ModelProfile::ChatGpt();
  profile.coverage_floor = 1.0;
  profile.coverage_gain = 0.0;
  profile.paging_fatigue = 0.0;
  profile.hallucinated_key_rate = 0.0;
  profile.page_size = 5;
  galois::llm::SimulatedLlm model(&Workload().kb(), profile,
                                  &Workload().catalog());
  model.set_wall_latency_ms(5.0);
  galois::core::ExecutionOptions options;
  options.batch_prompts = state.range(0) != 0;
  const auto& def = *Workload().catalog().GetTable("city").value();
  galois::core::KeyScanStats stats;
  for (auto _ : state) {
    auto keys = galois::core::LlmKeyScan(&model, def, options,
                                         std::nullopt, &stats);
    benchmark::DoNotOptimize(keys);
  }
  state.counters["pages"] = static_cast<double>(stats.pages);
  state.counters["round_trips"] = static_cast<double>(stats.round_trips());
  state.counters["prefetched"] = static_cast<double>(stats.flushed);
  state.counters["overfetched"] = static_cast<double>(stats.overfetched);
}
BENCHMARK(BM_SizedKeyScan)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ClusterScatterGather(benchmark::State& state) {
  // range(0) is the node count. Full loopback scatter-gather: N galoisd
  // servers plus a cluster-enabled coordinator Database, replaying a
  // two-table join whose tables land on different nodes. Caches are off
  // so every iteration pays real materialisation work; the 1-vs-2-node
  // rows show what table-affinity parallelism buys (and what the
  // dispatch + merge path costs on top of the facade).
  const int node_count = static_cast<int>(state.range(0));
  struct BenchNode {
    std::unique_ptr<galois::Database> db;
    std::unique_ptr<galois::net::GaloisServer> server;
  };
  std::vector<BenchNode> nodes;
  galois::cluster::ClusterOptions copts;
  for (int n = 0; n < node_count; ++n) {
    galois::DatabaseOptions o;
    o.workload = &Workload();
    o.enable_materialisation_cache = false;
    auto db = galois::Database::Open(std::move(o));
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    BenchNode node;
    node.db = std::move(db).value();
    node.server = std::make_unique<galois::net::GaloisServer>(
        node.db.get(), galois::net::ServerOptions());
    if (galois::Status started = node.server->Start(); !started.ok()) {
      state.SkipWithError(started.ToString().c_str());
      return;
    }
    copts.nodes.push_back({"127.0.0.1", node.server->port()});
    nodes.push_back(std::move(node));
  }
  galois::DatabaseOptions coord_options;
  coord_options.workload = &Workload();
  coord_options.enable_materialisation_cache = false;
  coord_options.cluster = std::move(copts);
  auto coordinator = galois::Database::Open(std::move(coord_options));
  if (!coordinator.ok()) {
    state.SkipWithError(coordinator.status().ToString().c_str());
    return;
  }
  galois::Session session = coordinator.value()->CreateSession();
  const std::string sql =
      "SELECT ci.name, co.continent FROM city ci, country co "
      "WHERE ci.country = co.name AND co.continent = 'Europe'";
  int64_t prompts = 0;
  for (auto _ : state) {
    auto result = session.Query(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    prompts += result->cost.num_prompts;
    benchmark::DoNotOptimize(result);
  }
  // The coordinator's counters run over every iteration of this run, so
  // they are reported per iteration, like the prompts.
  const auto cstats = coordinator.value()->cluster()->stats();
  if (state.iterations() > 0) {
    const double iterations = static_cast<double>(state.iterations());
    state.counters["prompts_per_iter"] =
        static_cast<double>(prompts) / iterations;
    state.counters["shards_per_iter"] =
        static_cast<double>(cstats.shards_dispatched) / iterations;
    state.counters["redispatches_per_iter"] =
        static_cast<double>(cstats.redispatches) / iterations;
  }
  for (BenchNode& node : nodes) node.server->Shutdown();
}
BENCHMARK(BM_ClusterScatterGather)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The 46 workload queries' warm results as galoisd's default Database
/// serves them (seed 7, materialisation cache on): each query runs once
/// cold, then once more as a cache hit.
std::vector<galois::QueryResult> WarmResults() {
  galois::DatabaseOptions options;
  options.workload = &Workload();
  auto db = galois::Database::Open(std::move(options));
  std::vector<galois::QueryResult> results;
  if (!db.ok()) return results;
  galois::Session session = db.value()->CreateSession();
  for (const auto& query : Workload().queries()) session.Query(query.sql);
  for (const auto& query : Workload().queries()) {
    auto r = session.Query(query.sql);
    if (r.ok()) results.push_back(std::move(r).value());
  }
  return results;
}

void BM_GalpResultCodec(benchmark::State& state) {
  // GALP's result codec on warm-serve's frames: every warm result is
  // encoded to its kQueryResult payload, then every payload decoded
  // back, as galoisd and GaloisClient do per query.
  using Clock = std::chrono::steady_clock;
  const std::vector<galois::QueryResult> results = WarmResults();
  if (results.size() != Workload().queries().size()) {
    state.SkipWithError("a warm query failed");
    return;
  }
  std::vector<std::string> payloads(results.size());
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  for (auto _ : state) {
    const auto start = Clock::now();
    for (size_t i = 0; i < results.size(); ++i) {
      payloads[i] = galois::net::EncodeQueryResult(results[i]);
    }
    benchmark::DoNotOptimize(payloads.data());
    benchmark::ClobberMemory();
    const auto encoded = Clock::now();
    for (const std::string& payload : payloads) {
      auto decoded = galois::net::DecodeQueryResult(payload);
      benchmark::DoNotOptimize(decoded);
    }
    const auto decoded = Clock::now();
    encode_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     encoded - start).count();
    decode_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     decoded - encoded).count();
  }
  size_t bytes = 0;
  for (const std::string& payload : payloads) bytes += payload.size();
  const double n = static_cast<double>(results.size());
  const double per_result = static_cast<double>(state.iterations()) * n;
  state.counters["encode_us_per_result"] =
      static_cast<double>(encode_ns) / 1e3 / per_result;
  state.counters["decode_us_per_result"] =
      static_cast<double>(decode_ns) / 1e3 / per_result;
  state.counters["bytes_per_result"] = static_cast<double>(bytes) / n;
}
BENCHMARK(BM_GalpResultCodec)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
