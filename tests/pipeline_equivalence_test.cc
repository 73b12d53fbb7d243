// The one materialisation path of core::PhysicalPlan. At
// parallel_batches = 1 a query calls its model from one thread, one call
// at a time, in the paper prototype's ladder order, and stops at the
// first failed prompt; at parallel_batches = 4 the same phases overlap,
// never with more than 4 model calls in flight, and fail with the same
// error. A model that does not declare
// thread_safe() keeps the ladder at any parallel_batches, also when a
// caller executes the physical plan without GaloisExecutor, and a sized
// key scan's flushes then go out from the calling thread too. The cache
// cases run the overlapped schedule through a shared PromptCache and
// MaterialisationCache. Runs under the TSan CI job: the overlapped runs
// hammer the shared pool and the concurrent table and column tasks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/galois_executor.h"
#include "core/materialisation_cache.h"
#include "core/physical_plan.h"
#include "knowledge/workload.h"
#include "llm/prompt_cache.h"
#include "llm/simulated_llm.h"
#include "planner/planner.h"
#include "sql/parser.h"

namespace galois::core {
namespace {

const knowledge::SpiderLikeWorkload& W() {
  static const auto* w = []() {
    auto r = knowledge::SpiderLikeWorkload::Create();
    EXPECT_TRUE(r.ok());
    return new knowledge::SpiderLikeWorkload(std::move(r).value());
  }();
  return *w;
}

ExecutionOptions OverlappedOptions() {
  ExecutionOptions opts;
  opts.batch_prompts = true;
  opts.max_batch_size = 4;
  opts.parallel_batches = 4;
  opts.verify_cells = true;
  opts.record_provenance = true;
  return opts;
}

/// Noise-free profile: every cell is known, so every column's critic
/// phase has prompts to issue and the expected phase order is exact.
llm::ModelProfile PerfectProfile() {
  llm::ModelProfile p = llm::ModelProfile::ChatGpt();
  p.name = "perfect";
  p.coverage_floor = 1.0;
  p.coverage_gain = 0.0;
  p.unknown_rate = 0.0;
  p.fake_entity_confidence = 0.0;
  p.fact_accuracy = 1.0;
  p.numeric_fact_accuracy = 1.0;
  p.reference_style_noise = 0.0;
  p.value_format_noise = 0.0;
  p.verbosity = 0.0;
  p.paging_fatigue = 0.0;
  p.hallucinated_key_rate = 0.0;
  p.pushdown_error = 0.0;
  p.filter_check_error = 0.0;
  return p;
}

/// "<concept> <phase>" of one prompt: "city scan", "country
/// filter:continent", "city attribute:population", "city verify:name".
std::string PhaseOf(const llm::Prompt& prompt) {
  if (const auto* i = std::get_if<llm::KeyScanIntent>(&prompt.intent)) {
    return i->concept_name + " scan";
  }
  if (const auto* i = std::get_if<llm::FilterCheckIntent>(&prompt.intent)) {
    return i->concept_name + " filter:" + i->filter.attribute;
  }
  if (const auto* i = std::get_if<llm::AttributeGetIntent>(&prompt.intent)) {
    return i->concept_name + " attribute:" + i->attribute;
  }
  if (const auto* i = std::get_if<llm::VerifyIntent>(&prompt.intent)) {
    return i->concept_name + " verify:" + i->attribute;
  }
  return "freeform";
}

/// Forwards to a thread-safe model and records every round trip's phase
/// in call order, and separately the phases of its CompleteBatch round
/// trips. It notes a call that starts while another is in flight and the
/// set of threads that called it, so a test can assert that a query
/// entered it from one thread at a time. FailPhase makes every
/// round trip of one phase fail after being recorded. It does not
/// declare thread_safe(), so a query calls it serially.
class RecordingModel : public llm::ForwardingModel {
 public:
  explicit RecordingModel(llm::LanguageModel* inner)
      : llm::ForwardingModel(inner) {}

  void FailPhase(std::string phase) { fail_phase_ = std::move(phase); }

  bool thread_safe() const override { return false; }

  // The metered calls forward the usage pointer, so a query's meter stays
  // exact while its calls overlap.
  Result<llm::Completion> CompleteMetered(const llm::Prompt& prompt,
                                          llm::CostMeter* usage) override {
    InFlight guard(this);
    GALOIS_RETURN_IF_ERROR(Record(prompt, /*batch=*/false));
    return inner_->CompleteMetered(prompt, usage);
  }

  Result<std::vector<llm::Completion>> CompleteBatchMetered(
      const std::vector<llm::Prompt>& prompts,
      llm::CostMeter* usage) override {
    InFlight guard(this);
    // A round trip carries the prompts of one scheduler phase.
    GALOIS_RETURN_IF_ERROR(Record(prompts.front(), /*batch=*/true));
    return inner_->CompleteBatchMetered(prompts, usage);
  }

  std::vector<std::string> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  std::vector<std::string> batch_calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_calls_;
  }
  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }
  bool overlapped() const { return overlapped_.load(); }
  int peak_in_flight() const { return peak_in_flight_.load(); }

 private:
  struct InFlight {
    explicit InFlight(RecordingModel* m) : model(m) {
      const int in_flight = model->in_flight_.fetch_add(1) + 1;
      if (in_flight > 1) model->overlapped_ = true;
      int peak = model->peak_in_flight_.load();
      while (in_flight > peak &&
             !model->peak_in_flight_.compare_exchange_weak(peak, in_flight)) {
      }
    }
    ~InFlight() { model->in_flight_.fetch_sub(1); }
    RecordingModel* model;
  };

  Status Record(const llm::Prompt& prompt, bool batch) {
    const std::string phase = PhaseOf(prompt);
    {
      std::lock_guard<std::mutex> lock(mu_);
      calls_.push_back(phase);
      if (batch) batch_calls_.push_back(phase);
      threads_.insert(std::this_thread::get_id());
    }
    if (phase == fail_phase_) return Status::LlmError("no answer for " + phase);
    return Status::OK();
  }

  std::string fail_phase_;
  std::atomic<int> in_flight_{0};
  std::atomic<int> peak_in_flight_{0};
  std::atomic<bool> overlapped_{false};
  mutable std::mutex mu_;
  std::vector<std::string> calls_;
  std::vector<std::string> batch_calls_;
  std::set<std::thread::id> threads_;
};

/// A RecordingModel that declares it tolerates concurrent calls.
class ThreadSafeRecordingModel : public RecordingModel {
 public:
  using RecordingModel::RecordingModel;
  bool thread_safe() const override { return true; }
};

/// `calls` with runs of the same phase collapsed: the phase order.
std::vector<std::string> PhaseOrder(const std::vector<std::string>& calls) {
  std::vector<std::string> order;
  for (const std::string& c : calls) {
    if (order.empty() || order.back() != c) order.push_back(c);
  }
  return order;
}

/// The ladder of one LLM table: scan pages, key verify, filter checks,
/// then attribute followed by verify for each needed column.
void AppendLadder(const std::string& table,
                  const std::vector<std::string>& filters,
                  const std::vector<std::string>& columns,
                  std::vector<std::string>* order) {
  order->push_back(table + " scan");
  order->push_back(table + " verify:name");
  for (const std::string& f : filters) {
    order->push_back(table + " filter:" + f);
  }
  for (const std::string& c : columns) {
    order->push_back(table + " attribute:" + c);
    order->push_back(table + " verify:" + c);
  }
}

ExecutionOptions SerialOptions() {
  ExecutionOptions opts = OverlappedOptions();
  opts.parallel_batches = 1;
  return opts;
}

/// Runs `sql` with `opts` over a RecordingModel and checks that every
/// model call came from the calling thread, none overlapped another, and
/// the phases went out in `want` order.
void ExpectSerialLadder(const std::string& sql,
                        const std::vector<std::string>& want,
                        const ExecutionOptions& opts = SerialOptions()) {
  llm::SimulatedLlm inner(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  RecordingModel model(&inner);
  GaloisExecutor galois(&model, &W().catalog(), opts);
  auto out = galois.RunSql(sql);
  ASSERT_TRUE(out.ok()) << sql << ": " << out.status();
  EXPECT_FALSE(model.overlapped()) << sql;
  EXPECT_EQ(model.threads(),
            std::set<std::thread::id>{std::this_thread::get_id()})
      << sql;
  EXPECT_EQ(PhaseOrder(model.calls()), want) << sql;
}

const char kJoinSql[] =
    "SELECT ci.name, ci.population, co.capital FROM city ci, country co "
    "WHERE ci.country = co.name AND co.continent = 'Europe'";

/// A two-table join with one needed column per table.
const char kSmallJoinSql[] =
    "SELECT ci.name, co.capital FROM city ci, country co "
    "WHERE ci.country = co.name";

TEST(PipelineEquivalenceTest, SerialThreeColumnQueryFollowsLadder) {
  std::vector<std::string> want;
  AppendLadder("country", {"continent"}, {"capital", "population", "gdp"},
               &want);
  ExpectSerialLadder(
      "SELECT name, capital, population, gdp FROM country "
      "WHERE continent = 'Europe'",
      want);
}

TEST(PipelineEquivalenceTest, SerialJoinMaterialisesTablesInFromOrder) {
  std::vector<std::string> want;
  AppendLadder("city", {}, {"country", "population"}, &want);
  AppendLadder("country", {"continent"}, {"capital"}, &want);
  ExpectSerialLadder(kJoinSql, want);
}

TEST(PipelineEquivalenceTest, SerialModelKeepsTheLadderAtParallelFour) {
  // The model does not declare thread_safe(), so parallel_batches = 4
  // still calls it from one thread, one call at a time, in ladder order.
  std::vector<std::string> want;
  AppendLadder("city", {}, {"country", "population"}, &want);
  AppendLadder("country", {"continent"}, {"capital"}, &want);
  ExpectSerialLadder(kJoinSql, want, OverlappedOptions());
}

/// Parse, logical plan, physical annotations and compile: the steps
/// GaloisExecutor::Run takes before it executes the plan.
Result<PhysicalPlan> CompilePlan(const std::string& sql,
                                 const ExecutionOptions& opts) {
  GALOIS_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::ParseSelect(sql));
  GALOIS_ASSIGN_OR_RETURN(planner::PlanNodePtr plan,
                          planner::BuildLogicalPlan(stmt, W().catalog()));
  GALOIS_RETURN_IF_ERROR(
      planner::BindPhysicalAnnotations(plan.get(), W().catalog(),
                                       BindingOptionsFor(opts))
          .status());
  return PhysicalPlan::Compile(std::move(plan), &W().catalog(), opts);
}

TEST(PipelineEquivalenceTest, DirectPlanCallerKeepsTheLadderOverSerialModel) {
  // The plan, not the executor, fits the options to the model, so a
  // caller that executes a compiled plan itself gets the ladder too.
  std::vector<std::string> want;
  AppendLadder("city", {}, {"country", "population"}, &want);
  AppendLadder("country", {"continent"}, {"capital"}, &want);
  llm::SimulatedLlm inner(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  RecordingModel model(&inner);
  auto plan = CompilePlan(kJoinSql, OverlappedOptions());
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto out = plan->Execute(&model, nullptr);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_FALSE(model.overlapped());
  EXPECT_EQ(model.threads(),
            std::set<std::thread::id>{std::this_thread::get_id()});
  EXPECT_EQ(PhaseOrder(model.calls()), want);
}

TEST(PipelineEquivalenceTest, ThreadSafeModelOverlapsJoinAtDefaultOptions) {
  // Every round trip blocks for 2 ms of wall time, so the two tables'
  // calls overlap by construction, not by scheduling luck.
  llm::SimulatedLlm inner(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  inner.set_wall_latency_ms(2.0);
  ThreadSafeRecordingModel model(&inner);
  GaloisExecutor galois(&model, &W().catalog());
  auto out = galois.RunSql(kSmallJoinSql);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(model.overlapped());
  EXPECT_GT(model.threads().size(), 1u);
}

TEST(PipelineEquivalenceTest, OverlapStaysInsideTheQueryBudget) {
  // Two tables of three needed columns each, with the critic on: at
  // parallel_batches 4 the table tasks, the column chains and every
  // phase's round trips (single prompts at batch off, one-prompt chunks
  // at batch on) all draw from one budget. However many of them there
  // are, the query never has more than 4 model calls in flight, and it
  // returns the relation, meter and provenance of the ladder.
  const char* sql =
      "SELECT ci.name, ci.population, ci.mayor, ci.country, co.capital, "
      "co.population, co.continent FROM city ci, country co "
      "WHERE ci.country = co.name";
  for (bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "batch on, max_batch_size 1" : "batch off");
    ExecutionOptions opts = SerialOptions();
    opts.batch_prompts = batch;
    opts.max_batch_size = 1;
    llm::SimulatedLlm ladder_inner(&W().kb(), PerfectProfile(),
                                   &W().catalog(), 7);
    ThreadSafeRecordingModel ladder_model(&ladder_inner);
    auto expected =
        GaloisExecutor(&ladder_model, &W().catalog(), opts).RunSql(sql);
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(ladder_model.peak_in_flight(), 1);

    llm::SimulatedLlm inner(&W().kb(), PerfectProfile(), &W().catalog(), 7);
    inner.set_wall_latency_ms(1.0);
    ThreadSafeRecordingModel model(&inner);
    opts.parallel_batches = 4;
    auto out = GaloisExecutor(&model, &W().catalog(), opts).RunSql(sql);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_TRUE(model.overlapped());
    EXPECT_GT(model.peak_in_flight(), 1);
    EXPECT_LE(model.peak_in_flight(), opts.parallel_batches);

    EXPECT_TRUE(out->relation.SameContents(expected->relation));
    EXPECT_EQ(out->cost.num_prompts, expected->cost.num_prompts);
    EXPECT_EQ(out->cost.num_batches, expected->cost.num_batches);
    EXPECT_EQ(out->cost.prompt_tokens, expected->cost.prompt_tokens);
    EXPECT_EQ(out->cost.completion_tokens, expected->cost.completion_tokens);
    EXPECT_EQ(out->cost.simulated_latency_ms,
              expected->cost.simulated_latency_ms);
    EXPECT_EQ(out->trace.ToString(SIZE_MAX),
              expected->trace.ToString(SIZE_MAX));
    ASSERT_EQ(out->trace.cells.size(), expected->trace.cells.size());
    EXPECT_GT(out->trace.cells.size(), 0u);
    for (size_t i = 0; i < out->trace.cells.size(); ++i) {
      EXPECT_EQ(out->trace.cells[i].prompt, expected->trace.cells[i].prompt)
          << i;
    }
  }
}

TEST(PipelineEquivalenceTest, ScanFlushOverSerialModelStaysOnTheCallingThread) {
  // Over a model that does not declare thread_safe(), the sized key
  // scans' flushes are CompleteBatch calls from this thread, never
  // overlapped, in ladder order: the query and a shard of it run at
  // parallel_batches 4 as they do at 1, with the same relation, meter
  // and pages fetched ahead.
  const ExecutionOptions opts = OverlappedOptions();
  std::vector<std::string> want;
  AppendLadder("city", {}, {"country", "population"}, &want);
  std::vector<std::string> want_shard = want;
  AppendLadder("country", {"continent"}, {"capital"}, &want);

  auto expect_ladder = [](const RecordingModel& model,
                          const std::vector<std::string>& order) {
    EXPECT_FALSE(model.overlapped());
    EXPECT_EQ(model.threads(),
              std::set<std::thread::id>{std::this_thread::get_id()});
    EXPECT_EQ(PhaseOrder(model.calls()), order);
    const std::vector<std::string> batches = model.batch_calls();
    EXPECT_GT(std::count(batches.begin(), batches.end(), "city scan"), 0);
  };
  auto expect_same_meter = [](const llm::CostMeter& got,
                              const llm::CostMeter& expected) {
    EXPECT_EQ(got.num_prompts, expected.num_prompts);
    EXPECT_EQ(got.num_batches, expected.num_batches);
    EXPECT_EQ(got.prompt_tokens, expected.prompt_tokens);
    EXPECT_EQ(got.completion_tokens, expected.completion_tokens);
    EXPECT_EQ(got.simulated_latency_ms, expected.simulated_latency_ms);
  };

  llm::SimulatedLlm plain_inner(&W().kb(), PerfectProfile(), &W().catalog(),
                                7);
  RecordingModel plain(&plain_inner);
  GaloisExecutor ladder(&plain, &W().catalog(), SerialOptions());
  auto expected = ladder.RunSql(kJoinSql);
  ASSERT_TRUE(expected.ok()) << expected.status();

  llm::SimulatedLlm inner(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  RecordingModel model(&inner);
  GaloisExecutor galois(&model, &W().catalog(), opts);
  auto out = galois.RunSql(kJoinSql);
  ASSERT_TRUE(out.ok()) << out.status();
  expect_ladder(model, want);
  EXPECT_TRUE(out->relation.SameContents(expected->relation));
  expect_same_meter(out->cost, expected->cost);
  EXPECT_GT(out->scan_pages_prefetched, 0);
  EXPECT_EQ(out->scan_pages_prefetched, expected->scan_pages_prefetched);
  EXPECT_EQ(out->scan_pages_overfetched, expected->scan_pages_overfetched);

  // A shard of the same query takes the ladder the same way.
  auto shards = galois.PlanShards(kJoinSql);
  ASSERT_TRUE(shards.ok()) << shards.status();
  ASSERT_FALSE(shards->empty());
  ShardRequest request;
  static_cast<ShardSpec&>(request) = shards->front();
  request.sql = kJoinSql;

  llm::SimulatedLlm plain_shard_inner(&W().kb(), PerfectProfile(),
                                      &W().catalog(), 7);
  RecordingModel plain_shard(&plain_shard_inner);
  auto expected_shard =
      GaloisExecutor(&plain_shard, &W().catalog(), SerialOptions())
          .RunShard(request);
  ASSERT_TRUE(expected_shard.ok()) << expected_shard.status();

  llm::SimulatedLlm shard_inner(&W().kb(), PerfectProfile(), &W().catalog(),
                                7);
  RecordingModel shard_model(&shard_inner);
  auto shard =
      GaloisExecutor(&shard_model, &W().catalog(), opts).RunShard(request);
  ASSERT_TRUE(shard.ok()) << shard.status();
  expect_ladder(shard_model, want_shard);
  EXPECT_TRUE(shard->relation.SameContents(expected_shard->relation));
  expect_same_meter(shard->cost, expected_shard->cost);
  EXPECT_GT(shard->scan_pages_prefetched, 0);
  EXPECT_EQ(shard->scan_pages_prefetched,
            expected_shard->scan_pages_prefetched);
}

TEST(PipelineEquivalenceTest, FailedPromptStopsTheQueryAtAnyParallelism) {
  std::string serial_error;
  for (int parallel_batches : {1, 4}) {
    SCOPED_TRACE("parallel_batches=" + std::to_string(parallel_batches));
    llm::SimulatedLlm inner(&W().kb(), PerfectProfile(), &W().catalog(), 7);
    // The overlapped arm needs a model that declares thread_safe(); every
    // round trip blocks for 2 ms, so the country table and the city
    // columns' chains are in flight when the failure surfaces.
    std::unique_ptr<RecordingModel> model;
    if (parallel_batches == 1) {
      model = std::make_unique<RecordingModel>(&inner);
    } else {
      inner.set_wall_latency_ms(2.0);
      model = std::make_unique<ThreadSafeRecordingModel>(&inner);
    }
    model->FailPhase("city attribute:population");
    ExecutionOptions opts = SerialOptions();
    opts.parallel_batches = parallel_batches;
    GaloisExecutor galois(model.get(), &W().catalog(), opts);
    auto out = galois.RunSql(kJoinSql);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kLlmError);
    EXPECT_NE(out.status().message().find("attribute:population"),
              std::string::npos)
        << out.status();
    EXPECT_NE(out.status().message().find("no answer for"),
              std::string::npos)
        << out.status();
    if (parallel_batches == 1) {
      serial_error = out.status().ToString();
      // The failed round trip was the last call the model saw: the rest
      // of its phase, its critic pass and the country table never ran.
      const std::vector<std::string> calls = model->calls();
      ASSERT_FALSE(calls.empty());
      EXPECT_EQ(calls.back(), "city attribute:population");
      EXPECT_EQ(std::count(calls.begin(), calls.end(),
                           "city attribute:population"),
                1);
      EXPECT_FALSE(model->overlapped());
    } else {
      // The query really ran overlapped, so the failure cancelled and
      // waited out running pool tasks; the earliest failing task in
      // ladder order still supplies the error.
      EXPECT_TRUE(model->overlapped());
      EXPECT_GT(model->threads().size(), 1u);
      EXPECT_EQ(out.status().ToString(), serial_error);
    }
  }
}

TEST(PipelineEquivalenceTest, OverlappedPromptCacheStaysWarm) {
  // Overlapped phases through a shared PromptCache: concurrent phases
  // fill it cold and serve every fan-out prompt warm (exercised under
  // TSan to hammer cross-phase cache access).
  llm::SimulatedLlm inner(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  llm::PromptCache cache(&inner);
  ExecutionOptions opts = OverlappedOptions();
  opts.record_provenance = false;
  GaloisExecutor galois(&cache, &W().catalog(), opts);
  const char* sql =
      "SELECT ci.name, ci.population, co.capital, co.continent "
      "FROM city ci, country co WHERE ci.country = co.name";
  auto cold = galois.RunSql(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = galois.RunSql(sql);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(cold->relation.SameContents(warm->relation));
  EXPECT_GT(warm->cost.cache_hits, 0);
}

TEST(PipelineEquivalenceTest, OverlappedMaterialisationCacheWarmRerun) {
  // Acceptance shape: a warm MaterialisationCache rerun of the same
  // multi-table query performs zero LLM round trips.
  llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  ExecutionOptions opts = OverlappedOptions();
  opts.record_provenance = false;
  GaloisExecutor galois(&model, &W().catalog(), opts);
  MaterialisationCache table_cache;
  galois.set_materialisation_cache(&table_cache);
  const char* sql =
      "SELECT ci.name, ci.population, co.capital FROM city ci, country co "
      "WHERE ci.country = co.name";
  auto cold = galois.RunSql(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->table_cache_hits, 0);
  // The join itself may be empty under the noisy profile (surface-form
  // join failures are the paper's point); what matters here is that the
  // cold run paid prompts and the warm run pays none.
  EXPECT_GT(cold->cost.num_prompts, 0);

  auto warm = galois.RunSql(sql);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(cold->relation.SameContents(warm->relation));
  EXPECT_EQ(warm->table_cache_lookups, 2);
  EXPECT_EQ(warm->table_cache_hits, 2);
  EXPECT_EQ(warm->cost.num_prompts, 0);
  EXPECT_EQ(warm->cost.num_batches, 0);
}

}  // namespace
}  // namespace galois::core
