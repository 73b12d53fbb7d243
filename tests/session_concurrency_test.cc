// Concurrent-session equivalence: N sessions × M async queries against
// ONE galois::Database must produce byte-identical relations and
// identical per-query cost meters vs. running the same queries
// sequentially — the acceptance contract of the Database/Session façade
// (per-query CostTap attribution instead of the old racy
// snapshot-and-diff of the shared model meter). Runs under the TSan CI
// job: 16 queries in flight hammer the shared thread pool, the batch
// scheduler and the shared model stack from many threads.
//
// Also covers the façade's control surface: the options snapshot rule
// (set_options never leaks into a dispatched query), per-query deadline
// and cancellation, and the shared materialisation cache serving many
// sessions.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "knowledge/workload.h"
#include "llm/simulated_llm.h"

namespace galois {
namespace {

const knowledge::SpiderLikeWorkload& W() {
  static const auto* w = []() {
    auto r = knowledge::SpiderLikeWorkload::Create();
    EXPECT_TRUE(r.ok());
    return new knowledge::SpiderLikeWorkload(std::move(r).value());
  }();
  return *w;
}

/// The per-session query mix: distinct shapes (selection, join inputs,
/// full scans) so the fan-out exercises every phase kind.
const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      "SELECT name, capital FROM country WHERE continent = 'Europe'",
      "SELECT name, population FROM city WHERE country = 'Italy'",
      "SELECT name, speakers FROM language",
      "SELECT name, foundedYear FROM airline",
  };
  return queries;
}

/// Stressful-but-deterministic dispatch: batched, chunked, with round
/// trips and phases overlapped (parallel_batches > 1).
core::ExecutionOptions StressOptions() {
  core::ExecutionOptions options;
  options.batch_prompts = true;
  options.max_batch_size = 4;
  options.parallel_batches = 2;
  options.verify_cells = true;
  return options;
}

std::unique_ptr<Database> OpenStressDb(bool with_table_cache) {
  DatabaseOptions options;
  options.workload = &W();
  options.execution = StressOptions();
  options.enable_materialisation_cache = with_table_cache;
  auto db = Database::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

void ExpectSameMeter(const llm::CostMeter& a, const llm::CostMeter& b,
                     const std::string& label) {
  EXPECT_EQ(a.num_prompts, b.num_prompts) << label;
  EXPECT_EQ(a.prompt_tokens, b.prompt_tokens) << label;
  EXPECT_EQ(a.completion_tokens, b.completion_tokens) << label;
  EXPECT_EQ(a.num_batches, b.num_batches) << label;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  // Latency is a sum of doubles accumulated in round-trip completion
  // order; concurrent chunks may reassociate it.
  EXPECT_NEAR(a.simulated_latency_ms, b.simulated_latency_ms,
              1e-6 * (1.0 + a.simulated_latency_ms))
      << label;
  ASSERT_EQ(a.by_model.size(), b.by_model.size()) << label;
  for (const auto& [name, usage] : a.by_model) {
    auto it = b.by_model.find(name);
    ASSERT_NE(it, b.by_model.end()) << label << " backend " << name;
    EXPECT_EQ(usage.num_prompts, it->second.num_prompts) << label;
    EXPECT_EQ(usage.prompt_tokens, it->second.prompt_tokens) << label;
    EXPECT_EQ(usage.num_batches, it->second.num_batches) << label;
  }
}

TEST(SessionConcurrencyTest, NSessionsTimesMQueriesMatchSequential) {
  // x4 queries = 16 concurrent, each fanning out table and column tasks
  // on the same shared pool.
  constexpr int kSessions = 4;
  std::unique_ptr<Database> db = OpenStressDb(/*with_table_cache=*/false);

  // Sequential reference: one session, one query at a time, after a
  // warm-up pass of the same queries. A batched key scan sends the pages
  // the Database's earlier scan of its table needed, so only the warm-up
  // pass sizes its scans from page 0; it returns the same relations and
  // bills no fewer prompts.
  std::vector<QueryResult> reference;
  {
    Session session = db->CreateSession();
    for (const std::string& sql : Queries()) {
      auto warm_up = session.Query(sql);
      ASSERT_TRUE(warm_up.ok()) << sql << ": " << warm_up.status();
      reference.push_back(std::move(warm_up).value());
    }
    for (size_t q = 0; q < Queries().size(); ++q) {
      const std::string& sql = Queries()[q];
      auto result = session.Query(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
      EXPECT_TRUE(result->relation.SameContents(reference[q].relation))
          << sql;
      EXPECT_LE(result->cost.num_prompts, reference[q].cost.num_prompts)
          << sql;
      reference[q] = std::move(result).value();
    }
  }

  // Concurrent run: every session dispatches the whole mix at once. The
  // stack-wide meter delta across the block must equal the sum of the
  // per-query meters — nothing double-counted, nothing lost.
  llm::CostMeter before = db->model()->cost();
  std::vector<Session> sessions;
  std::vector<AsyncQuery> in_flight;
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(db->CreateSession());
    for (const std::string& sql : Queries()) {
      in_flight.push_back(sessions.back().QueryAsync(sql));
    }
  }
  llm::CostMeter summed;
  for (size_t i = 0; i < in_flight.size(); ++i) {
    const std::string& sql = Queries()[i % Queries().size()];
    auto result = in_flight[i].Join();
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
    const QueryResult& expected = reference[i % Queries().size()];
    EXPECT_TRUE(result->relation.SameContents(expected.relation)) << sql;
    ExpectSameMeter(result->cost, expected.cost,
                    "query " + std::to_string(i) + " (" + sql + ")");
    summed += result->cost;
  }
  llm::CostMeter stack_delta = db->model()->cost() - before;
  EXPECT_EQ(stack_delta.num_prompts, summed.num_prompts);
  EXPECT_EQ(stack_delta.prompt_tokens, summed.prompt_tokens);
  EXPECT_EQ(stack_delta.num_batches, summed.num_batches);
}

TEST(SessionConcurrencyTest, SharedMaterialisationCacheAcrossSessions) {
  std::unique_ptr<Database> db = OpenStressDb(/*with_table_cache=*/true);
  const std::string sql = Queries()[0];

  // Cold fill by one session.
  auto cold = db->CreateSession().Query(sql);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->table_cache_hits, 0);
  EXPECT_GT(cold->cost.num_prompts, 0);

  // Every later session — all concurrent — is served from the shared
  // cache: identical relation, zero LLM round trips, hit attributed to
  // the query that enjoyed it.
  std::vector<Session> sessions;
  std::vector<AsyncQuery> in_flight;
  for (int s = 0; s < 6; ++s) {
    sessions.push_back(db->CreateSession());
    in_flight.push_back(sessions.back().QueryAsync(sql));
  }
  for (AsyncQuery& pending : in_flight) {
    auto warm = pending.Join();
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_TRUE(warm->relation.SameContents(cold->relation));
    EXPECT_EQ(warm->table_cache_lookups, 1);
    EXPECT_EQ(warm->table_cache_hits, 1);
    EXPECT_EQ(warm->cost.num_prompts, 0);
  }
}

TEST(SessionOptionsTest, SnapshotTakenAtQueryEntry) {
  std::unique_ptr<Database> db = OpenStressDb(/*with_table_cache=*/false);
  const std::string sql = Queries()[0];

  core::ExecutionOptions original = StressOptions();
  original.verify_cells = false;  // the dispatched query's contract
  Session reference_session = db->CreateSession(original);
  // The reference follows a warm-up run of the query, so its key scan is
  // sized by an earlier scan, as the dispatched query's is.
  auto warm_up = reference_session.Query(sql);
  ASSERT_TRUE(warm_up.ok());
  auto expected = reference_session.Query(sql);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(expected->relation.SameContents(warm_up->relation));
  EXPECT_LE(expected->cost.num_prompts, warm_up->cost.num_prompts);

  Session session = db->CreateSession(original);
  AsyncQuery pending = session.QueryAsync(sql);
  // Mutating the session after dispatch must not leak into the query in
  // flight: the snapshot was taken synchronously inside QueryAsync.
  core::ExecutionOptions mutated = StressOptions();
  mutated.verify_cells = true;  // extra critic prompts, nothing else
  session.set_options(mutated);
  auto result = pending.Join();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->relation.SameContents(expected->relation));
  ExpectSameMeter(result->cost, expected->cost, "snapshotted query");

  // The mutation does govern the *next* query.
  EXPECT_TRUE(session.options().verify_cells);
  auto next = session.Query(sql);
  ASSERT_TRUE(next.ok());
  EXPECT_GT(next->cost.num_prompts, expected->cost.num_prompts);
}

TEST(SessionControlTest, PreCancelledTokenFailsFast) {
  std::unique_ptr<Database> db = OpenStressDb(/*with_table_cache=*/false);
  CancelToken control = std::make_shared<CancelState>();
  control->RequestCancel();
  auto result = db->CreateSession().Query(Queries()[0], control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  AsyncQuery pending =
      db->CreateSession().QueryAsync(Queries()[0], control);
  auto async_result = pending.Join();
  ASSERT_FALSE(async_result.ok());
  EXPECT_EQ(async_result.status().code(), StatusCode::kCancelled);
}

TEST(SessionControlTest, DeadlineExpiresSlowQuery) {
  // An external backend with 20 ms of real latency per round trip: the
  // scheduler's pre-round-trip check trips the 5 ms deadline after the
  // first scan page.
  llm::SimulatedLlm slow(&W().kb(), llm::ModelProfile::ChatGpt(),
                         &W().catalog(), 7);
  slow.set_wall_latency_ms(20.0);
  DatabaseOptions options;
  options.workload = &W();
  BackendSpec spec;
  spec.name = "slow";
  spec.external = &slow;
  options.backends.push_back(std::move(spec));
  options.execution.query_deadline_ms = 5;
  auto db = Database::Open(std::move(options));
  ASSERT_TRUE(db.ok()) << db.status();

  auto result = (*db)->CreateSession().Query(
      "SELECT name, capital, population FROM country");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
}

TEST(SessionControlTest, DeadlineNeverMutatesCallerToken) {
  // A deadline is armed on a private token chained onto the caller's,
  // so a caller token shared across queries is never poisoned by one
  // query's (expired) deadline.
  llm::SimulatedLlm slow(&W().kb(), llm::ModelProfile::ChatGpt(),
                         &W().catalog(), 7);
  slow.set_wall_latency_ms(20.0);
  DatabaseOptions slow_options;
  slow_options.workload = &W();
  BackendSpec spec;
  spec.name = "slow";
  spec.external = &slow;
  slow_options.backends.push_back(std::move(spec));
  slow_options.execution.query_deadline_ms = 5;
  auto slow_db = Database::Open(std::move(slow_options));
  ASSERT_TRUE(slow_db.ok()) << slow_db.status();

  CancelToken shared = std::make_shared<CancelState>();
  auto expired = (*slow_db)->CreateSession().Query(
      "SELECT name, capital FROM country", shared);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  // The same caller token on a deadline-free session still works.
  std::unique_ptr<Database> fast =
      OpenStressDb(/*with_table_cache=*/false);
  auto ok = fast->CreateSession().Query(Queries()[0], shared);
  EXPECT_TRUE(ok.ok()) << ok.status();

  // And the caller can still cancel through it.
  shared->RequestCancel();
  auto cancelled = fast->CreateSession().Query(Queries()[0], shared);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

TEST(SessionControlTest, CancelMidFlightStopsNewRoundTrips) {
  llm::SimulatedLlm slow(&W().kb(), llm::ModelProfile::ChatGpt(),
                         &W().catalog(), 7);
  slow.set_wall_latency_ms(10.0);
  DatabaseOptions options;
  options.workload = &W();
  BackendSpec spec;
  spec.name = "slow";
  spec.external = &slow;
  options.backends.push_back(std::move(spec));
  auto db = Database::Open(std::move(options));
  ASSERT_TRUE(db.ok()) << db.status();

  Session session = (*db)->CreateSession();
  AsyncQuery pending = session.QueryAsync(
      "SELECT name, capital, population, continent FROM country");
  pending.Cancel();
  auto result = pending.Join();
  // Either the cancel landed before the query finished (the overwhelming
  // case at ~10 ms per page) or the query won the race; both are valid
  // outcomes of cooperative cancellation — what is not allowed is any
  // other error.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status();
  }
}

TEST(DatabaseOpenTest, RejectsMisconfiguredBackends) {
  {
    DatabaseOptions options;
    options.workload = &W();
    BackendSpec spec;  // no source at all
    spec.name = "x";
    options.backends.push_back(std::move(spec));
    EXPECT_FALSE(Database::Open(std::move(options)).ok());
  }
  {
    DatabaseOptions options;
    options.workload = &W();
    BackendSpec a;
    a.name = "dup";
    a.simulated = llm::ModelProfile::Flan();
    BackendSpec b;
    b.name = "dup";
    b.simulated = llm::ModelProfile::ChatGpt();
    options.backends.push_back(std::move(a));
    options.backends.push_back(std::move(b));
    EXPECT_FALSE(Database::Open(std::move(options)).ok());
  }
  {
    DatabaseOptions options;
    options.workload = &W();
    options.execution.phase_models["critic"] = "nonexistent";
    EXPECT_FALSE(Database::Open(std::move(options)).ok());
  }
}

TEST(DatabaseOpenTest, RejectsAmbiguousCacheConfig) {
  // Borrow AND own at once is ambiguous; the old behaviour of silently
  // preferring the borrowed pointer hid misconfigurations.
  core::MaterialisationCache shared;
  DatabaseOptions options;
  options.workload = &W();
  options.materialisation_cache = &shared;
  options.enable_materialisation_cache = true;
  auto db = Database::Open(std::move(options));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatabaseOpenTest, BorrowedCacheOutlivesDatabase) {
  // The borrowed-cache contract: the cache outlives every Database using
  // it, and entries filled through one Database serve the next.
  core::MaterialisationCache shared;
  const std::string sql = Queries()[0];
  {
    DatabaseOptions options;
    options.workload = &W();
    options.materialisation_cache = &shared;
    auto db = Database::Open(std::move(options));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto cold = (*db)->CreateSession().Query(sql);
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_GT(cold->cost.num_prompts, 0);
  }  // first Database gone; the cache (and its entries) live on
  EXPECT_GT(shared.size(), 0u);

  DatabaseOptions options;
  options.workload = &W();
  options.materialisation_cache = &shared;
  auto db = Database::Open(std::move(options));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto warm = (*db)->CreateSession().Query(sql);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->table_cache_hits, 1);
  EXPECT_EQ(warm->cost.num_prompts, 0);
}

TEST(DatabaseOpenTest, StoreSinkDetachesFromBorrowedCacheOnClose) {
  // A store-backed Database attaches its persistence sink to the
  // borrowed cache for its lifetime only. After the Database closes,
  // mutating the cache must neither crash (dangling sink) nor reach the
  // journal — observable because a post-close Clear() does NOT clear the
  // store, so the next open still recovers everything.
  core::MaterialisationCache shared;
  const std::string dir = ::testing::TempDir() + "galois_borrow_store";
  std::remove((dir + "/galois.store").c_str());
  std::remove((dir + "/galois.store.tmp").c_str());
  const std::string sql = Queries()[0];

  {
    llm::SimulatedLlm transport(&W().kb(), llm::ModelProfile::ChatGpt(),
                                &W().catalog(), 7);
    DatabaseOptions options;
    options.workload = &W();
    options.materialisation_cache = &shared;
    options.store.path = dir;
    options.store.background_vacuum = false;
    BackendSpec spec;
    spec.name = "sim";
    spec.external = &transport;
    options.backends.push_back(std::move(spec));
    auto db = Database::Open(std::move(options));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->CreateSession().Query(sql).ok());
    EXPECT_GT((*db)->store()->stats().live_materialisations, 0);
  }  // Database closed: sink detached, store closed

  // With the sink gone this touches only memory, not the journal.
  shared.Clear();
  EXPECT_EQ(shared.size(), 0u);

  // A second store-backed Database re-borrows the same cache: the
  // journal (uncleared!) warm-starts it, and the query costs nothing.
  llm::SimulatedLlm transport(&W().kb(), llm::ModelProfile::ChatGpt(),
                              &W().catalog(), 7);
  DatabaseOptions options;
  options.workload = &W();
  options.materialisation_cache = &shared;
  options.store.path = dir;
  options.store.background_vacuum = false;
  BackendSpec spec;
  spec.name = "sim";
  spec.external = &transport;
  options.backends.push_back(std::move(spec));
  auto db = Database::Open(std::move(options));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_GT((*db)->store()->stats().materialisations_recovered, 0)
      << "post-close Clear() reached the journal: sink not detached";
  auto warm = (*db)->CreateSession().Query(sql);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->cost.num_prompts, 0);
  EXPECT_EQ(warm->table_cache_store_hits, 1);
  EXPECT_EQ(transport.cost().num_prompts, 0);
}

TEST(DatabaseOpenTest, RoutedCascadeAttributesPerBackend) {
  DatabaseOptions options;
  options.workload = &W();
  BackendSpec cheap;
  cheap.name = "flan";
  cheap.simulated = llm::ModelProfile::Flan();
  BackendSpec strong;
  strong.name = "chatgpt";
  strong.simulated = llm::ModelProfile::ChatGpt();
  options.backends.push_back(std::move(cheap));
  options.backends.push_back(std::move(strong));
  options.default_backend = "flan";
  options.execution.batch_prompts = true;
  options.execution.verify_cells = true;
  options.execution.phase_models["critic"] = "chatgpt";
  auto db = Database::Open(std::move(options));
  ASSERT_TRUE(db.ok()) << db.status();

  auto result = (*db)->CreateSession().Query(
      "SELECT name, capital FROM country WHERE continent = 'Oceania'");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->cost.by_model.size(), 2u);
  const llm::ModelUsage& cheap_usage =
      result->cost.by_model.at(llm::ModelProfile::Flan().name);
  const llm::ModelUsage& strong_usage =
      result->cost.by_model.at(llm::ModelProfile::ChatGpt().name);
  EXPECT_GT(strong_usage.num_prompts, 0);
  EXPECT_GT(cheap_usage.num_prompts, strong_usage.num_prompts);
  EXPECT_EQ(cheap_usage.num_prompts + strong_usage.num_prompts,
            result->cost.num_prompts);
}

}  // namespace
}  // namespace galois
