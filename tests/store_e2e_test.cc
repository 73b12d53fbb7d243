// The persistent store's headline contract, end to end: run the full
// 46-query workload, kill the process (destroy the Database), open a
// fresh one over the same store directory, and the rerun is
// BYTE-IDENTICAL with ZERO LLM round trips — every table comes from the
// warm-started materialisation cache, every stray prompt from the
// preloaded prompt cache, and the transport's own meter (an external
// SimulatedLlm we hold) proves nothing reached the model.
//
// Also in the TSan CI net: a concurrent-sessions hammer where many
// threads' cache traffic funnels into one shared journal (appends,
// touches, vacuums, stats snapshots racing), plus the prompt-store-only
// warm path and per-model completion attribution.

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

std::string StoreDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "galois_e2e_" + name;
  std::remove((dir + "/galois.store").c_str());
  std::remove((dir + "/galois.store.tmp").c_str());
  std::remove(dir.c_str());
  return dir;
}

/// A store-backed Database over an external SimulatedLlm whose meter we
/// keep: the transport-level round-trip count no cache can fake. A
/// `second` transport is registered as a second backend, so the
/// Database routes.
std::unique_ptr<Database> OpenStoreDb(const std::string& store_dir,
                                      llm::LanguageModel* transport,
                                      bool table_cache,
                                      llm::LanguageModel* second = nullptr) {
  DatabaseOptions options;
  options.workload = &W();
  BackendSpec spec;
  spec.name = "sim";
  spec.external = transport;
  spec.prompt_cache = true;  // completions must be captured to persist
  options.backends.push_back(spec);
  if (second != nullptr) {
    spec.name = "second";
    spec.external = second;
    options.backends.push_back(spec);
  }
  options.enable_materialisation_cache = table_cache;
  options.store.path = store_dir;
  options.store.background_vacuum = false;  // deterministic
  auto db = Database::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

llm::SimulatedLlm MakeTransport() {
  return llm::SimulatedLlm(&W().kb(), llm::ModelProfile::ChatGpt(),
                           &W().catalog(), /*seed=*/7);
}

TEST(StoreE2eTest, ColdProcessRerunIsByteIdenticalWithZeroRoundTrips) {
  const std::string dir = StoreDir("workload");

  // --- process 1: the paying run -------------------------------------
  std::vector<std::string> cold_csv;
  int64_t cold_round_trips = 0;
  {
    llm::SimulatedLlm transport = MakeTransport();
    auto db = OpenStoreDb(dir, &transport, /*table_cache=*/true);
    Session session = db->CreateSession();
    for (const knowledge::QuerySpec& query : W().queries()) {
      auto result = session.Query(query.sql);
      ASSERT_TRUE(result.ok())
          << "q" << query.id << ": " << result.status();
      cold_csv.push_back(result->relation.ToCsv());
      // Nothing is warm yet: no store hits on the paying run.
      EXPECT_EQ(result->table_cache_store_hits, 0) << "q" << query.id;
      EXPECT_EQ(result->cost.store_hits, 0) << "q" << query.id;
    }
    cold_round_trips = transport.cost().num_prompts;
    EXPECT_GT(cold_round_trips, 0);
    auto stats = db->store()->stats();
    EXPECT_GT(stats.live_materialisations, 0);
    EXPECT_GT(stats.live_prompts, 0);
    EXPECT_EQ(stats.append_errors, 0);
  }  // Database destroyed = process exit; kOnClose syncs the journal.

  // --- process 2: a cold process over the same directory -------------
  llm::SimulatedLlm transport = MakeTransport();
  auto db = OpenStoreDb(dir, &transport, /*table_cache=*/true);
  {
    auto stats = db->store()->stats();
    EXPECT_GT(stats.materialisations_recovered, 0);
    EXPECT_GT(stats.prompts_recovered, 0);
    EXPECT_EQ(stats.records_dropped, 0);
  }
  Session session = db->CreateSession();
  int64_t store_served_tables = 0;
  size_t i = 0;
  for (const knowledge::QuerySpec& query : W().queries()) {
    auto result = session.Query(query.sql);
    ASSERT_TRUE(result.ok()) << "q" << query.id << ": " << result.status();
    // Byte-identical: the exact CSV rendering, not just set equality.
    EXPECT_EQ(result->relation.ToCsv(), cold_csv[i])
        << "q" << query.id << " diverged after warm start";
    // Zero LLM round trips, per query.
    EXPECT_EQ(result->cost.num_prompts, 0)
        << "q" << query.id << " paid the LLM again";
    store_served_tables += result->table_cache_store_hits;
    ++i;
  }
  // And at the transport itself: the model was never called.
  EXPECT_EQ(transport.cost().num_prompts, 0);
  EXPECT_GT(store_served_tables, 0) << "no table came from the store";
}

TEST(StoreE2eTest, PromptStoreAloneServesEveryCompletion) {
  const std::string dir = StoreDir("prompts_only");
  const std::string sql =
      "SELECT name, capital FROM country WHERE continent = 'Europe'";

  // Paying run WITHOUT a materialisation cache: only prompt completions
  // are journaled.
  std::string cold_csv;
  {
    llm::SimulatedLlm transport = MakeTransport();
    auto db = OpenStoreDb(dir, &transport, /*table_cache=*/false);
    auto result = db->CreateSession().Query(sql);
    ASSERT_TRUE(result.ok()) << result.status();
    cold_csv = result->relation.ToCsv();
    EXPECT_GT(transport.cost().num_prompts, 0);
    EXPECT_GT(db->store()->stats().live_prompts, 0);
    EXPECT_EQ(db->store()->stats().live_materialisations, 0);
  }

  // Warm process: every prompt the executor issues is answered from the
  // preloaded prompt cache — zero transport round trips even with no
  // table-level cache at all.
  llm::SimulatedLlm transport = MakeTransport();
  auto db = OpenStoreDb(dir, &transport, /*table_cache=*/false);
  auto result = db->CreateSession().Query(sql);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->relation.ToCsv(), cold_csv);
  EXPECT_EQ(transport.cost().num_prompts, 0);
  EXPECT_GT(result->cost.store_hits, 0);
  EXPECT_EQ(result->table_cache_store_hits, 0);  // no table cache exists
}

TEST(StoreE2eTest, PromptRecordsNeverCrossModels) {
  // Prompt records are keyed by the transport's MODEL name, not the
  // backend label: swapping the model under an unchanged label must not
  // feed it another model's completions.
  const std::string dir = StoreDir("per_model");
  const std::string sql =
      "SELECT name, population FROM city WHERE country = 'Italy'";

  // Paying run: backend "sim" over the ChatGPT-profile model.
  {
    llm::SimulatedLlm transport = MakeTransport();
    auto db = OpenStoreDb(dir, &transport, /*table_cache=*/false);
    ASSERT_TRUE(db->CreateSession().Query(sql).ok());
    EXPECT_GT(db->store()->stats().live_prompts, 0);
  }

  // Warm open: same backend label, but a Flan-profile model underneath.
  // The journaled ChatGPT completions must NOT preload it.
  llm::SimulatedLlm other(&W().kb(), llm::ModelProfile::Flan(),
                          &W().catalog(), /*seed=*/7);
  auto db = OpenStoreDb(dir, &other, /*table_cache=*/false);
  auto result = db->CreateSession().Query(sql);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(other.cost().num_prompts, 0)
      << "completions leaked across model names";
  EXPECT_EQ(result->cost.store_hits, 0);
}

TEST(StoreE2eTest, RoutedStackCountsStoreHits) {
  // Two backends make the Database route, so model() is the router and
  // its cost() sums the backends' meters. The prompt-store hits that
  // warm-started caches serve must reach that total-spend meter, exactly
  // as the per-query meters count them.
  const std::string dir = StoreDir("routed");
  const std::vector<std::string> queries = {
      "SELECT name, capital FROM country WHERE continent = 'Europe'",
      "SELECT name, population FROM city WHERE country = 'Italy'",
  };
  llm::SimulatedLlm strong(&W().kb(), llm::ModelProfile::Gpt3(),
                           &W().catalog(), /*seed=*/7);
  {
    llm::SimulatedLlm transport = MakeTransport();
    auto db = OpenStoreDb(dir, &transport, /*table_cache=*/false, &strong);
    Session session = db->CreateSession();
    for (const std::string& sql : queries) {
      ASSERT_TRUE(session.Query(sql).ok()) << sql;
    }
  }

  llm::SimulatedLlm transport = MakeTransport();
  auto db = OpenStoreDb(dir, &transport, /*table_cache=*/false, &strong);
  Session session = db->CreateSession();
  int64_t query_store_hits = 0;
  for (const std::string& sql : queries) {
    auto result = session.Query(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
    query_store_hits += result->cost.store_hits;
  }
  EXPECT_GT(query_store_hits, 0);
  EXPECT_EQ(db->model()->cost().store_hits, query_store_hits);
}

// The TSan target: many sessions' queries funnel their cache traffic
// into ONE shared journal — concurrent appends (inserts), touches
// (hits), stats snapshots and an explicit vacuum race on the store
// mutex. Results must still be correct, and a reopen must recover a
// coherent journal.
TEST(StoreE2eTest, ConcurrentSessionsHammerSharedStore) {
  const std::string dir = StoreDir("hammer");
  const std::vector<std::string> queries = {
      "SELECT name, capital FROM country WHERE continent = 'Europe'",
      "SELECT name, population FROM city WHERE country = 'Italy'",
      "SELECT name, speakers FROM language",
      "SELECT name, foundedYear FROM airline",
  };

  std::vector<std::string> reference;
  {
    llm::SimulatedLlm transport = MakeTransport();
    auto db = OpenStoreDb(dir, &transport, /*table_cache=*/true);

    // Sequential reference pass (also the journal's paying pass).
    Session ref_session = db->CreateSession();
    for (const std::string& sql : queries) {
      auto result = ref_session.Query(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
      reference.push_back(result->relation.ToCsv());
    }

    // 6 sessions x 4 queries in flight at once: every hit Touches the
    // store, every (rare) insert appends, while this thread polls stats
    // and vacuums underneath them.
    std::vector<Session> sessions;
    std::vector<AsyncQuery> in_flight;
    for (int s = 0; s < 6; ++s) {
      sessions.push_back(db->CreateSession());
      for (const std::string& sql : queries) {
        in_flight.push_back(sessions.back().QueryAsync(sql));
      }
    }
    for (int poke = 0; poke < 8; ++poke) {
      (void)db->store()->stats();
      if (poke == 3) (void)db->store()->Vacuum();
    }
    for (size_t i = 0; i < in_flight.size(); ++i) {
      auto result = in_flight[i].Join();
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->relation.ToCsv(),
                reference[i % queries.size()]);
    }
    EXPECT_EQ(db->store()->stats().append_errors, 0);
  }

  // The hammered journal reopens coherent and fully warm.
  llm::SimulatedLlm transport = MakeTransport();
  auto db = OpenStoreDb(dir, &transport, /*table_cache=*/true);
  Session session = db->CreateSession();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = session.Query(queries[i]);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->relation.ToCsv(), reference[i]);
    EXPECT_EQ(result->cost.num_prompts, 0);
  }
  EXPECT_EQ(transport.cost().num_prompts, 0);
}

TEST(StoreE2eTest, ClearedCacheStaysClearedAcrossRestart) {
  const std::string dir = StoreDir("clear");
  const std::string sql = "SELECT name, speakers FROM language";
  {
    llm::SimulatedLlm transport = MakeTransport();
    auto db = OpenStoreDb(dir, &transport, /*table_cache=*/true);
    ASSERT_TRUE(db->CreateSession().Query(sql).ok());
    EXPECT_GT(db->store()->stats().live_materialisations, 0);
    // A cache clear must persist: the journal gets a clear marker.
    db->materialisation_cache()->Clear();
    EXPECT_EQ(db->store()->stats().live_materialisations, 0);
  }
  llm::SimulatedLlm transport = MakeTransport();
  auto db = OpenStoreDb(dir, &transport, /*table_cache=*/true);
  EXPECT_EQ(db->store()->stats().materialisations_recovered, 0)
      << "cleared tables were resurrected by the reopen";
  // The query still works — paid again, as a clear demands.
  auto result = db->CreateSession().Query(sql);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->table_cache_store_hits, 0);
}

}  // namespace
}  // namespace galois
