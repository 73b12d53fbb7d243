// Predicate-subsumption caching end to end: an overlapping range
// workload where exact-fingerprint matching would hit ~0% is served
// almost entirely by subsumption with zero LLM round trips and
// byte-identical relations (serial and overlapped phases), the reordered-
// WHERE canonicalisation regression, the residual operator in Explain,
// and a concurrent-sessions hammer over a shared cache.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/database.h"
#include "core/galois_executor.h"
#include "core/materialisation_cache.h"
#include "knowledge/workload.h"
#include "llm/simulated_llm.h"

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

/// Noise-free profile: residual in-memory re-checks must agree with the
/// model's filter verdicts exactly, so equivalence asserts byte
/// identity, not approximation.
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

/// The overlapping workload: the first (widest) query pays for the
/// materialisation, every later filter is strictly stronger — distinct
/// descriptors (so exact matching would miss all of them), all
/// contained in the first one's rows.
std::vector<std::string> OverlappingQueries() {
  return {
      "SELECT name, population FROM country WHERE population > 1000000",
      "SELECT name, population FROM country WHERE population > 50000000",
      "SELECT name, population FROM country WHERE population >= 100000000",
      "SELECT c.name, c.population FROM country c "
      "WHERE c.population > 50000000 AND c.population < 200000000",
      "SELECT name, population FROM country WHERE population > 250000000",
  };
}

TEST(PredicateSubsumptionTest, OverlappingWorkloadServedBySubsumption) {
  for (int parallel_batches : {1, 4}) {
    SCOPED_TRACE("parallel_batches=" + std::to_string(parallel_batches));
    llm::SimulatedLlm model(&W().kb(), PerfectProfile(), &W().catalog(), 7);
    ExecutionOptions options;
    options.parallel_batches = parallel_batches;
    GaloisExecutor cached(&model, &W().catalog(), options);
    MaterialisationCache cache;
    cached.set_materialisation_cache(&cache);

    // Uncached reference runs on its own model instance with the same
    // seed: what each query would produce with no reuse at all.
    llm::SimulatedLlm fresh_model(&W().kb(), PerfectProfile(),
                                  &W().catalog(), 7);
    GaloisExecutor uncached(&fresh_model, &W().catalog(), options);

    int64_t exact = 0;
    int64_t subsumed = 0;
    int64_t lookups = 0;
    const std::vector<std::string> queries = OverlappingQueries();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto got = cached.RunSql(queries[i]);
      ASSERT_TRUE(got.ok()) << queries[i] << ": " << got.status();
      auto want = uncached.ExecuteSql(queries[i]);
      ASSERT_TRUE(want.ok());
      // Byte-identical to a from-scratch run — the residual filter must
      // reproduce the model's verdicts exactly.
      EXPECT_TRUE(got->relation.SameContents(*want)) << queries[i];
      lookups += got->table_cache_lookups;
      exact += got->table_cache_exact_hits;
      subsumed += got->table_cache_subsumption_hits;
      if (i > 0) {
        // Every follow-up is served from the widest entry: zero LLM
        // round trips.
        EXPECT_EQ(got->cost.num_prompts, 0) << queries[i];
        EXPECT_EQ(got->table_cache_subsumption_hits, 1) << queries[i];
      }
    }
    EXPECT_EQ(lookups, static_cast<int64_t>(queries.size()));
    // The workload never repeats a descriptor: exact matching alone
    // would serve 0%; subsumption serves all but the cold query (80%).
    EXPECT_EQ(exact, 0);
    EXPECT_GE(static_cast<double>(subsumed) / static_cast<double>(lookups),
              0.6);
  }
}

TEST(PredicateSubsumptionTest, ReorderedWhereConjunctsHitExactly) {
  llm::SimulatedLlm model(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  ExecutionOptions options;
  options.pushdown_policy = PushdownPolicy::kNever;
  GaloisExecutor galois(&model, &W().catalog(), options);
  MaterialisationCache cache;
  galois.set_materialisation_cache(&cache);

  auto first = galois.RunSql(
      "SELECT name FROM country "
      "WHERE continent = 'Europe' AND population > 10000000");
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->cost.num_prompts, 0);

  // Same conjuncts, opposite order: canonicalisation makes this the
  // same descriptor — an *exact* hit, no residual work.
  auto reordered = galois.RunSql(
      "SELECT name FROM country "
      "WHERE population > 10000000 AND continent = 'Europe'");
  ASSERT_TRUE(reordered.ok());
  EXPECT_EQ(reordered->cost.num_prompts, 0);
  EXPECT_EQ(reordered->table_cache_exact_hits, 1);
  EXPECT_EQ(reordered->table_cache_subsumption_hits, 0);
  EXPECT_TRUE(first->relation.SameContents(reordered->relation));
}

TEST(PredicateSubsumptionTest, ResidualFilterAppearsInExplain) {
  llm::SimulatedLlm model(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  GaloisExecutor galois(&model, &W().catalog());
  MaterialisationCache cache;
  galois.set_materialisation_cache(&cache);

  ASSERT_TRUE(galois
                  .RunSql("SELECT name, population FROM country "
                          "WHERE population > 1000000")
                  .ok());
  auto warm = galois.RunSql(
      "SELECT name, population FROM country WHERE population > 100000000");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->table_cache_subsumption_hits, 1);
  // The in-memory re-check is a first-class operator with cost
  // attribution (zero LLM spend) in the physical plan report.
  EXPECT_NE(warm->physical_plan.find("ResidualFilter"), std::string::npos)
      << warm->physical_plan;
  EXPECT_NE(warm->physical_plan.find("population > 100000000"),
            std::string::npos)
      << warm->physical_plan;

  // An exact warm hit has no residual work, so no such operator.
  auto exact = galois.RunSql(
      "SELECT name, population FROM country WHERE population > 1000000");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->table_cache_exact_hits, 1);
  EXPECT_EQ(exact->physical_plan.find("ResidualFilter"), std::string::npos)
      << exact->physical_plan;
}

TEST(PredicateSubsumptionTest, LikeFilteredQueryIsNeverSubsumed) {
  llm::SimulatedLlm model(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  GaloisExecutor galois(&model, &W().catalog());
  MaterialisationCache cache;
  galois.set_materialisation_cache(&cache);

  // Unfiltered scan cached first: a superset of everything.
  ASSERT_TRUE(galois.RunSql("SELECT name, capital FROM country").ok());
  // LIKE has no engine-side mirror of the model's pattern semantics, so
  // the wider entry must NOT serve it — the query pays full price.
  auto like = galois.RunSql(
      "SELECT name, capital FROM country WHERE name LIKE '%land%'");
  ASSERT_TRUE(like.ok());
  EXPECT_EQ(like->table_cache_hits, 0);
  EXPECT_GT(like->cost.num_prompts, 0);

  // But an identical LIKE descriptor is a plain exact hit.
  auto again = galois.RunSql(
      "SELECT name, capital FROM country WHERE name LIKE '%land%'");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->table_cache_exact_hits, 1);
  EXPECT_EQ(again->cost.num_prompts, 0);
  EXPECT_TRUE(like->relation.SameContents(again->relation));
}

TEST(PredicateSubsumptionTest, LimitBoundedEntryNeverServesBroader) {
  llm::SimulatedLlm model(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  ExecutionOptions options;
  GaloisExecutor galois(&model, &W().catalog(), options);
  MaterialisationCache cache;
  galois.set_materialisation_cache(&cache);

  // A filterless LIMIT is the one shape the planner provably bounds the
  // key scan with (scan_key_limit = 2): the materialised entry is a
  // genuine prefix of the table, not the whole table.
  auto bounded = galois.RunSql("SELECT name, population FROM country LIMIT 2");
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded->relation.NumRows(), 2u);

  // The unbounded query must not be served from that prefix — it would
  // silently lose rows.
  auto unbounded = galois.RunSql("SELECT name, population FROM country");
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(unbounded->table_cache_hits, 0);
  EXPECT_GT(unbounded->cost.num_prompts, 0);
  EXPECT_GT(unbounded->relation.NumRows(), 2u);

  // Rerunning the bounded query finds its own prefix entry — an exact
  // hit beats subsuming the wider entry.
  auto bounded_again = galois.RunSql(
      "SELECT name, population FROM country LIMIT 2");
  ASSERT_TRUE(bounded_again.ok());
  EXPECT_EQ(bounded_again->cost.num_prompts, 0);
  EXPECT_EQ(bounded_again->table_cache_exact_hits, 1);
  EXPECT_TRUE(bounded_again->relation.SameContents(bounded->relation));

  // The reverse direction is legal: with only the unbounded entry
  // cached, the bounded query is served by subsumption and the plan's
  // Limit node re-applies the bound.
  MaterialisationCache fresh;
  llm::SimulatedLlm model2(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  GaloisExecutor galois2(&model2, &W().catalog(), options);
  galois2.set_materialisation_cache(&fresh);
  ASSERT_TRUE(galois2.RunSql("SELECT name, population FROM country").ok());
  auto bounded_by_subsumption =
      galois2.RunSql("SELECT name, population FROM country LIMIT 2");
  ASSERT_TRUE(bounded_by_subsumption.ok());
  EXPECT_EQ(bounded_by_subsumption->cost.num_prompts, 0);
  EXPECT_EQ(bounded_by_subsumption->table_cache_subsumption_hits, 1);
  EXPECT_TRUE(bounded_by_subsumption->relation.SameContents(bounded->relation));

  // And by contrast, a LIMIT under a WHERE cannot bound the scan, so its
  // entry holds the full filtered table and legally serves the unbounded
  // variant of the same filter.
  auto filtered_limit = galois.RunSql(
      "SELECT name, population FROM country "
      "WHERE population > 1000000 LIMIT 2");
  ASSERT_TRUE(filtered_limit.ok());
  auto filtered_full = galois.RunSql(
      "SELECT name, population FROM country WHERE population > 1000000");
  ASSERT_TRUE(filtered_full.ok());
  EXPECT_EQ(filtered_full->table_cache_hits, 1);
  EXPECT_EQ(filtered_full->cost.num_prompts, 0);
  EXPECT_GT(filtered_full->relation.NumRows(), 2u);
}

TEST(PredicateSubsumptionTest, ConcurrentSessionsHammerSharedCache) {
  // Many sessions racing overlapping queries against one Database-owned
  // cache: every result must equal its uncached reference, and the
  // combined traffic must show real subsumption reuse. Run under TSan
  // in CI.
  DatabaseOptions options;
  options.workload = &W();
  BackendSpec backend;
  backend.simulated = PerfectProfile();
  backend.name = "perfect";
  options.backends.push_back(backend);
  options.enable_materialisation_cache = true;
  auto db = Database::Open(std::move(options));
  ASSERT_TRUE(db.ok());

  llm::SimulatedLlm fresh_model(&W().kb(), PerfectProfile(), &W().catalog(),
                                7);
  GaloisExecutor uncached(&fresh_model, &W().catalog());
  const std::vector<std::string> queries = OverlappingQueries();
  std::vector<Relation> expected;
  for (const std::string& sql : queries) {
    auto want = uncached.ExecuteSql(sql);
    ASSERT_TRUE(want.ok());
    expected.push_back(std::move(*want));
  }

  // The widest query completes first, so every later lookup of a
  // narrower query finds it: the subsumption reuse asserted below does
  // not depend on how the concurrent rounds interleave.
  Session warm = (*db)->CreateSession();
  auto widest = warm.Query(queries[0]);
  ASSERT_TRUE(widest.ok()) << widest.status();
  EXPECT_TRUE(widest->relation.SameContents(expected[0]));

  constexpr int kRounds = 4;
  std::vector<Session> sessions;
  std::vector<AsyncQuery> inflight;
  std::vector<size_t> which;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t q = 0; q < queries.size(); ++q) {
      sessions.push_back((*db)->CreateSession());
      inflight.push_back(sessions.back().QueryAsync(queries[q]));
      which.push_back(q);
    }
  }
  int64_t subsumed = 0;
  for (size_t i = 0; i < inflight.size(); ++i) {
    auto got = inflight[i].Join();
    ASSERT_TRUE(got.ok()) << queries[which[i]] << ": " << got.status();
    EXPECT_TRUE(got->relation.SameContents(expected[which[i]]))
        << queries[which[i]];
    subsumed += got->table_cache_subsumption_hits;
  }
  EXPECT_GT(subsumed, 0);
  auto stats = (*db)->materialisation_cache()->stats();
  EXPECT_EQ(stats.lookups,
            static_cast<int64_t>(kRounds * queries.size()) + 1);
  EXPECT_GT(stats.predicate_subsumption_hits, 0);
}

}  // namespace
}  // namespace galois::core
