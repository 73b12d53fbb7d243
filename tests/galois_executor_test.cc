// Integration tests for the Galois executor: LLM-backed SPJA execution,
// hybrid queries, ablation options, and a parameterized schema-contract
// property over all 46 workload queries.

#include <gtest/gtest.h>

#include "core/galois_executor.h"
#include "engine/executor.h"
#include "knowledge/workload.h"
#include "llm/prompt_cache.h"
#include "llm/simulated_llm.h"
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

/// A profile with no noise at all: Galois over it must match the ground
/// truth exactly, which isolates executor bugs from model noise.
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

class GaloisExecutorTest : public ::testing::Test {
 protected:
  GaloisExecutorTest()
      : perfect_(&W().kb(), PerfectProfile(), &W().catalog(), 7),
        noisy_(&W().kb(), llm::ModelProfile::ChatGpt(), &W().catalog(), 7) {}

  llm::SimulatedLlm perfect_;
  llm::SimulatedLlm noisy_;
};

TEST_F(GaloisExecutorTest, PerfectModelMatchesGroundTruthSelection) {
  GaloisExecutor galois(&perfect_, &W().catalog());
  const char* sql = "SELECT name FROM country WHERE continent = 'Europe'";
  auto rm = galois.ExecuteSql(sql);
  auto rd = engine::ExecuteSql(sql, W().catalog());
  ASSERT_TRUE(rm.ok()) << rm.status();
  ASSERT_TRUE(rd.ok());
  EXPECT_TRUE(rm->SameContents(*rd));
}

TEST_F(GaloisExecutorTest, PerfectModelMatchesGroundTruthAggregate) {
  GaloisExecutor galois(&perfect_, &W().catalog());
  const char* sql =
      "SELECT continent, COUNT(*) FROM country GROUP BY continent";
  auto rm = galois.ExecuteSql(sql);
  auto rd = engine::ExecuteSql(sql, W().catalog());
  ASSERT_TRUE(rm.ok()) << rm.status();
  EXPECT_TRUE(rm->SameContents(*rd));
}

TEST_F(GaloisExecutorTest, PerfectModelMatchesGroundTruthJoin) {
  GaloisExecutor galois(&perfect_, &W().catalog());
  const char* sql =
      "SELECT ci.name, co.continent FROM city ci, country co "
      "WHERE ci.country = co.name";
  auto rm = galois.ExecuteSql(sql);
  auto rd = engine::ExecuteSql(sql, W().catalog());
  ASSERT_TRUE(rm.ok()) << rm.status();
  EXPECT_TRUE(rm->SameContents(*rd));
}

TEST_F(GaloisExecutorTest, PerfectModelMatchesGroundTruthDates) {
  GaloisExecutor galois(&perfect_, &W().catalog());
  const char* sql =
      "SELECT c.name, cm.birthDate FROM city c, cityMayor cm "
      "WHERE c.mayor = cm.name AND cm.electionYear = 2019";
  auto rm = galois.ExecuteSql(sql);
  auto rd = engine::ExecuteSql(sql, W().catalog());
  ASSERT_TRUE(rm.ok()) << rm.status();
  EXPECT_TRUE(rm->SameContents(*rd));
}

TEST_F(GaloisExecutorTest, OutputSchemaMatchesGroundTruthByConstruction) {
  // Paper: "all output relations have the expected schema ... obtained by
  // construction from the execution of the query plan".
  GaloisExecutor galois(&noisy_, &W().catalog());
  for (int id : {1, 17, 21, 32, 40}) {
    const knowledge::QuerySpec* spec = W().GetQuery(id).value();
    auto rm = galois.ExecuteSql(spec->sql);
    auto rd = engine::ExecuteSql(spec->sql, W().catalog());
    ASSERT_TRUE(rm.ok()) << spec->sql << " -> " << rm.status();
    ASSERT_TRUE(rd.ok());
    ASSERT_EQ(rm->NumColumns(), rd->NumColumns()) << spec->sql;
    for (size_t c = 0; c < rd->NumColumns(); ++c) {
      EXPECT_EQ(rm->schema().column(c).name, rd->schema().column(c).name);
    }
  }
}

TEST_F(GaloisExecutorTest, CostTrackedPerQuery) {
  GaloisExecutor galois(&noisy_, &W().catalog());
  auto first = galois.RunSql(
      "SELECT name FROM country WHERE continent = 'Europe'");
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->cost.num_prompts, 10);  // scan pages + per-key checks
  auto second = galois.RunSql(
      "SELECT capital FROM country WHERE name = 'France'");
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->cost.num_prompts, 0);
  EXPECT_LT(second->cost.num_prompts, first->cost.num_prompts * 3);
}

TEST_F(GaloisExecutorTest, PushdownReducesPrompts) {
  ExecutionOptions plain;
  GaloisExecutor galois_plain(&noisy_, &W().catalog(), plain);
  const char* sql = "SELECT name FROM city WHERE population > 5000000";
  auto plain_out = galois_plain.RunSql(sql);
  ASSERT_TRUE(plain_out.ok());
  int64_t prompts_plain = plain_out->cost.num_prompts;

  ExecutionOptions pushdown;
  pushdown.pushdown_policy = PushdownPolicy::kAlways;
  GaloisExecutor galois_push(&noisy_, &W().catalog(), pushdown);
  auto push_out = galois_push.RunSql(sql);
  ASSERT_TRUE(push_out.ok());
  int64_t prompts_push = push_out->cost.num_prompts;

  // Pushing the selection into the scan removes the per-key filter
  // prompts (Section 6).
  EXPECT_LT(prompts_push, prompts_plain / 2);
}

TEST_F(GaloisExecutorTest, CleaningOffKeepsRawStrings) {
  ExecutionOptions raw;
  raw.enable_cleaning = false;
  raw.llm_filter_checks = true;
  GaloisExecutor galois(&noisy_, &W().catalog(), raw);
  auto rm = galois.ExecuteSql(
      "SELECT name, population FROM country WHERE continent = 'Europe'");
  ASSERT_TRUE(rm.ok()) << rm.status();
  size_t pop_idx = 1;
  int strings = 0;
  for (const Tuple& row : rm->rows()) {
    if (row[pop_idx].type() == DataType::kString) ++strings;
  }
  // Without cleaning the numeric column stays textual.
  EXPECT_GT(strings, 0);
}

TEST_F(GaloisExecutorTest, DomainEnforcementRejectsOutliers) {
  // A model that always hallucinates years wildly: domains must null them.
  llm::ModelProfile wild = PerfectProfile();
  wild.fact_accuracy = 1.0;
  llm::SimulatedLlm model(&W().kb(), wild, &W().catalog(), 7);
  ExecutionOptions opts;
  opts.enforce_domains = true;
  GaloisExecutor galois(&model, &W().catalog(), opts);
  auto rm = galois.ExecuteSql(
      "SELECT name, foundedYear FROM airline WHERE foundedYear < 1940");
  ASSERT_TRUE(rm.ok());
  for (const Tuple& row : rm->rows()) {
    if (!row[1].is_null()) {
      EXPECT_GE(row[1].int_value(), 1000);
      EXPECT_LE(row[1].int_value(), 2100);
    }
  }
}

TEST_F(GaloisExecutorTest, EngineSideFiltersWhenLlmChecksDisabled) {
  ExecutionOptions engine_side;
  engine_side.llm_filter_checks = false;
  GaloisExecutor galois(&perfect_, &W().catalog(), engine_side);
  const char* sql = "SELECT name FROM country WHERE continent = 'Europe'";
  auto rm = galois.ExecuteSql(sql);
  auto rd = engine::ExecuteSql(sql, W().catalog());
  ASSERT_TRUE(rm.ok()) << rm.status();
  EXPECT_TRUE(rm->SameContents(*rd));
}

TEST_F(GaloisExecutorTest, HybridLlmDbJoin) {
  GaloisExecutor galois(&perfect_, &W().catalog());
  auto rm = galois.RunSql(
      "SELECT c.gdp, AVG(e.salary) FROM LLM.country c, DB.Employees e "
      "WHERE c.code = e.countryCode GROUP BY c.name");
  ASSERT_TRUE(rm.ok()) << rm.status();
  auto rd = engine::ExecuteSql(
      "SELECT c.gdp, AVG(e.salary) FROM country c, Employees e "
      "WHERE c.code = e.countryCode GROUP BY c.name",
      W().catalog());
  ASSERT_TRUE(rd.ok());
  EXPECT_TRUE(rm->relation.SameContents(*rd));
  // The DB side must not consume prompts: only country attrs prompted.
  EXPECT_GT(rm->cost.num_prompts, 0);
}

// ---------------------------------------------------------------------
// Shards and overlays: the two halves of cluster scatter-gather.
// ---------------------------------------------------------------------

/// The request a coordinator would send for `spec` of `sql`.
ShardRequest RequestFor(const ShardSpec& spec, const std::string& sql) {
  ShardRequest request;
  static_cast<ShardSpec&>(request) = spec;
  request.sql = sql;
  return request;
}

TEST_F(GaloisExecutorTest, ShardRejectsVersionSkewBeforeSpending) {
  const std::string sql =
      "SELECT c.gdp, AVG(e.salary) FROM LLM.country c, DB.Employees e "
      "WHERE c.code = e.countryCode GROUP BY c.name";
  GaloisExecutor galois(&perfect_, &W().catalog());
  auto shards = galois.PlanShards(sql);
  ASSERT_TRUE(shards.ok()) << shards.status();
  ASSERT_EQ(1u, shards->size());
  const ShardRequest valid = RequestFor(shards->front(), sql);
  ASSERT_EQ("c", valid.alias);

  std::vector<std::pair<std::string, ShardRequest>> skewed;
  skewed.emplace_back("table", valid);
  skewed.back().second.table = "city";
  skewed.emplace_back("columns", valid);
  skewed.back().second.columns.push_back("population");
  skewed.emplace_back("descriptor", valid);
  skewed.back().second.descriptor += "x";
  skewed.emplace_back("DB alias", valid);
  skewed.back().second.alias = "e";
  skewed.emplace_back("unknown alias", valid);
  skewed.back().second.alias = "nope";

  const llm::CostMeter before = perfect_.cost();
  for (const auto& [what, request] : skewed) {
    auto out = galois.RunShard(request);
    EXPECT_EQ(StatusCode::kInvalidArgument, out.status().code())
        << what << ": " << out.status();
  }
  const llm::CostMeter after = perfect_.cost();
  EXPECT_EQ(before.num_prompts, after.num_prompts);
  EXPECT_EQ(before.num_batches, after.num_batches);
  EXPECT_EQ(before.prompt_tokens, after.prompt_tokens);
  EXPECT_EQ(before.completion_tokens, after.completion_tokens);
  EXPECT_EQ(before.simulated_latency_ms, after.simulated_latency_ms);

  // The untampered request is a real shard: it runs and spends.
  auto out = galois.RunShard(valid);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(out->cost.num_prompts, 0);
  EXPECT_GT(perfect_.cost().num_prompts, after.num_prompts);
}

TEST_F(GaloisExecutorTest, OverlayShapedOtherwiseIsRejected) {
  const std::string sql =
      "SELECT ci.name, co.continent FROM city ci, country co "
      "WHERE ci.country = co.name AND co.continent = 'Europe'";
  GaloisExecutor galois(&perfect_, &W().catalog());
  auto direct = galois.RunSql(sql);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_FALSE(direct->relation.rows().empty());

  // The true overlays: every shard of the query, materialised on its own.
  auto shards = galois.PlanShards(sql);
  ASSERT_TRUE(shards.ok()) << shards.status();
  std::vector<TableOverlay> overlays;
  for (const ShardSpec& spec : *shards) {
    auto part = galois.RunShard(RequestFor(spec, sql));
    ASSERT_TRUE(part.ok()) << spec.alias << ": " << part.status();
    overlays.push_back({spec.alias, std::move(part->relation)});
  }
  auto merged = galois.RunSqlWithOverlays(sql, overlays);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(direct->relation.ToCsv(), merged->relation.ToCsv());
  EXPECT_EQ(0, merged->cost.num_prompts);

  // The same overlays with ci's two columns in the other order: the join
  // key is compiled as a column position, so this must not run.
  std::vector<TableOverlay> reordered = overlays;
  bool swapped = false;
  for (TableOverlay& overlay : reordered) {
    if (overlay.alias != "ci") continue;
    const Schema& schema = overlay.relation.schema();
    ASSERT_EQ(2u, schema.size());
    Relation rel(Schema({schema.column(1), schema.column(0)}));
    for (const Tuple& row : overlay.relation.rows()) {
      rel.AddRowUnchecked({row[1], row[0]});
    }
    overlay.relation = std::move(rel);
    swapped = true;
  }
  ASSERT_TRUE(swapped);
  auto bad = galois.RunSqlWithOverlays(sql, reordered);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, bad.status().code());
  EXPECT_NE(std::string::npos, bad.status().message().find("\"ci\""))
      << bad.status();
}

TEST_F(GaloisExecutorTest, DbOnlyQueryIssuesNoPrompts) {
  GaloisExecutor galois(&noisy_, &W().catalog());
  auto rm = galois.RunSql(
      "SELECT COUNT(*) FROM DB.Employees e WHERE e.salary > 0");
  ASSERT_TRUE(rm.ok()) << rm.status();
  EXPECT_EQ(rm->cost.num_prompts, 0);
}

TEST_F(GaloisExecutorTest, ExplicitLlmSourceOverridesDefault) {
  // Employees defaults to DB; forcing LLM should fail the key scan since
  // "employee" is not a KB concept -> NotFound.
  GaloisExecutor galois(&noisy_, &W().catalog());
  auto rm = galois.ExecuteSql("SELECT name FROM LLM.Employees");
  EXPECT_FALSE(rm.ok());
}

TEST_F(GaloisExecutorTest, UnknownSourceQualifierRejected) {
  GaloisExecutor galois(&noisy_, &W().catalog());
  auto r = galois.ExecuteSql("SELECT name FROM WEB.country");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST_F(GaloisExecutorTest, PromptCacheCutsRepeatedWork) {
  llm::SimulatedLlm inner(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  llm::PromptCache cached(&inner);
  GaloisExecutor galois(&cached, &W().catalog());
  const char* sql = "SELECT name, capital FROM country WHERE continent = "
                    "'Asia'";
  ASSERT_TRUE(galois.ExecuteSql(sql).ok());
  int64_t first_prompts = inner.cost().num_prompts;
  ASSERT_TRUE(galois.ExecuteSql(sql).ok());
  // Second execution is answered fully from the cache.
  EXPECT_EQ(inner.cost().num_prompts, first_prompts);
  EXPECT_GT(cached.cost().cache_hits, 0);
}

TEST_F(GaloisExecutorTest, DeterministicAcrossRuns) {
  GaloisExecutor a(&noisy_, &W().catalog());
  llm::SimulatedLlm other(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  GaloisExecutor b(&other, &W().catalog());
  const char* sql = "SELECT name FROM singer WHERE genre = 'pop'";
  auto ra = a.ExecuteSql(sql);
  auto rb = b.ExecuteSql(sql);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(ra->SameContents(*rb));
}

TEST_F(GaloisExecutorTest, AmbiguousConjunctIsNeverSilentlyDropped) {
  // Regression: city and country both define a `population` column, so
  // the unqualified ref below is ambiguous and PlanTables never pushes
  // it as an LLM filter. The residual-WHERE pass used to re-derive the
  // consumed set with a laxer per-table resolution rule that matched the
  // conjunct against country's *qualified* pushed filter and silently
  // dropped it — executing neither via the LLM nor via the engine. Now
  // the consumed set flows out of PlanTables, the conjunct reaches the
  // engine, and the binding problem surfaces as an error instead.
  GaloisExecutor galois(&perfect_, &W().catalog());
  auto rm = galois.ExecuteSql(
      "SELECT ci.name FROM city ci, country co "
      "WHERE co.population > 1000000 AND population > 1000000");
  EXPECT_FALSE(rm.ok());
  EXPECT_NE(rm.status().ToString().find("population"), std::string::npos)
      << rm.status().ToString();
}

TEST_F(GaloisExecutorTest, QualifiedTwinConjunctsOnSharedColumnNameWork) {
  // Control for the regression above: qualifying both refs resolves the
  // ambiguity, both predicates execute via the LLM, and the perfect
  // model matches the ground truth.
  GaloisExecutor galois(&perfect_, &W().catalog());
  const char* sql =
      "SELECT ci.name FROM city ci, country co "
      "WHERE ci.country = co.name AND co.population > 50000000 "
      "AND ci.population > 1000000";
  auto rm = galois.ExecuteSql(sql);
  ASSERT_TRUE(rm.ok()) << rm.status().ToString();
  auto rd = engine::ExecuteSql(sql, W().catalog());
  ASSERT_TRUE(rd.ok());
  EXPECT_TRUE(rm->SameContents(*rd));
}

// Property over all 46 queries: Galois executes them with the expected
// schema and the perfect model reproduces the ground truth exactly.
class GaloisWorkloadTest : public ::testing::TestWithParam<int> {};

TEST_P(GaloisWorkloadTest, PerfectModelReproducesGroundTruth) {
  llm::SimulatedLlm model(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  GaloisExecutor galois(&model, &W().catalog());
  const knowledge::QuerySpec* spec = W().GetQuery(GetParam()).value();
  auto rm = galois.ExecuteSql(spec->sql);
  ASSERT_TRUE(rm.ok()) << spec->sql << " -> " << rm.status();
  auto rd = engine::ExecuteSql(spec->sql, W().catalog());
  ASSERT_TRUE(rd.ok());
  EXPECT_TRUE(rm->SameContents(*rd)) << spec->sql;
}

INSTANTIATE_TEST_SUITE_P(All46, GaloisWorkloadTest,
                         ::testing::Range(1, 47));

}  // namespace
}  // namespace galois::core
