// Property-based equivalence fuzzing: generate random SPJA queries over
// the workload catalog and check that
//   (a) the ground-truth engine executes them deterministically,
//   (b) Galois over a *perfect* (noise-free) model reproduces the engine
//       exactly — any divergence is an executor bug, not model noise,
//   (c) Galois over a noisy model still produces the expected schema.

#include <gtest/gtest.h>

#include <sstream>

#include "api/database.h"
#include "common/rng.h"
#include "core/galois_executor.h"
#include "engine/executor.h"
#include "knowledge/workload.h"
#include "llm/simulated_llm.h"
#include "sql/parser.h"

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

/// Deterministic random SPJA query generator over the LLM-backed tables.
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    // Single-table or two-table join shape.
    bool join = rng_.NextBool(0.35);
    if (join) return GenerateJoin();
    return GenerateSingleTable();
  }

 private:
  struct TableInfo {
    const char* name;
    const char* key;
    std::vector<const char*> string_cols;
    std::vector<const char*> numeric_cols;
  };

  const TableInfo& PickTable() {
    static const std::vector<TableInfo>* kTables =
        new std::vector<TableInfo>{
            {"country",
             "name",
             {"continent", "language", "currency"},
             {"population", "area", "independenceYear"}},
            {"city", "name", {"country"}, {"population", "elevation"}},
            {"airline", "name", {"country"}, {"foundedYear", "fleetSize"}},
            {"singer", "name", {"genre", "country"}, {"birthYear"}},
            {"stadium", "name", {"city"}, {"capacity", "openedYear"}},
            {"language", "name", {"family"}, {"speakers"}},
        };
    return (*kTables)[static_cast<size_t>(
        rng_.NextInt(0, static_cast<int64_t>(kTables->size()) - 1))];
  }

  /// "col > N" or "col < N" with a threshold chosen to hit a mid-range
  /// selectivity for our data.
  std::string Comparison(const std::string& col) {
    const char* op = rng_.NextBool(0.5) ? ">" : "<";
    int64_t threshold;
    if (col.find("Year") != std::string::npos) {
      threshold = rng_.NextInt(1930, 1995);
    } else if (col == "population") {
      threshold = rng_.NextInt(1, 150) * 1000000;
    } else if (col == "speakers") {
      threshold = rng_.NextInt(50, 800) * 1000000;
    } else {
      threshold = rng_.NextInt(10, 5000);
    }
    std::ostringstream os;
    os << col << " " << op << " " << threshold;
    return os.str();
  }

  std::string NumericPredicate(const TableInfo& t) {
    return Comparison(t.numeric_cols[static_cast<size_t>(rng_.NextInt(
        0, static_cast<int64_t>(t.numeric_cols.size()) - 1))]);
  }

  std::string GenerateSingleTable() {
    const TableInfo& t = PickTable();
    std::ostringstream os;
    int shape = static_cast<int>(rng_.NextInt(0, 3));
    switch (shape) {
      case 0:  // selection + projection
        os << "SELECT " << t.key;
        if (rng_.NextBool(0.5) && !t.numeric_cols.empty()) {
          os << ", " << t.numeric_cols[0];
        }
        os << " FROM " << t.name << " WHERE " << NumericPredicate(t);
        break;
      case 1:  // scalar aggregate
        os << "SELECT "
           << (rng_.NextBool(0.5) ? "COUNT(*)"
                                  : std::string("AVG(") +
                                        t.numeric_cols[0] + ")")
           << " FROM " << t.name << " WHERE " << NumericPredicate(t);
        break;
      case 2:  // group by
        os << "SELECT " << t.string_cols[0] << ", COUNT(*) FROM "
           << t.name << " GROUP BY " << t.string_cols[0];
        break;
      default:  // order by + limit
        os << "SELECT " << t.key << " FROM " << t.name << " ORDER BY "
           << t.numeric_cols[0] << (rng_.NextBool(0.5) ? " DESC" : "")
           << " LIMIT " << rng_.NextInt(1, 10);
        break;
    }
    return os.str();
  }

  std::string GenerateJoin() {
    // Join pairs with known reference attributes, and one numeric column
    // per side for the extra ON / WHERE conjuncts.
    struct JoinShape {
      const char* left;
      const char* left_col;
      const char* right;
      const char* right_key;
      const char* project;
      const char* left_num;
      const char* right_num;
    };
    static const JoinShape kJoins[] = {
        {"city", "country", "country", "name", "co.continent", "population",
         "population"},
        {"airline", "country", "country", "name", "co.capital", "fleetSize",
         "area"},
        {"singer", "country", "country", "name", "co.continent",
         "birthYear", "independenceYear"},
        {"stadium", "city", "city", "name", "co.country", "capacity",
         "population"},
    };
    const JoinShape& j = kJoins[static_cast<size_t>(
        rng_.NextInt(0, std::size(kJoins) - 1))];
    const std::string key = std::string("l.") + j.left_col + " = co." +
                            j.right_key;
    // A numeric conjunct on either side of the join.
    auto side_conjunct = [&]() {
      return rng_.NextBool(0.5)
                 ? Comparison(std::string("l.") + j.left_num)
                 : Comparison(std::string("co.") + j.right_num);
    };
    std::string select;
    std::string group_by;
    if (rng_.NextBool(0.4)) {
      select = std::string(j.project) + ", COUNT(*)";
      group_by = std::string(" GROUP BY ") + j.project;
    } else {
      select = std::string("l.") + j.left_col + ", " + j.project;
    }
    std::ostringstream os;
    os << "SELECT " << select << " FROM " << j.left << " l";
    if (rng_.NextInt(0, 2) == 0) {  // comma join, the key in WHERE
      os << ", " << j.right << " co WHERE " << key;
      if (rng_.NextBool(0.5)) os << " AND " << side_conjunct();
    } else {  // explicit INNER JOIN / LEFT JOIN ... ON
      os << (rng_.NextBool(0.5) ? " JOIN " : " LEFT JOIN ") << j.right
         << " co ON " << key;
      if (rng_.NextBool(0.5)) os << " AND " << side_conjunct();
      if (rng_.NextBool(0.5)) os << " WHERE " << side_conjunct();
    }
    os << group_by;
    return os.str();
  }

  Rng rng_;
};

class FuzzEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzEquivalenceTest, PerfectGaloisMatchesEngine) {
  QueryGenerator gen(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  llm::SimulatedLlm model(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  core::GaloisExecutor galois(&model, &W().catalog());
  for (int i = 0; i < 5; ++i) {
    std::string sql = gen.Generate();
    SCOPED_TRACE(sql);
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    auto rd = engine::ExecuteSelect(stmt.value(), W().catalog());
    ASSERT_TRUE(rd.ok()) << rd.status();
    auto rd2 = engine::ExecuteSelect(stmt.value(), W().catalog());
    ASSERT_TRUE(rd2.ok());
    EXPECT_TRUE(rd->SameContents(*rd2));  // engine determinism
    auto rm = galois.Execute(stmt.value());
    ASSERT_TRUE(rm.ok()) << rm.status();
    EXPECT_TRUE(rm->SameContents(*rd));   // perfect model == engine
  }
}

TEST_P(FuzzEquivalenceTest, NoisyGaloisKeepsSchemaContract) {
  QueryGenerator gen(static_cast<uint64_t>(GetParam()) * 104729 + 5);
  llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  core::GaloisExecutor galois(&model, &W().catalog());
  for (int i = 0; i < 3; ++i) {
    std::string sql = gen.Generate();
    SCOPED_TRACE(sql);
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok());
    auto rd = engine::ExecuteSelect(stmt.value(), W().catalog());
    ASSERT_TRUE(rd.ok());
    auto rm = galois.Execute(stmt.value());
    ASSERT_TRUE(rm.ok()) << rm.status();
    ASSERT_EQ(rm->NumColumns(), rd->NumColumns());
    for (size_t c = 0; c < rd->NumColumns(); ++c) {
      EXPECT_EQ(rm->schema().column(c).name, rd->schema().column(c).name);
    }
  }
}

TEST_P(FuzzEquivalenceTest, ReplanningIsDeterministic) {
  // Session::Query compiles a fresh logical + physical plan on every
  // call. Re-planning the same statement must reproduce the relation,
  // the cost meter and the physical-plan report byte for byte — any
  // divergence means the planner annotations or the plan compiler are
  // not a pure function of (statement, catalog, options).
  QueryGenerator gen(static_cast<uint64_t>(GetParam()) * 31337 + 71);
  llm::SimulatedLlm model(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  DatabaseOptions db_options;
  db_options.workload = &W();
  BackendSpec spec;
  spec.name = "perfect";
  spec.external = &model;
  db_options.backends.push_back(std::move(spec));
  auto db = Database::Open(std::move(db_options));
  ASSERT_TRUE(db.ok()) << db.status();
  Session session = db.value()->CreateSession();
  for (int i = 0; i < 3; ++i) {
    std::string sql = gen.Generate();
    SCOPED_TRACE(sql);
    auto first = session.Query(sql);
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_EQ(session.Explain(), first->physical_plan);
    auto second = session.Query(sql);  // forced re-plan, same statement
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_TRUE(second->relation.SameContents(first->relation));
    EXPECT_EQ(second->cost.num_prompts, first->cost.num_prompts);
    EXPECT_EQ(second->cost.prompt_tokens, first->cost.prompt_tokens);
    EXPECT_EQ(second->cost.completion_tokens,
              first->cost.completion_tokens);
    EXPECT_EQ(second->cost.num_batches, first->cost.num_batches);
    EXPECT_EQ(second->cost.simulated_latency_ms,
              first->cost.simulated_latency_ms);
    EXPECT_EQ(second->physical_plan, first->physical_plan);
  }
}

TEST_P(FuzzEquivalenceTest, CountStarBillsLikeItsKeyQuery) {
  // Metamorphic: COUNT(*) reads no attribute, so over the same FROM and
  // WHERE it pays exactly the prompts of selecting the first table's key
  // (the scan and its filter checks), and it counts that query's rows.
  QueryGenerator gen(static_cast<uint64_t>(GetParam()) * 6007 + 29);
  llm::SimulatedLlm model(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  core::GaloisExecutor galois(&model, &W().catalog());
  const std::string count_star = "SELECT COUNT(*)";
  int checked = 0;
  for (int i = 0; i < 100 && checked < 3; ++i) {
    const std::string sql = gen.Generate();
    if (sql.rfind(count_star + " FROM ", 0) != 0) continue;
    SCOPED_TRACE(sql);
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    auto def = W().catalog().GetTable(stmt->from[0].table);
    ASSERT_TRUE(def.ok()) << def.status();
    const std::string key_sql = "SELECT " + def.value()->key_column +
                                sql.substr(count_star.size());
    auto counted = galois.RunSql(sql);
    ASSERT_TRUE(counted.ok()) << counted.status();
    auto keys = galois.RunSql(key_sql);
    ASSERT_TRUE(keys.ok()) << key_sql << ": " << keys.status();

    const llm::CostMeter& a = counted->cost;
    const llm::CostMeter& b = keys->cost;
    EXPECT_GT(a.num_prompts, 0);
    EXPECT_EQ(a.num_prompts, b.num_prompts);
    EXPECT_EQ(a.prompt_tokens, b.prompt_tokens);
    EXPECT_EQ(a.completion_tokens, b.completion_tokens);
    EXPECT_EQ(a.simulated_latency_ms, b.simulated_latency_ms);
    EXPECT_EQ(a.num_batches, b.num_batches);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.store_hits, b.store_hits);
    EXPECT_EQ(a.by_model, b.by_model);

    ASSERT_EQ(counted->relation.NumRows(), 1u);
    EXPECT_EQ(counted->relation.rows()[0][0].ToString(),
              std::to_string(keys->relation.NumRows()));
    ++checked;
  }
  EXPECT_GT(checked, 0) << "the generator produced no COUNT(*) query";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest,
                         ::testing::Range(0, 12));

// --- joins: fixed shapes, error parity, Explain ---------------------------

TEST(JoinEquivalenceTest, FixedJoinShapesMatchEngine) {
  llm::SimulatedLlm model(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  core::GaloisExecutor galois(&model, &W().catalog());
  for (const char* sql : {
           // WHERE on the NULL-padded side of a LEFT JOIN filters the
           // padded rows too; run as a scan filter before the join, it
           // would leave every city padded.
           "SELECT l.country, co.continent FROM city l LEFT JOIN country co "
           "ON l.country = co.name AND co.population < 1250 "
           "WHERE co.population > 1288",
           "SELECT l.name, co.continent FROM city l LEFT JOIN country co "
           "ON l.country = co.name AND l.population > 3000000",
           "SELECT l.name, co.capital FROM airline l JOIN country co "
           "ON co.name = l.country AND co.area > 500000 "
           "WHERE l.fleetSize > 100",
           "SELECT co.continent, COUNT(*) FROM city l, country co "
           "WHERE l.population > 2000000 AND l.country = co.name "
           "GROUP BY co.continent",
           // Three tables: two comma joins, each with its own key.
           "SELECT st.name, ci.name, co.continent FROM stadium st, city ci, "
           "country co WHERE st.city = ci.name AND ci.country = co.name",
       }) {
    SCOPED_TRACE(sql);
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    auto truth = engine::ExecuteSelect(stmt.value(), W().catalog());
    ASSERT_TRUE(truth.ok()) << truth.status();
    auto out = galois.Run(stmt.value());
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_TRUE(out->relation.SameContents(*truth));
    EXPECT_EQ(out->physical_plan.find("CrossJoin"), std::string::npos)
        << out->physical_plan;
  }
}

/// Parameter: run on the noisy ChatGPT profile instead of the perfect one.
class JoinErrorParityTest : public ::testing::TestWithParam<bool> {};

TEST_P(JoinErrorParityTest, CommaJoinResolutionErrorsStayErrors) {
  // A WHERE equality that the filter over the cross product could not
  // resolve is no join key: the query still fails with the same
  // BindError, whether the bad ref is in the equality or beside it. On
  // the noisy profile city.country never equals a country name, so a
  // hash join would form no pair and never reach the bad ref.
  llm::SimulatedLlm model(
      &W().kb(), GetParam() ? llm::ModelProfile::ChatGpt() : PerfectProfile(),
      &W().catalog(), 7);
  core::GaloisExecutor galois(&model, &W().catalog());
  struct Case {
    const char* sql;
    const char* message;
  };
  const std::string schema = "[l.name VARCHAR, l.country VARCHAR, "
                             "co.name VARCHAR]";
  for (const Case& c : std::vector<Case>{
           {"SELECT l.name FROM city l, country co WHERE country = name",
            "ambiguous column reference 'name'"},
           {"SELECT l.name FROM city l, country co "
            "WHERE l.country = co.nosuch",
            "column 'co.nosuch' not found in schema "},
           {"SELECT l.name FROM city l, country co "
            "WHERE l.country = co.name AND nosuch = 1",
            "column 'nosuch' not found in schema "},
           {"SELECT l.name FROM city l, country co "
            "WHERE nosuch = 1 AND l.country = co.name",
            "column 'nosuch' not found in schema "},
       }) {
    SCOPED_TRACE(c.sql);
    auto stmt = sql::ParseSelect(c.sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    auto truth = engine::ExecuteSelect(stmt.value(), W().catalog());
    ASSERT_FALSE(truth.ok());
    EXPECT_EQ(truth.status().code(), StatusCode::kBindError);
    auto out = galois.Run(stmt.value());
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kBindError);
    std::string expected = c.message;
    if (expected.back() == ' ') expected += schema;
    EXPECT_EQ(out.status().message(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, JoinErrorParityTest, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "ChatGpt"
                                                         : "Perfect");
                         });

TEST(JoinEquivalenceTest, WorkloadJoinsExplainAsHashJoins) {
  llm::SimulatedLlm model(&W().kb(), PerfectProfile(), &W().catalog(), 7);
  core::GaloisExecutor galois(&model, &W().catalog());
  int joins = 0;
  for (const knowledge::QuerySpec& q : W().queries()) {
    SCOPED_TRACE(q.sql);
    auto stmt = sql::ParseSelect(q.sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    auto out = galois.Run(stmt.value());
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out->physical_plan.find("CrossJoin"), std::string::npos)
        << out->physical_plan;
    if (stmt->from.size() + stmt->joins.size() < 2) continue;
    ++joins;
    EXPECT_NE(out->physical_plan.find("HashJoin ON "), std::string::npos)
        << out->physical_plan;
  }
  EXPECT_EQ(joins, 15);
}

}  // namespace
}  // namespace galois
