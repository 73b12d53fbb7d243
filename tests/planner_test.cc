// Tests for the logical planner: plan construction, retrieve-node
// injection, optimizer rewrites, prompt estimation, explain output.

#include <gtest/gtest.h>

#include "knowledge/workload.h"
#include "planner/planner.h"
#include "sql/parser.h"

namespace galois::planner {
namespace {

const catalog::Catalog& Catalog() {
  static const auto* w = []() {
    auto r = knowledge::SpiderLikeWorkload::Create();
    EXPECT_TRUE(r.ok());
    return new knowledge::SpiderLikeWorkload(std::move(r).value());
  }();
  return (*w).catalog();
}

PlanNodePtr Plan(const std::string& sql) {
  auto stmt = sql::ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  auto plan = BuildLogicalPlan(stmt.value(), Catalog());
  EXPECT_TRUE(plan.ok()) << plan.status();
  return std::move(plan).value();
}

const PlanNode* FindOp(const PlanNode& root, PlanOp op) {
  if (root.op == op) return &root;
  for (const auto& c : root.children) {
    if (const PlanNode* found = FindOp(*c, op)) return found;
  }
  return nullptr;
}

int CountOp(const PlanNode& root, PlanOp op) {
  int n = root.op == op ? 1 : 0;
  for (const auto& c : root.children) n += CountOp(*c, op);
  return n;
}

TEST(PlannerTest, SimpleSelectPlanShape) {
  PlanNodePtr plan =
      Plan("SELECT name FROM country WHERE continent = 'Europe'");
  // Project at the root, filter below, scan at the leaf.
  EXPECT_EQ(plan->op, PlanOp::kProject);
  ASSERT_NE(FindOp(*plan, PlanOp::kFilter), nullptr);
  const PlanNode* scan = FindOp(*plan, PlanOp::kScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(scan->from_llm);
  EXPECT_EQ(scan->key_column, "name");
}

TEST(PlannerTest, RetrieveNodeInjectedForNonKeyColumns) {
  PlanNodePtr plan =
      Plan("SELECT name, capital FROM country WHERE continent = 'Asia'");
  const PlanNode* retrieve = FindOp(*plan, PlanOp::kRetrieve);
  ASSERT_NE(retrieve, nullptr);
  // capital (projected) and continent (filtered) need retrieval; the key
  // (name) does not.
  std::set<std::string> cols(retrieve->columns.begin(),
                             retrieve->columns.end());
  EXPECT_TRUE(cols.count("capital"));
  EXPECT_TRUE(cols.count("continent"));
  EXPECT_FALSE(cols.count("name"));
}

TEST(PlannerTest, KeyOnlyQueryHasNoRetrieveNode) {
  PlanNodePtr plan = Plan("SELECT name FROM country");
  EXPECT_EQ(FindOp(*plan, PlanOp::kRetrieve), nullptr);
}

TEST(PlannerTest, DbScanHasNoRetrieve) {
  PlanNodePtr plan =
      Plan("SELECT name, salary FROM DB.Employees WHERE salary > 0");
  const PlanNode* scan = FindOp(*plan, PlanOp::kScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_FALSE(scan->from_llm);
  EXPECT_EQ(FindOp(*plan, PlanOp::kRetrieve), nullptr);
}

TEST(PlannerTest, JoinPlanIsLeftDeep) {
  PlanNodePtr plan = Plan(
      "SELECT a.code, co.name FROM airport a, city ci, country co "
      "WHERE a.city = ci.name AND ci.country = co.name");
  EXPECT_EQ(CountOp(*plan, PlanOp::kJoin), 2);
  EXPECT_EQ(CountOp(*plan, PlanOp::kScan), 3);
}

TEST(PlannerTest, AggregateAndHavingNodes) {
  PlanNodePtr plan = Plan(
      "SELECT continent, COUNT(*) FROM country GROUP BY continent "
      "HAVING COUNT(*) > 3 ORDER BY continent LIMIT 2");
  EXPECT_NE(FindOp(*plan, PlanOp::kAggregate), nullptr);
  EXPECT_NE(FindOp(*plan, PlanOp::kSort), nullptr);
  const PlanNode* limit = FindOp(*plan, PlanOp::kLimit);
  ASSERT_NE(limit, nullptr);
  EXPECT_EQ(limit->limit, 2);
  // HAVING shows up as a filter above the aggregate.
  EXPECT_EQ(CountOp(*plan, PlanOp::kFilter), 1);
}

TEST(PlannerTest, DistinctNode) {
  PlanNodePtr plan = Plan("SELECT DISTINCT continent FROM country");
  EXPECT_NE(FindOp(*plan, PlanOp::kDistinct), nullptr);
}

TEST(PlannerTest, OptimizeLlmFiltersMarksSimplePredicates) {
  PlanNodePtr plan =
      Plan("SELECT name FROM country WHERE continent = 'Europe'");
  int rewritten = OptimizeLlmFilters(plan.get(),
                                     /*merge_into_scan=*/false);
  EXPECT_EQ(rewritten, 1);
  const PlanNode* filter = FindOp(*plan, PlanOp::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_TRUE(filter->via_llm);
  EXPECT_FALSE(filter->pushed_into_scan);
}

TEST(PlannerTest, MergeIntoScanSetsScanPredicate) {
  PlanNodePtr plan =
      Plan("SELECT name FROM city WHERE population > 1000000");
  OptimizeLlmFilters(plan.get(), /*merge_into_scan=*/true);
  const PlanNode* scan = FindOp(*plan, PlanOp::kScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_NE(scan->predicate, nullptr);
  const PlanNode* filter = FindOp(*plan, PlanOp::kFilter);
  EXPECT_TRUE(filter->pushed_into_scan);
}

TEST(PlannerTest, JoinPredicateNotRewritten) {
  PlanNodePtr plan = Plan(
      "SELECT ci.name FROM city ci, country co "
      "WHERE ci.country = co.name");
  int rewritten = OptimizeLlmFilters(plan.get(), false);
  EXPECT_EQ(rewritten, 0);
}

TEST(PlannerTest, DbFilterNotRewritten) {
  PlanNodePtr plan =
      Plan("SELECT name FROM DB.Employees WHERE salary > 1000");
  EXPECT_EQ(OptimizeLlmFilters(plan.get(), false), 0);
}

TEST(PlannerTest, ExplainRendersTree) {
  PlanNodePtr plan =
      Plan("SELECT name FROM country WHERE continent = 'Europe'");
  OptimizeLlmFilters(plan.get(), false);
  std::string text = Explain(*plan);
  EXPECT_NE(text.find("Project"), std::string::npos);
  EXPECT_NE(text.find("Scan[LLM] country"), std::string::npos);
  EXPECT_NE(text.find("one check prompt per key"), std::string::npos);
}

TEST(PlannerTest, PromptEstimateDropsWithPushdown) {
  PlanNodePtr plain =
      Plan("SELECT name FROM city WHERE population > 1000000");
  OptimizeLlmFilters(plain.get(), /*merge_into_scan=*/false);
  PlanNodePtr pushed =
      Plan("SELECT name FROM city WHERE population > 1000000");
  OptimizeLlmFilters(pushed.get(), /*merge_into_scan=*/true);
  int64_t cost_plain = EstimatePromptCount(*plain, 100, 15);
  int64_t cost_pushed = EstimatePromptCount(*pushed, 100, 15);
  EXPECT_GT(cost_plain, cost_pushed);
  EXPECT_GE(cost_plain - cost_pushed, 100);  // saved one prompt per key
}

TEST(PlannerTest, PromptEstimateCountsRetrieves) {
  PlanNodePtr plan = Plan("SELECT name, capital, currency FROM country");
  int64_t cost = EstimatePromptCount(*plan, 48, 12);
  // 4 scan pages + terminal + 2 attributes x 48 keys.
  EXPECT_GE(cost, 96);
}

TEST(PlannerTest, UnknownTableFailsPlanning) {
  auto stmt = sql::ParseSelect("SELECT x FROM ghost");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(BuildLogicalPlan(stmt.value(), Catalog()).ok());
}

}  // namespace
}  // namespace galois::planner
