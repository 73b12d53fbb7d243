// Tests for the physical-binding pass (planner::BindPhysicalAnnotations)
// and the plan-driven executor built on it:
//   - drift regression: a plan annotated with merge-into-scan renders
//     byte-for-byte the merged scan prompt the pre-plan executor ladder
//     produced (frozen literal below — do not regenerate);
//   - annotation semantics: conjunct consumption / residual folding,
//     the pushdown merge decision, retrieve reconciliation, which
//     columns a `*` retrieves (all of its scans' as a select item, none
//     inside COUNT(*)), and the legality rules of the LIMIT paging bound;
//   - execution: a LIMIT-bounded key scan issues strictly fewer page
//     round trips than the unbounded scan of the same table.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/galois_executor.h"
#include "core/physical_plan.h"
#include "knowledge/workload.h"
#include "llm/language_model.h"
#include "llm/prompt_templates.h"
#include "llm/simulated_llm.h"
#include "planner/planner.h"
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

llm::ModelProfile FullCoverage() {
  llm::ModelProfile p = llm::ModelProfile::ChatGpt();
  p.coverage_floor = 1.0;
  p.coverage_gain = 0.0;
  p.paging_fatigue = 0.0;
  p.hallucinated_key_rate = 0.0;
  p.unknown_rate = 0.0;
  p.fact_accuracy = 1.0;
  p.numeric_fact_accuracy = 1.0;
  p.value_format_noise = 0.0;
  p.reference_style_noise = 0.0;
  p.verbosity = 0.0;
  p.filter_check_error = 0.0;
  p.pushdown_error = 0.0;
  return p;
}

planner::PlanNodePtr Annotated(const std::string& sql,
                               const planner::BindingOptions& options) {
  auto stmt = sql::ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  auto plan = planner::BuildLogicalPlan(stmt.value(), W().catalog());
  EXPECT_TRUE(plan.ok()) << plan.status();
  auto consumed = planner::BindPhysicalAnnotations(
      plan.value().get(), W().catalog(), options);
  EXPECT_TRUE(consumed.ok()) << consumed.status();
  return std::move(plan).value();
}

const planner::PlanNode* FindOp(const planner::PlanNode& root,
                                planner::PlanOp op) {
  if (root.op == op) return &root;
  for (const auto& c : root.children) {
    if (const planner::PlanNode* found = FindOp(*c, op)) return found;
  }
  return nullptr;
}

/// Transparent decorator recording every prompt text it forwards, so a
/// test can assert on the exact wire-level prompts a query issued.
class PromptRecorder : public llm::ForwardingModel {
 public:
  explicit PromptRecorder(llm::LanguageModel* inner)
      : llm::ForwardingModel(inner) {}

  bool thread_safe() const override { return false; }
  Result<llm::Completion> CompleteMetered(const llm::Prompt& prompt,
                                          llm::CostMeter* usage) override {
    prompts.push_back(prompt.text);
    return inner_->CompleteMetered(prompt, usage);
  }
  Result<std::vector<llm::Completion>> CompleteBatchMetered(
      const std::vector<llm::Prompt>& batch, llm::CostMeter* usage) override {
    for (const llm::Prompt& p : batch) prompts.push_back(p.text);
    return inner_->CompleteBatchMetered(batch, usage);
  }

  std::vector<std::string> prompts;
};

// The page-0 scan prompt the pre-plan executor ladder issued for
//   SELECT name FROM city WHERE population > 1000000
// under PushdownPolicy::kAlways, captured verbatim before the ladder was
// retired. Frozen: if this test fails, the planner annotations (or the
// prompt template) drifted from the ladder's behaviour — fix the drift,
// do not re-capture.
const char kLadderMergedScanPrompt[] =
    "I am a highly intelligent question answering bot. If you ask me a "
    "question that is rooted in truth, I will give you the short answer. "
    "If you ask me a question that is nonsense, trickery, or has no "
    "clear answer, I will respond with \"Unknown\". If the answer is "
    "numerical, I will return the number only.\n"
    "Q: What is human life expectancy in the United States?\n"
    "A: 78.\n"
    "Q: Who was president of the United States in 1955?\n"
    "A: Dwight D. Eisenhower.\n"
    "Q: What is the capital of France?\n"
    "A: Paris.\n"
    "Q: What is a continent starting with letter O?\n"
    "A: Oceania.\n"
    "Q: Where were the 1992 Olympics held?\n"
    "A: Barcelona.\n"
    "Q: How many squigs are in a bonk?\n"
    "A: Unknown\n"
    "Q: List the names of all cities with population greater than "
    "1000000.\n"
    "A:";

TEST(MergedScanDriftTest, AnnotationsRenderTheLadderScanPrompt) {
  // Unit level: the ScanFilter annotation, routed through the same
  // PromptFilter conversion the plan compiler uses, renders the exact
  // prompt the ladder built.
  planner::BindingOptions binding;
  binding.merge_filter_into_scan = true;
  planner::PlanNodePtr plan = Annotated(
      "SELECT name FROM city WHERE population > 1000000", binding);
  const planner::PlanNode* scan = FindOp(*plan, planner::PlanOp::kScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_EQ(scan->scan_filters.size(), 1u);
  EXPECT_TRUE(scan->merge_first_filter);

  const planner::ScanFilter& f = scan->scan_filters[0];
  llm::PromptFilter filter;
  filter.attribute = f.column;
  filter.attribute_description = f.column_description;
  filter.op = f.op;
  filter.value = f.value;

  auto def = W().catalog().GetTable("city");
  ASSERT_TRUE(def.ok());
  llm::KeyScanIntent intent;
  intent.concept_name = def.value()->entity_type;
  intent.key_attribute = def.value()->key_column;
  intent.page = 0;
  intent.filter = filter;
  EXPECT_EQ(llm::BuildKeyScanPrompt(intent).text, kLadderMergedScanPrompt);
}

TEST(MergedScanDriftTest, ExecutorIssuesTheLadderScanPrompt) {
  // End to end: the first wire-level prompt of the plan-driven executor
  // is byte-identical to the ladder's merged scan prompt.
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(), &W().catalog(), 7);
  PromptRecorder model(&inner);
  core::ExecutionOptions options;
  options.pushdown_policy = core::PushdownPolicy::kAlways;
  core::GaloisExecutor executor(&model, &W().catalog(), options);
  auto out =
      executor.RunSql("SELECT name FROM city WHERE population > 1000000");
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_FALSE(model.prompts.empty());
  EXPECT_EQ(model.prompts[0], kLadderMergedScanPrompt);
}

TEST(BindingTest, SimpleConjunctsConsumedInOrderResidualNull) {
  planner::BindingOptions binding;  // llm_filter_checks on by default
  planner::PlanNodePtr plan = Annotated(
      "SELECT name FROM city "
      "WHERE population > 1000000 AND country = 'Japan'",
      binding);
  const planner::PlanNode* scan = FindOp(*plan, planner::PlanOp::kScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_EQ(scan->scan_filters.size(), 2u);
  EXPECT_EQ(scan->scan_filters[0].column, "population");
  EXPECT_EQ(scan->scan_filters[1].column, "country");
  const planner::PlanNode* filter =
      FindOp(*plan, planner::PlanOp::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_TRUE(filter->annotated);
  EXPECT_EQ(filter->residual, nullptr);  // everything consumed
}

TEST(BindingTest, NonSimpleConjunctStaysInResidual) {
  planner::BindingOptions binding;
  planner::PlanNodePtr plan = Annotated(
      "SELECT name FROM city "
      "WHERE population > 1000000 AND elevation < population",
      binding);
  const planner::PlanNode* scan = FindOp(*plan, planner::PlanOp::kScan);
  ASSERT_NE(scan, nullptr);
  ASSERT_EQ(scan->scan_filters.size(), 1u);  // only the literal compare
  EXPECT_EQ(scan->scan_filters[0].column, "population");
  const planner::PlanNode* filter =
      FindOp(*plan, planner::PlanOp::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_NE(filter->residual, nullptr);  // col-vs-col runs on the engine
}

TEST(BindingTest, LeftJoinPaddedSideKeepsWhereConjunctInResidual) {
  // `co.population > 1288` must also drop the rows the LEFT JOIN pads
  // with NULLs, so it runs on the engine after the join; the preserved
  // side's conjunct may still run as a filter check before it.
  planner::BindingOptions binding;
  planner::PlanNodePtr plan = Annotated(
      "SELECT l.name FROM city l LEFT JOIN country co "
      "ON l.country = co.name "
      "WHERE co.population > 1288 AND l.population > 1000000",
      binding);
  std::vector<const planner::PlanNode*> scans;
  std::function<void(const planner::PlanNode&)> collect =
      [&](const planner::PlanNode& n) {
        if (n.op == planner::PlanOp::kScan) scans.push_back(&n);
        for (const auto& c : n.children) collect(*c);
      };
  collect(*plan);
  ASSERT_EQ(scans.size(), 2u);
  ASSERT_EQ(scans[0]->alias, "l");
  ASSERT_EQ(scans[0]->scan_filters.size(), 1u);
  EXPECT_EQ(scans[0]->scan_filters[0].column, "population");
  EXPECT_TRUE(scans[1]->scan_filters.empty());
  const planner::PlanNode* filter =
      FindOp(*plan, planner::PlanOp::kFilter);
  ASSERT_NE(filter, nullptr);
  ASSERT_NE(filter->residual, nullptr);
  EXPECT_EQ(filter->residual->ToString(), "(co.population > 1288)");
}

TEST(BindingTest, FilterChecksOffConsumesNothing) {
  planner::BindingOptions binding;
  binding.llm_filter_checks = false;
  planner::PlanNodePtr plan = Annotated(
      "SELECT name FROM city WHERE population > 1000000", binding);
  const planner::PlanNode* scan = FindOp(*plan, planner::PlanOp::kScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_TRUE(scan->scan_filters.empty());
  const planner::PlanNode* filter =
      FindOp(*plan, planner::PlanOp::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_NE(filter->residual, nullptr);
}

TEST(BindingTest, MergeDecisionFollowsPolicy) {
  const std::string sql =
      "SELECT name FROM city WHERE population > 1000000";
  {
    planner::BindingOptions always;
    always.merge_filter_into_scan = true;
    planner::PlanNodePtr plan = Annotated(sql, always);
    EXPECT_TRUE(FindOp(*plan, planner::PlanOp::kScan)->merge_first_filter);
  }
  {
    planner::BindingOptions never;
    planner::PlanNodePtr plan = Annotated(sql, never);
    EXPECT_FALSE(
        FindOp(*plan, planner::PlanOp::kScan)->merge_first_filter);
  }
  {
    // Auto: merge iff the catalog expects the table to be large enough.
    planner::BindingOptions auto_small;
    auto_small.merge_filter_auto = true;
    auto_small.auto_pushdown_min_rows = 1;
    planner::PlanNodePtr plan = Annotated(sql, auto_small);
    EXPECT_TRUE(FindOp(*plan, planner::PlanOp::kScan)->merge_first_filter);
  }
  {
    planner::BindingOptions auto_large;
    auto_large.merge_filter_auto = true;
    auto_large.auto_pushdown_min_rows = 1000000;
    planner::PlanNodePtr plan = Annotated(sql, auto_large);
    EXPECT_FALSE(
        FindOp(*plan, planner::PlanOp::kScan)->merge_first_filter);
  }
}

TEST(BindingTest, RetrieveReconciledWithConsumedFilterColumns) {
  // `country` is consumed as a scan filter and not projected, so the
  // retrieve node must not fetch it; `population` is projected and must
  // be fetched even though it is also a filter column.
  planner::BindingOptions binding;
  planner::PlanNodePtr plan = Annotated(
      "SELECT name, population FROM city WHERE country = 'Japan'",
      binding);
  const planner::PlanNode* retrieve =
      FindOp(*plan, planner::PlanOp::kRetrieve);
  ASSERT_NE(retrieve, nullptr);
  EXPECT_EQ(retrieve->columns,
            std::vector<std::string>{"population"});
}

// --- which columns a `*` retrieves -----------------------------------------

/// The Retrieve columns bound for the scan `alias` (empty: no Retrieve).
std::vector<std::string> RetrievedColumns(const planner::PlanNode& root,
                                          const std::string& alias) {
  if (root.op == planner::PlanOp::kRetrieve && root.alias == alias) {
    return root.columns;
  }
  for (const auto& c : root.children) {
    std::vector<std::string> found = RetrievedColumns(*c, alias);
    if (!found.empty()) return found;
  }
  return {};
}

/// Every non-key column of `table`, in definition order.
std::vector<std::string> NonKeyColumns(const std::string& table) {
  auto def = W().catalog().GetTable(table);
  EXPECT_TRUE(def.ok()) << def.status();
  std::vector<std::string> out;
  for (const catalog::ColumnDef& col : def.value()->columns) {
    if (col.name != def.value()->key_column) out.push_back(col.name);
  }
  return out;
}

TEST(StarColumnsTest, CountStarBindsNoRetrieve) {
  planner::PlanNodePtr plan = Annotated(
      "SELECT COUNT(*) FROM country WHERE continent = 'Europe'",
      planner::BindingOptions{});
  EXPECT_EQ(FindOp(*plan, planner::PlanOp::kRetrieve), nullptr)
      << planner::Explain(*plan);
}

TEST(StarColumnsTest, SelectStarRetrievesEveryColumnOfTheNamedScans) {
  planner::BindingOptions binding;
  planner::PlanNodePtr plan = Annotated("SELECT * FROM country", binding);
  EXPECT_EQ(RetrievedColumns(*plan, "country"), NonKeyColumns("country"));

  // `co.*` names one scan of the join: the other retrieves only the join
  // column it is read for.
  plan = Annotated(
      "SELECT co.* FROM city ci JOIN country co ON ci.country = co.name",
      binding);
  EXPECT_EQ(RetrievedColumns(*plan, "co"), NonKeyColumns("country"));
  EXPECT_EQ(RetrievedColumns(*plan, "ci"),
            std::vector<std::string>{"country"});
}

TEST(StarColumnsTest, CountStarInHavingAndOrderByAddsNoColumn) {
  planner::BindingOptions binding;
  const std::vector<std::string> continent{"continent"};
  EXPECT_EQ(RetrievedColumns(
                *Annotated("SELECT continent FROM country GROUP BY continent "
                           "HAVING COUNT(*) > 5",
                           binding),
                "country"),
            continent);
  EXPECT_EQ(RetrievedColumns(
                *Annotated("SELECT continent, COUNT(*) FROM country "
                           "GROUP BY continent ORDER BY COUNT(*) DESC",
                           binding),
                "country"),
            continent);
}

TEST(StarColumnsTest, AggregateArgumentsAndGroupColumnsAreRetrieved) {
  planner::BindingOptions binding;
  EXPECT_EQ(RetrievedColumns(
                *Annotated("SELECT COUNT(DISTINCT country) FROM city", binding),
                "city"),
            std::vector<std::string>{"country"});
  // The group column is read although no select item names it.
  EXPECT_EQ(RetrievedColumns(*Annotated("SELECT COUNT(*) FROM country "
                                        "GROUP BY continent",
                                        binding),
                             "country"),
            std::vector<std::string>{"continent"});
}

TEST(BindingTest, LimitBoundLegality) {
  planner::BindingOptions binding;
  auto key_limit = [&](const std::string& sql,
                       const planner::BindingOptions& options) {
    planner::PlanNodePtr plan = Annotated(sql, options);
    return FindOp(*plan, planner::PlanOp::kScan)->scan_key_limit;
  };
  // The legal shape: Limit -> Project -> [Retrieve] -> Scan.
  EXPECT_EQ(key_limit("SELECT name FROM city LIMIT 5", binding), 5);
  EXPECT_EQ(key_limit("SELECT name, population FROM city LIMIT 5",
                      binding),
            5);
  // A WHERE may drop rows: the first N keys are not the first N rows.
  EXPECT_EQ(key_limit(
                "SELECT name FROM city WHERE population > 1000000 "
                "LIMIT 5",
                binding),
            -1);
  // Sort / distinct / aggregate reorder or collapse rows.
  EXPECT_EQ(key_limit("SELECT name FROM city ORDER BY name LIMIT 5",
                      binding),
            -1);
  EXPECT_EQ(key_limit("SELECT DISTINCT country FROM city LIMIT 5",
                      binding),
            -1);
  EXPECT_EQ(key_limit("SELECT COUNT(*) FROM city LIMIT 5", binding), -1);
  // The critic pass may reject scanned keys (verify_cells).
  planner::BindingOptions critic = binding;
  critic.scan_rows_may_drop = true;
  EXPECT_EQ(key_limit("SELECT name FROM city LIMIT 5", critic), -1);
  // Master switch.
  planner::BindingOptions off = binding;
  off.bound_scan_paging_by_limit = false;
  EXPECT_EQ(key_limit("SELECT name FROM city LIMIT 5", off), -1);
}

TEST(LimitBoundedScanTest, LimitBuysStrictlyFewerPages) {
  llm::ModelProfile profile = FullCoverage();
  profile.page_size = 5;  // many pages for an unbounded city scan
  core::ExecutionOptions options;
  options.verify_cells = false;  // keeps the bound legal

  llm::SimulatedLlm unbounded_model(&W().kb(), profile, &W().catalog(),
                                    7);
  core::GaloisExecutor unbounded(&unbounded_model, &W().catalog(),
                                 options);
  auto all = unbounded.RunSql("SELECT name FROM city");
  ASSERT_TRUE(all.ok()) << all.status();

  llm::SimulatedLlm limited_model(&W().kb(), profile, &W().catalog(), 7);
  core::GaloisExecutor limited(&limited_model, &W().catalog(), options);
  auto five = limited.RunSql("SELECT name FROM city LIMIT 5");
  ASSERT_TRUE(five.ok()) << five.status();

  EXPECT_EQ(five->relation.NumRows(), 5u);
  EXPECT_GT(all->relation.NumRows(), 5u);
  // Key-only scans issue exactly one prompt per page, so the cost meter
  // counts pages directly.
  EXPECT_LT(five->cost.num_prompts, all->cost.num_prompts);
  EXPECT_EQ(five->cost.num_prompts, 1);  // 5 keys fit in one 5-key page
}

// --- join lowering: which joins hash, and what Explain shows ---------------

std::string CompiledPlan(const std::string& sql) {
  core::ExecutionOptions options;
  auto plan = core::PhysicalPlan::Compile(
      Annotated(sql, core::BindingOptionsFor(options)), &W().catalog(),
      options);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.ok() ? plan->Render() : std::string();
}

bool Has(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

TEST(JoinLoweringTest, CommaJoinEqualityBecomesHashJoinKey) {
  std::string plan = CompiledPlan(
      "SELECT ci.name, co.continent FROM city ci, country co "
      "WHERE ci.country = co.name");
  EXPECT_TRUE(Has(plan, "HashJoin ON ci.country = co.name  [")) << plan;
  EXPECT_FALSE(Has(plan, "CrossJoin")) << plan;
  EXPECT_FALSE(Has(plan, "Filter")) << plan;  // nothing left to filter
  plan = CompiledPlan(
      "SELECT ci.name FROM city ci, country co "
      "WHERE co.name = ci.country AND ci.elevation < co.population");
  EXPECT_TRUE(Has(plan, "HashJoin ON co.name = ci.country  [")) << plan;
  EXPECT_TRUE(Has(plan, "Filter (ci.elevation < co.population)  ["))
      << plan;
}

TEST(JoinLoweringTest, OnClauseEqualityHashesWithPerPairCheck) {
  std::string plan = CompiledPlan(
      "SELECT ci.name FROM city ci JOIN country co "
      "ON ci.country = co.name AND co.population > 5");
  EXPECT_TRUE(Has(plan, "HashJoin ON ci.country = co.name (per-pair "
                        "check (co.population > 5))"))
      << plan;
  plan = CompiledPlan(
      "SELECT ci.name FROM city ci LEFT JOIN country co "
      "ON ci.country = co.name");
  EXPECT_TRUE(Has(plan, "LeftOuterHashJoin ON ci.country = co.name  ["))
      << plan;
}

TEST(JoinLoweringTest, NoUsableEqualityKeepsTheOldOperators) {
  EXPECT_TRUE(Has(CompiledPlan("SELECT ci.name FROM city ci, country co "
                               "WHERE ci.population > co.population"),
                  "CrossJoin"));
  EXPECT_TRUE(Has(CompiledPlan("SELECT ci.name FROM city ci JOIN country co "
                               "ON ci.population > co.population"),
                  "NestedLoopJoin ON (ci.population > co.population)"));
  // Both refs in one input: not a join key.
  EXPECT_TRUE(Has(CompiledPlan("SELECT ci.name FROM city ci, country co "
                               "WHERE ci.name = ci.country"),
                  "CrossJoin"));
}

TEST(JoinLoweringTest, PredicatesThatCanFailKeepEveryPair) {
  // Arithmetic can raise on some row, so the residual must still see
  // every pair of the cross product: no key is taken out of it.
  std::string plan = CompiledPlan(
      "SELECT ci.name FROM city ci, country co "
      "WHERE ci.country = co.name AND ci.population + 1 > co.population");
  EXPECT_TRUE(Has(plan, "CrossJoin")) << plan;
  EXPECT_FALSE(Has(plan, "HashJoin")) << plan;
  // An ambiguous ref fails the filter; the equality stays in it.
  plan = CompiledPlan(
      "SELECT ci.name FROM city ci, country co WHERE country = name");
  EXPECT_TRUE(Has(plan, "CrossJoin")) << plan;
  // A later ON clause that can fail would see fewer rows if the comma
  // join below it dropped pairs, so that comma join keeps them.
  plan = CompiledPlan(
      "SELECT st.name FROM stadium st, city ci JOIN country co "
      "ON ci.country = co.name AND ci.population * 2 > 1 "
      "WHERE st.city = ci.name");
  EXPECT_TRUE(Has(plan, "CrossJoin")) << plan;
  EXPECT_TRUE(Has(plan, "NestedLoopJoin ON ")) << plan;
  EXPECT_FALSE(Has(plan, "HashJoin")) << plan;
}

}  // namespace
}  // namespace galois
