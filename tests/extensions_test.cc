// Tests for the Section 6 extensions: critic verification, provenance
// recording, and the auto pushdown policy.

#include <gtest/gtest.h>

#include "core/galois_executor.h"
#include "core/llm_operators.h"
#include "engine/executor.h"
#include "eval/metrics.h"
#include "knowledge/workload.h"
#include "llm/prompt_templates.h"
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

const catalog::TableDef& CountryDef() {
  return *W().catalog().GetTable("country").value();
}

/// One critic verdict: the verification phase over a one-key list.
Result<int> VerifyOne(llm::LanguageModel* model, const std::string& key,
                      const catalog::ColumnDef& column, const Value& claimed) {
  GALOIS_ASSIGN_OR_RETURN(
      std::vector<int> verdicts,
      LlmVerifyCellBatch(model, CountryDef(), {key}, column, {claimed},
                         ExecutionOptions()));
  return verdicts.at(0);
}

// --- verification ---------------------------------------------------------

TEST(VerifyPromptTest, TemplateText) {
  llm::VerifyIntent intent;
  intent.concept_name = "city";
  intent.key = "Rome";
  intent.attribute = "population";
  intent.claimed = Value::Int(2800000);
  llm::Prompt p = llm::BuildVerifyPrompt(intent);
  EXPECT_NE(p.text.find("Is it true that the population of the city Rome "
                        "is 2800000? Answer Yes or No."),
            std::string::npos);
}

TEST(VerifyCellTest, ConfirmsTrueClaimRejectsFalseClaim) {
  llm::ModelProfile sharp = llm::ModelProfile::ChatGpt();
  sharp.coverage_floor = 1.0;
  sharp.coverage_gain = 0.0;
  sharp.verifier_accuracy = 1.0;
  llm::SimulatedLlm model(&W().kb(), sharp, nullptr, 7);
  const catalog::ColumnDef* capital =
      CountryDef().FindColumn("capital").value();
  EXPECT_EQ(
      VerifyOne(&model, "France", *capital, Value::String("Paris")).value(),
      1);
  EXPECT_EQ(
      VerifyOne(&model, "France", *capital, Value::String("Berlin")).value(),
      0);
}

TEST(VerifyCellTest, NumericToleranceAppliesToClaims) {
  llm::ModelProfile sharp = llm::ModelProfile::ChatGpt();
  sharp.coverage_floor = 1.0;
  sharp.coverage_gain = 0.0;
  sharp.verifier_accuracy = 1.0;
  llm::SimulatedLlm model(&W().kb(), sharp, nullptr, 7);
  Value truth =
      W().kb().GetAttribute("country", "Italy", "population").value();
  const catalog::ColumnDef* pop =
      CountryDef().FindColumn("population").value();
  // Within 5%: confirmed. Off by 50%: rejected.
  Value close = Value::Int(
      static_cast<int64_t>(truth.int_value() * 1.02));
  Value far = Value::Int(
      static_cast<int64_t>(truth.int_value() * 1.5));
  EXPECT_EQ(VerifyOne(&model, "Italy", *pop, close).value(), 1);
  EXPECT_EQ(VerifyOne(&model, "Italy", *pop, far).value(), 0);
}

TEST(VerifyCellTest, UnknownEntityAbstains) {
  llm::ModelProfile humble = llm::ModelProfile::ChatGpt();
  humble.coverage_floor = 0.0;
  humble.coverage_gain = 0.0;
  llm::SimulatedLlm model(&W().kb(), humble, nullptr, 7);
  const catalog::ColumnDef* capital =
      CountryDef().FindColumn("capital").value();
  EXPECT_EQ(
      VerifyOne(&model, "France", *capital, Value::String("Paris")).value(),
      -1);
}

TEST(VerifyCellTest, ImprovesContentAccuracy) {
  // Verification is the Section 6 claim: a critic pass filters
  // hallucinated cells, trading prompts for accuracy. Compare cell match
  // with and without it on a projection-heavy query.
  const char* sql =
      "SELECT name, capital, population FROM country "
      "WHERE continent = 'Europe'";
  auto rd = engine::ExecuteSql(sql, W().catalog());
  ASSERT_TRUE(rd.ok());

  llm::SimulatedLlm plain_model(&W().kb(), llm::ModelProfile::ChatGpt(),
                                &W().catalog(), 7);
  GaloisExecutor plain(&plain_model, &W().catalog());
  auto out_plain = plain.RunSql(sql);
  ASSERT_TRUE(out_plain.ok());
  const Relation* rm_plain = &out_plain->relation;

  llm::SimulatedLlm verified_model(&W().kb(),
                                   llm::ModelProfile::ChatGpt(),
                                   &W().catalog(), 7);
  ExecutionOptions opts;
  opts.verify_cells = true;
  GaloisExecutor verified(&verified_model, &W().catalog(), opts);
  auto out_verified = verified.RunSql(sql);
  ASSERT_TRUE(out_verified.ok());
  const Relation* rm_verified = &out_verified->relation;

  // Wrong cells become NULL, so wrong-cell count must not increase; and
  // verification costs extra prompts.
  size_t wrong_plain = 0, wrong_verified = 0;
  auto count_wrong = [&rd](const Relation& rm) {
    size_t wrong = 0;
    // Compare against ground truth row-by-key.
    for (const Tuple& row : rm.rows()) {
      for (const Tuple& truth_row : rd->rows()) {
        if (truth_row[0] == row[0]) {
          for (size_t c = 1; c < row.size(); ++c) {
            if (!row[c].is_null() &&
                !eval::CellMatches(truth_row[c], row[c])) {
              ++wrong;
            }
          }
        }
      }
    }
    return wrong;
  };
  wrong_plain = count_wrong(*rm_plain);
  wrong_verified = count_wrong(*rm_verified);
  EXPECT_LE(wrong_verified, wrong_plain);
  EXPECT_GT(out_verified->cost.num_prompts, out_plain->cost.num_prompts);
}

// --- provenance -----------------------------------------------------------

TEST(ProvenanceTest, DisabledByDefault) {
  llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  GaloisExecutor galois(&model, &W().catalog());
  auto out = galois.RunSql("SELECT name, capital FROM country");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->trace.cells.empty());
  EXPECT_TRUE(out->trace.scans.empty());
}

TEST(ProvenanceTest, RecordsScanAndCells) {
  llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  ExecutionOptions opts;
  opts.record_provenance = true;
  GaloisExecutor galois(&model, &W().catalog(), opts);
  auto rm = galois.RunSql(
      "SELECT name, capital FROM country WHERE continent = 'Europe'");
  ASSERT_TRUE(rm.ok());
  const ExecutionTrace& trace = rm->trace;
  ASSERT_EQ(trace.scans.size(), 1u);
  EXPECT_GT(trace.scans[0].pages, 0);
  EXPECT_GT(trace.scans[0].keys, 0u);
  EXPECT_GT(trace.scans[0].filtered, 0u);
  // One cell record per (row, retrieved attribute).
  EXPECT_EQ(trace.cells.size(), rm->relation.NumRows());  // only 'capital'
  for (const CellProvenance& cell : trace.cells) {
    EXPECT_EQ(cell.column, "capital");
    EXPECT_NE(cell.prompt.find("What is the capital"), std::string::npos);
    EXPECT_FALSE(cell.completion.empty());
  }
}

TEST(ProvenanceTest, TraceClearedBetweenQueries) {
  llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  ExecutionOptions opts;
  opts.record_provenance = true;
  GaloisExecutor galois(&model, &W().catalog(), opts);
  auto first_out = galois.RunSql("SELECT name, capital FROM country");
  ASSERT_TRUE(first_out.ok());
  size_t first = first_out->trace.cells.size();
  auto second_out = galois.RunSql("SELECT name FROM language");
  ASSERT_TRUE(second_out.ok());
  EXPECT_LT(second_out->trace.cells.size(), first);
}

TEST(ProvenanceTest, VerifiedAndRejectedFlagsRecorded) {
  llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  ExecutionOptions opts;
  opts.record_provenance = true;
  opts.verify_cells = true;
  GaloisExecutor galois(&model, &W().catalog(), opts);
  auto out = galois.RunSql("SELECT name, population FROM country");
  ASSERT_TRUE(out.ok());
  const ExecutionTrace& trace = out->trace;
  size_t verified = 0;
  for (const CellProvenance& c : trace.cells) {
    if (c.verified) ++verified;
    if (c.rejected) {
      EXPECT_TRUE(c.value.is_null());
    }
  }
  EXPECT_GT(verified, 0u);
  // With a noisy profile, some population cells get rejected.
  EXPECT_GT(trace.NumRejectedCells(), 0u);
}

TEST(ProvenanceTest, ToStringRendersReport) {
  llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  ExecutionOptions opts;
  opts.record_provenance = true;
  GaloisExecutor galois(&model, &W().catalog(), opts);
  auto out = galois.RunSql("SELECT name, capital FROM country "
                           "WHERE continent = 'Oceania'");
  ASSERT_TRUE(out.ok());
  std::string report = out->trace.ToString(5);
  EXPECT_NE(report.find("scan country"), std::string::npos);
  EXPECT_NE(report.find("capital"), std::string::npos);
}

// --- pushdown policy -------------------------------------------------------

TEST(PushdownPolicyTest, Names) {
  EXPECT_STREQ(PushdownPolicyName(PushdownPolicy::kNever), "never");
  EXPECT_STREQ(PushdownPolicyName(PushdownPolicy::kAlways), "always");
  EXPECT_STREQ(PushdownPolicyName(PushdownPolicy::kAuto), "auto");
}

TEST(PushdownPolicyTest, AutoPushesLargeScansOnly) {
  // city has ~108 expected rows (>= 60 threshold) -> pushed; country has
  // 48 -> not pushed. Compare prompt counts against the never/always
  // policies to see which branch auto took.
  auto run = [](const char* sql, PushdownPolicy policy) {
    llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::ChatGpt(),
                            &W().catalog(), 7);
    ExecutionOptions opts;
    opts.pushdown_policy = policy;
    GaloisExecutor galois(&model, &W().catalog(), opts);
    auto out = galois.RunSql(sql);
    EXPECT_TRUE(out.ok());
    return out.ok() ? out->cost.num_prompts : 0;
  };
  const char* city_sql =
      "SELECT name FROM city WHERE population > 5000000";
  EXPECT_EQ(run(city_sql, PushdownPolicy::kAuto),
            run(city_sql, PushdownPolicy::kAlways));
  EXPECT_LT(run(city_sql, PushdownPolicy::kAuto),
            run(city_sql, PushdownPolicy::kNever));

  const char* country_sql =
      "SELECT name FROM country WHERE continent = 'Europe'";
  EXPECT_EQ(run(country_sql, PushdownPolicy::kAuto),
            run(country_sql, PushdownPolicy::kNever));
}

TEST(PushdownPolicyTest, OptionsToStringMentionsEverything) {
  ExecutionOptions opts;
  opts.pushdown_policy = PushdownPolicy::kAuto;
  opts.verify_cells = true;
  opts.record_provenance = true;
  std::string s = opts.ToString();
  EXPECT_NE(s.find("pushdown=auto"), std::string::npos);
  EXPECT_NE(s.find("verify=on"), std::string::npos);
  EXPECT_NE(s.find("provenance=on"), std::string::npos);
}

// --- prompt batching --------------------------------------------------------

TEST(BatchingTest, SameAnswersFewerSimulatedSeconds) {
  const char* sql =
      "SELECT name, capital FROM country WHERE continent = 'Europe'";
  llm::SimulatedLlm seq_model(&W().kb(), llm::ModelProfile::ChatGpt(),
                              &W().catalog(), 7);
  GaloisExecutor sequential(&seq_model, &W().catalog());
  auto rm_seq = sequential.RunSql(sql);
  ASSERT_TRUE(rm_seq.ok());

  llm::SimulatedLlm batch_model(&W().kb(), llm::ModelProfile::ChatGpt(),
                                &W().catalog(), 7);
  ExecutionOptions opts;
  opts.batch_prompts = true;
  GaloisExecutor batched(&batch_model, &W().catalog(), opts);
  auto rm_batch = batched.RunSql(sql);
  ASSERT_TRUE(rm_batch.ok());

  // Identical relation, same prompt count, strictly lower latency, and
  // batch round trips recorded.
  EXPECT_TRUE(rm_seq->relation.SameContents(rm_batch->relation));
  EXPECT_EQ(rm_seq->cost.num_prompts, rm_batch->cost.num_prompts);
  EXPECT_LT(rm_batch->cost.simulated_latency_ms,
            rm_seq->cost.simulated_latency_ms / 2);
  EXPECT_GT(rm_batch->cost.num_batches, 0);
  EXPECT_EQ(rm_seq->cost.num_batches, 0);
}

/// Forwards one prompt at a time to `inner` and fails the prompt whose
/// text is `fail_text`. It implements only CompleteMetered, so its batch
/// call is LanguageModel's default loop.
class OnePromptModel : public llm::ForwardingModel {
 public:
  explicit OnePromptModel(llm::LanguageModel* inner)
      : llm::ForwardingModel(inner) {}

  Result<llm::Completion> CompleteMetered(const llm::Prompt& prompt,
                                          llm::CostMeter* usage) override {
    if (prompt.text == fail_text) return Status::LlmError("no answer");
    return inner_->CompleteMetered(prompt, usage);
  }

  std::string fail_text;
};

TEST(BatchingTest, DefaultBatchLoopsOverComplete) {
  llm::SimulatedLlm inner(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  OnePromptModel model(&inner);
  llm::AttributeGetIntent intent;
  intent.concept_name = "country";
  intent.attribute = "capital";
  std::vector<llm::Prompt> prompts;
  for (const char* key : {"Italy", "France", "Spain"}) {
    intent.key = key;
    prompts.push_back(llm::BuildAttributePrompt(intent));
  }
  llm::CostMeter usage;
  auto batch = model.CompleteBatchMetered(prompts, &usage);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 3u);
  // In input order, the one-by-one completions; the usage is the sum of
  // their reports (the model's slice holds every billed field), and no
  // batch round trip.
  llm::SimulatedLlm fresh(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  llm::CostMeter reports;
  for (size_t i = 0; i < prompts.size(); ++i) {
    EXPECT_EQ(batch.value()[i].text,
              fresh.CompleteMetered(prompts[i], &reports).value().text);
  }
  EXPECT_EQ(usage.num_prompts, 3);
  EXPECT_EQ(usage.by_model, reports.by_model);
  EXPECT_EQ(usage.num_batches, 0);
  EXPECT_EQ(inner.cost().num_batches, 0);

  // A batch whose second prompt fails returns that error and reports
  // nothing, though the first prompt billed the model; the third never
  // reaches it.
  model.fail_text = prompts[1].text;
  llm::CostMeter failed_usage;
  auto failed = model.CompleteBatchMetered(prompts, &failed_usage);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kLlmError);
  EXPECT_EQ(failed.status().message(), "no answer");
  EXPECT_EQ(failed_usage.num_prompts, 0);
  EXPECT_TRUE(failed_usage.by_model.empty());
  EXPECT_EQ(inner.cost().num_prompts, 4);
  EXPECT_EQ(inner.cost().num_batches, 0);
}

TEST(BatchingTest, EmptyBatchIsNoop) {
  llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  auto batch = model.CompleteBatch({});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch.value().empty());
  EXPECT_EQ(model.cost().num_batches, 0);
}

TEST(BatchingTest, ProvenanceStillRecordedColumnWise) {
  llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  ExecutionOptions opts;
  opts.batch_prompts = true;
  opts.record_provenance = true;
  GaloisExecutor galois(&model, &W().catalog(), opts);
  auto rm = galois.RunSql(
      "SELECT name, capital FROM country WHERE continent = 'Oceania'");
  ASSERT_TRUE(rm.ok());
  EXPECT_EQ(rm->trace.cells.size(), rm->relation.NumRows());
}

TEST(PushdownPolicyTest, WorkloadTablesCarryExpectedRows) {
  EXPECT_EQ(W().catalog().GetTable("country").value()->expected_rows,
            48u);
  EXPECT_GT(W().catalog().GetTable("city").value()->expected_rows, 60u);
}

}  // namespace
}  // namespace galois::core
