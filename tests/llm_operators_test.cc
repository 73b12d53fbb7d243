// Tests for the LLM physical operators: key scan paging/termination,
// attribute retrieval + cleaning, filter checks (single keys go through
// the phase functions as one-key lists).

#include <gtest/gtest.h>

#include "core/llm_operators.h"
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

const catalog::TableDef& CountryDef() {
  return *W().catalog().GetTable("country").value();
}

/// One cell: the attribute-retrieval phase over a one-key list.
Result<Value> GetOne(llm::LanguageModel* model, const std::string& key,
                     const catalog::ColumnDef& column,
                     const ExecutionOptions& opts) {
  GALOIS_ASSIGN_OR_RETURN(
      std::vector<Value> values,
      LlmGetAttributeBatch(model, CountryDef(), {key}, column, opts));
  return values.at(0);
}

/// One verdict: the filter-check phase over a one-key list.
Result<int> CheckOne(llm::LanguageModel* model, const std::string& key,
                     const llm::PromptFilter& filter) {
  GALOIS_ASSIGN_OR_RETURN(
      std::vector<int> verdicts,
      LlmFilterCheckBatch(model, CountryDef(), {key}, filter,
                          ExecutionOptions()));
  return verdicts.at(0);
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

TEST(LlmKeyScanTest, FullCoverageRetrievesAllKeys) {
  llm::SimulatedLlm model(&W().kb(), FullCoverage(), nullptr, 7);
  ExecutionOptions opts;
  auto keys = LlmKeyScan(&model, CountryDef(), opts);
  ASSERT_TRUE(keys.ok()) << keys.status();
  EXPECT_EQ(keys->size(),
            W().kb().FindConcept("country")->entities.size());
}

TEST(LlmKeyScanTest, KeysAreUnique) {
  llm::SimulatedLlm model(&W().kb(), llm::ModelProfile::Gpt3(),
                          nullptr, 7);
  ExecutionOptions opts;
  auto keys = LlmKeyScan(&model, CountryDef(), opts);
  ASSERT_TRUE(keys.ok());
  std::set<std::string> unique(keys->begin(), keys->end());
  EXPECT_EQ(unique.size(), keys->size());
}

TEST(LlmKeyScanTest, FatigueTruncatesScan) {
  llm::ModelProfile tired = FullCoverage();
  tired.paging_fatigue = 0.9;
  tired.page_size = 5;
  llm::SimulatedLlm model(&W().kb(), tired, nullptr, 7);
  ExecutionOptions opts;
  auto keys = LlmKeyScan(&model, CountryDef(), opts);
  ASSERT_TRUE(keys.ok());
  EXPECT_LT(keys->size(),
            W().kb().FindConcept("country")->entities.size());
}

TEST(LlmKeyScanTest, MaxPagesBoundsPromptCount) {
  llm::SimulatedLlm model(&W().kb(), FullCoverage(), nullptr, 7);
  ExecutionOptions opts;
  opts.max_scan_pages = 1;
  auto keys = LlmKeyScan(&model, CountryDef(), opts);
  ASSERT_TRUE(keys.ok());
  EXPECT_LE(keys->size(), static_cast<size_t>(FullCoverage().page_size));
  EXPECT_EQ(model.cost().num_prompts, 1);
}

TEST(LlmKeyScanTest, PushedFilterRestrictsKeys) {
  llm::SimulatedLlm model(&W().kb(), FullCoverage(), nullptr, 7);
  ExecutionOptions opts;
  llm::PromptFilter filter;
  filter.attribute = "continent";
  filter.op = "=";
  filter.value = Value::String("Africa");
  auto keys = LlmKeyScan(&model, CountryDef(), opts, filter);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 5u);  // exactly the African countries
}

TEST(LlmGetAttributeTest, RetrievesAndCleans) {
  llm::SimulatedLlm model(&W().kb(), FullCoverage(), nullptr, 7);
  ExecutionOptions opts;
  const catalog::ColumnDef* capital =
      CountryDef().FindColumn("capital").value();
  auto v = GetOne(&model, "France", *capital, opts);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), Value::String("Paris"));

  const catalog::ColumnDef* pop =
      CountryDef().FindColumn("population").value();
  auto p = GetOne(&model, "France", *pop, opts);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().type(), DataType::kInt64);
}

TEST(LlmGetAttributeTest, NoisyFormatsStillTyped) {
  llm::ModelProfile noisy = FullCoverage();
  noisy.value_format_noise = 1.0;
  noisy.verbosity = 1.0;
  llm::SimulatedLlm model(&W().kb(), noisy, nullptr, 7);
  ExecutionOptions opts;
  const catalog::ColumnDef* pop =
      CountryDef().FindColumn("population").value();
  for (const char* country : {"Italy", "Japan", "Kenya"}) {
    auto v = GetOne(&model, country, *pop, opts);
    ASSERT_TRUE(v.ok());
    ASSERT_FALSE(v.value().is_null()) << country;
    EXPECT_EQ(v.value().type(), DataType::kInt64) << country;
  }
}

TEST(LlmGetAttributeTest, CleaningDisabledReturnsRawString) {
  llm::ModelProfile noisy = FullCoverage();
  noisy.value_format_noise = 1.0;
  llm::SimulatedLlm model(&W().kb(), noisy, nullptr, 7);
  ExecutionOptions opts;
  opts.enable_cleaning = false;
  const catalog::ColumnDef* pop =
      CountryDef().FindColumn("population").value();
  auto v = GetOne(&model, "Italy", *pop, opts);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().type(), DataType::kString);
}

TEST(LlmGetAttributeTest, UnknownEntityGivesNull) {
  llm::ModelProfile humble = FullCoverage();
  humble.coverage_floor = 0.0;
  humble.fake_entity_confidence = 0.0;
  llm::SimulatedLlm model(&W().kb(), humble, nullptr, 7);
  ExecutionOptions opts;
  const catalog::ColumnDef* capital =
      CountryDef().FindColumn("capital").value();
  auto v = GetOne(&model, "France", *capital, opts);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.value().is_null());
}

TEST(LlmFilterCheckTest, AnswersMatchTruthWithPerfectModel) {
  llm::SimulatedLlm model(&W().kb(), FullCoverage(), nullptr, 7);
  llm::PromptFilter europe;
  europe.attribute = "continent";
  europe.op = "=";
  europe.value = Value::String("Europe");
  EXPECT_EQ(CheckOne(&model, "Italy", europe).value(), 1);
  EXPECT_EQ(CheckOne(&model, "Japan", europe).value(), 0);
}

TEST(LlmFilterCheckTest, NumericComparisons) {
  llm::SimulatedLlm model(&W().kb(), FullCoverage(), nullptr, 7);
  Value truth =
      W().kb().GetAttribute("country", "Italy", "population").value();
  llm::PromptFilter above;
  above.attribute = "population";
  above.op = ">";
  above.value = Value::Int(truth.int_value() - 1);
  EXPECT_EQ(CheckOne(&model, "Italy", above).value(), 1);
  above.op = "<";
  EXPECT_EQ(CheckOne(&model, "Italy", above).value(), 0);
}

TEST(LlmFilterCheckTest, UnknownEntityGivesMinusOne) {
  llm::ModelProfile humble = FullCoverage();
  humble.coverage_floor = 0.0;
  humble.fake_entity_confidence = 0.0;
  llm::SimulatedLlm model(&W().kb(), humble, nullptr, 7);
  llm::PromptFilter europe;
  europe.attribute = "continent";
  europe.op = "=";
  europe.value = Value::String("Europe");
  EXPECT_EQ(CheckOne(&model, "Italy", europe).value(), -1);
}

}  // namespace
}  // namespace galois::core
