// Speculative key-scan prefetch: identical keys/pages/meters to the
// sequential scan when termination is the page cap, bounded overfetch
// on early termination, the same error for a failed page at every
// window, LIMIT-bounded scans never speculate, and cancellation still
// cuts the scan off.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>
#include <vector>

#include "common/cancel.h"
#include "core/galois_executor.h"
#include "core/llm_operators.h"
#include "knowledge/workload.h"
#include "llm/prompt_cache.h"
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

llm::ModelProfile FullCoverage(int page_size) {
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
  p.page_size = page_size;
  return p;
}

/// Forwards to `inner` and fails the key-scan prompt of one page after
/// `inner` has answered (and billed) it.
class FailingPageModel : public llm::LanguageModel {
 public:
  FailingPageModel(llm::LanguageModel* inner, int page)
      : inner_(inner), page_(page) {}

  const std::string& name() const override { return inner_->name(); }
  bool thread_safe() const override { return inner_->thread_safe(); }

  Result<llm::Completion> Complete(const llm::Prompt& prompt) override {
    Result<llm::Completion> completion = inner_->Complete(prompt);
    const auto* scan = std::get_if<llm::KeyScanIntent>(&prompt.intent);
    if (scan != nullptr && scan->page == page_) {
      return Status::LlmError("no answer for page " + std::to_string(page_));
    }
    return completion;
  }

  llm::CostMeter cost() const override { return inner_->cost(); }
  void ResetCost() override { inner_->ResetCost(); }

 private:
  llm::LanguageModel* inner_;
  int page_;
};

TEST(ScanPrefetchTest, CapTerminationMatchesSequentialExactly) {
  // Cap termination: every issued page is wanted, so the speculative
  // scan buys the same pages as the sequential one — identical keys,
  // identical spend, zero overfetch.
  ExecutionOptions sequential;
  sequential.max_scan_pages = 3;
  ExecutionOptions prefetched = sequential;
  prefetched.prefetch_pages = 2;

  llm::SimulatedLlm seq_model(&W().kb(), FullCoverage(5), nullptr, 7);
  KeyScanStats seq_stats;
  auto seq = LlmKeyScan(&seq_model, CountryDef(), sequential,
                        /*filter=*/std::nullopt, &seq_stats);
  ASSERT_TRUE(seq.ok());

  llm::SimulatedLlm pre_model(&W().kb(), FullCoverage(5), nullptr, 7);
  KeyScanStats pre_stats;
  auto pre = LlmKeyScan(&pre_model, CountryDef(), prefetched,
                        /*filter=*/std::nullopt, &pre_stats);
  ASSERT_TRUE(pre.ok());

  EXPECT_EQ(*seq, *pre);
  EXPECT_EQ(seq_stats.pages, 3);
  EXPECT_EQ(pre_stats.pages, 3);
  EXPECT_EQ(pre_stats.prefetched, 2);
  EXPECT_EQ(pre_stats.overfetched, 0);
  EXPECT_EQ(seq_model.cost().num_prompts, pre_model.cost().num_prompts);
  EXPECT_EQ(seq_model.cost().prompt_tokens, pre_model.cost().prompt_tokens);
  EXPECT_EQ(seq_model.cost().completion_tokens,
            pre_model.cost().completion_tokens);
}

TEST(ScanPrefetchTest, EarlyTerminationJoinsAndCountsOverfetch) {
  // One page holds the whole table, page 2 says "no more": the window
  // has already bought page 3. It is joined (it billed) and counted as
  // overfetched; the key set stays identical to sequential.
  ExecutionOptions sequential;
  ExecutionOptions prefetched = sequential;
  prefetched.prefetch_pages = 2;

  llm::SimulatedLlm seq_model(&W().kb(), FullCoverage(50), nullptr, 7);
  auto seq = LlmKeyScan(&seq_model, CountryDef(), sequential);
  ASSERT_TRUE(seq.ok());

  llm::SimulatedLlm pre_model(&W().kb(), FullCoverage(50), nullptr, 7);
  KeyScanStats stats;
  auto pre = LlmKeyScan(&pre_model, CountryDef(), prefetched,
                        /*filter=*/std::nullopt, &stats);
  ASSERT_TRUE(pre.ok());

  EXPECT_EQ(*seq, *pre);
  EXPECT_GE(stats.overfetched, 1);
  EXPECT_EQ(stats.pages - stats.overfetched,
            static_cast<int>(seq_model.cost().num_prompts));
  // Every speculated round trip was paid for.
  EXPECT_EQ(static_cast<int>(pre_model.cost().num_prompts), stats.pages);
}

TEST(ScanPrefetchTest, FailedPageReadsTheSameAtEveryWindow) {
  // Page 2 fails after it billed. Both windows return the model's status
  // unchanged; the speculative scan had pages 3 and 4 in flight by then,
  // so it pays for them and reports them as overfetched.
  std::vector<Status> errors;
  for (int prefetch_pages : {0, 2}) {
    SCOPED_TRACE("prefetch_pages=" + std::to_string(prefetch_pages));
    ExecutionOptions options;
    options.prefetch_pages = prefetch_pages;
    llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
    FailingPageModel model(&inner, /*page=*/2);
    KeyScanStats stats;
    auto keys = LlmKeyScan(&model, CountryDef(), options,
                           /*filter=*/std::nullopt, &stats);
    ASSERT_FALSE(keys.ok());
    errors.push_back(keys.status());
    EXPECT_EQ(static_cast<int>(inner.cost().num_prompts), stats.pages);
    EXPECT_EQ(stats.pages, prefetch_pages == 0 ? 3 : 5);
    EXPECT_EQ(stats.overfetched, prefetch_pages == 0 ? 0 : 2);
  }
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].code(), StatusCode::kLlmError);
  EXPECT_EQ(errors[1].code(), errors[0].code());
  EXPECT_EQ(errors[1].message(), errors[0].message());
  EXPECT_EQ(errors[0].message(), "no answer for page 2");
}

TEST(ScanPrefetchTest, WindowWiderThanPageCapTerminates) {
  // prefetch_pages >= max_scan_pages: the fill must stop at the cap,
  // not wait for a window that can never fill.
  ExecutionOptions options;
  options.max_scan_pages = 2;
  options.prefetch_pages = 8;
  llm::SimulatedLlm model(&W().kb(), FullCoverage(5), nullptr, 7);
  KeyScanStats stats;
  auto keys = LlmKeyScan(&model, CountryDef(), options,
                         /*filter=*/std::nullopt, &stats);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(stats.pages, 2);
  EXPECT_EQ(model.cost().num_prompts, 2);
}

TEST(ScanPrefetchTest, LimitBoundedScanNeverSpeculates) {
  // A LIMIT-derived key bound promises no round trip past the
  // satisfying page; prefetch must be disabled, not merely trimmed.
  ExecutionOptions options;
  options.prefetch_pages = 4;
  llm::SimulatedLlm model(&W().kb(), FullCoverage(5), nullptr, 7);
  KeyScanStats stats;
  auto keys = LlmKeyScan(&model, CountryDef(), options,
                         /*filter=*/std::nullopt, &stats,
                         /*key_limit=*/7);
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(stats.prefetched, 0);
  EXPECT_EQ(stats.overfetched, 0);
  EXPECT_EQ(stats.pages, 2);  // ceil(7 / page_size 5)
  EXPECT_EQ(model.cost().num_prompts, 2);
}

TEST(ScanPrefetchTest, CancellationStopsTheScan) {
  ExecutionOptions options;
  options.prefetch_pages = 2;
  options.control = std::make_shared<CancelState>();
  options.control->RequestCancel();
  llm::SimulatedLlm model(&W().kb(), FullCoverage(5), nullptr, 7);
  auto keys = LlmKeyScan(&model, CountryDef(), options);
  ASSERT_FALSE(keys.ok());
  EXPECT_EQ(keys.status().code(), StatusCode::kCancelled);
}

TEST(ScanPrefetchTest, ExecutorQueryIsIdenticalWithPrefetch) {
  // End to end: the same query with and without speculation returns the
  // same relation at the same LLM spend when the scan ends at the page
  // cap, and the prefetch counters surface in QueryOutput.
  ExecutionOptions base;
  base.max_scan_pages = 3;
  ExecutionOptions spec = base;
  spec.prefetch_pages = 2;

  llm::SimulatedLlm plain_model(&W().kb(), FullCoverage(5), &W().catalog(),
                                7);
  GaloisExecutor plain(&plain_model, &W().catalog(), base);
  auto want = plain.RunSql("SELECT name, capital FROM country");
  ASSERT_TRUE(want.ok());

  llm::SimulatedLlm spec_model(&W().kb(), FullCoverage(5), &W().catalog(),
                               7);
  GaloisExecutor speculating(&spec_model, &W().catalog(), spec);
  auto got = speculating.RunSql("SELECT name, capital FROM country");
  ASSERT_TRUE(got.ok());

  EXPECT_TRUE(want->relation.SameContents(got->relation));
  EXPECT_EQ(want->cost.num_prompts, got->cost.num_prompts);
  EXPECT_EQ(want->scan_pages_prefetched, 0);
  EXPECT_EQ(got->scan_pages_prefetched, 2);
  EXPECT_EQ(got->scan_pages_overfetched, 0);
  // The explain report announces the speculative paging.
  EXPECT_NE(got->physical_plan.find("prefetched speculatively"),
            std::string::npos)
      << got->physical_plan;
}

TEST(ScanPrefetchTest, PrefetchedPagesLandInThePromptCache) {
  // Overfetched pages are not wasted: their completions settle into a
  // prompt-cache decorator, so a later scan that *does* want those
  // pages gets them for free.
  ExecutionOptions options;
  options.prefetch_pages = 3;
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(50), nullptr, 7);
  llm::PromptCache cached(&inner);
  KeyScanStats stats;
  auto first = LlmKeyScan(&cached, CountryDef(), options,
                          /*filter=*/std::nullopt, &stats);
  ASSERT_TRUE(first.ok());
  ASSERT_GE(stats.overfetched, 1);
  const int64_t bought = inner.cost().num_prompts;

  // Identical rerun: every page — wanted and overfetched — is a cache
  // hit; the transport sees nothing new.
  auto second = LlmKeyScan(&cached, CountryDef(), options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(inner.cost().num_prompts, bought);
}

}  // namespace
}  // namespace galois::core
