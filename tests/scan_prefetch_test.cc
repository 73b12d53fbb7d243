// The key scan's one paging loop. With batch_prompts on, page 0 sizes
// the scan and the pages the catalog predicts go out in flushes that
// grow with the pages consumed: the keys stay the ladder's on every
// table, the only extra prompts are the overfetched pages, fewer than the
// scan consumed, a failed flush ends in the ladder's keys or the ladder's
// error and bills what the model billed, unsized scans (LIMIT-bounded,
// pushed filter, no row estimate) make the ladder's calls, cancellation
// still cuts the scan off, overfetched pages land in a prompt cache, and
// Explain counts the scan's round trips, not its pages.

#include <gtest/gtest.h>

#include <mutex>
#include <optional>
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

/// The country table with its row estimate doubled: the sized flushes
/// then buy pages past the one that ends the scan.
catalog::TableDef OverestimatedCountryDef() {
  catalog::TableDef def = CountryDef();
  def.expected_rows *= 2;
  return def;
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

ExecutionOptions Batched(size_t max_batch_size = 0) {
  ExecutionOptions options;
  options.batch_prompts = true;
  options.max_batch_size = max_batch_size;
  return options;
}

int KeyScanPage(const llm::Prompt& prompt) {
  const auto* scan = std::get_if<llm::KeyScanIntent>(&prompt.intent);
  return scan == nullptr ? -1 : scan->page;
}

/// Forwards to `inner` and fails the key-scan prompt of one page after
/// `inner` has answered (and billed) it, reporting nothing for it. Its
/// batch call is the default loop over CompleteMetered, so a batch
/// holding that page fails too.
class FailingPageModel : public llm::ForwardingModel {
 public:
  FailingPageModel(llm::LanguageModel* inner, int page)
      : llm::ForwardingModel(inner), page_(page) {}

  Result<llm::Completion> CompleteMetered(const llm::Prompt& prompt,
                                          llm::CostMeter* usage) override {
    const bool fail = KeyScanPage(prompt) == page_;
    Result<llm::Completion> completion =
        inner_->CompleteMetered(prompt, fail ? nullptr : usage);
    if (fail) {
      return Status::LlmError("no answer for page " + std::to_string(page_));
    }
    return completion;
  }

 private:
  int page_;
};

/// Forwards to `inner` and logs each round trip's scan pages: "3" for a
/// one-prompt call of page 3, "[1 2 3]" for a batch of pages 1-3. With
/// `cancel` set it requests cancellation once page 0 is answered.
class PageLog : public llm::ForwardingModel {
 public:
  explicit PageLog(llm::LanguageModel* inner, CancelToken cancel = nullptr)
      : llm::ForwardingModel(inner), cancel_(std::move(cancel)) {}

  Result<llm::Completion> CompleteMetered(const llm::Prompt& prompt,
                                          llm::CostMeter* usage) override {
    Log(std::to_string(KeyScanPage(prompt)));
    Result<llm::Completion> completion =
        inner_->CompleteMetered(prompt, usage);
    if (cancel_ != nullptr && KeyScanPage(prompt) == 0) {
      cancel_->RequestCancel();
    }
    return completion;
  }

  Result<std::vector<llm::Completion>> CompleteBatchMetered(
      const std::vector<llm::Prompt>& prompts,
      llm::CostMeter* usage) override {
    std::string pages;
    for (const llm::Prompt& p : prompts) {
      pages += (pages.empty() ? "" : " ") + std::to_string(KeyScanPage(p));
    }
    Log("[" + pages + "]");
    return inner_->CompleteBatchMetered(prompts, usage);
  }

  std::vector<std::string> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  void Log(std::string call) {
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back(std::move(call));
  }

  CancelToken cancel_;
  mutable std::mutex mu_;
  std::vector<std::string> calls_;
};

TEST(ScanPrefetchTest, BatchOnKeepsTheLadderKeysOnEveryTable) {
  // Every LLM table under every model profile, with one chunk per flush
  // and with chunks of 4: the ladder's keys, and the extra prompts are
  // exactly the overfetched pages. The weak profiles end their scans long
  // before the catalog's row count, so the overfetch is bounded per scan
  // (fewer pages than the ladder's) and per profile (at most half the
  // ladder's pages over all tables).
  int sized_scans = 0;
  for (const llm::ModelProfile& profile :
       {llm::ModelProfile::Flan(), llm::ModelProfile::Tk(),
        llm::ModelProfile::Gpt3(), llm::ModelProfile::ChatGpt()}) {
    int ladder_pages = 0;
    int overfetched[2] = {0, 0};  // at max_batch_size 0 and 4
    for (const std::string& name : W().catalog().TableNames()) {
      const catalog::TableDef& def = *W().catalog().GetTable(name).value();
      if (def.default_source != catalog::SourceKind::kLlm) continue;
      SCOPED_TRACE(profile.name + " " + name);
      llm::SimulatedLlm ladder_model(&W().kb(), profile, &W().catalog(), 7);
      KeyScanStats ladder;
      auto want = LlmKeyScan(&ladder_model, def, ExecutionOptions(),
                             /*filter=*/std::nullopt, &ladder);
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ(ladder.flushed, 0);
      EXPECT_EQ(ladder.overfetched, 0);
      EXPECT_EQ(ladder.round_trips(), ladder.pages);
      EXPECT_EQ(ladder_model.cost().num_prompts, ladder.pages);
      ladder_pages += ladder.pages;

      for (size_t max_batch_size : {0, 4}) {
        SCOPED_TRACE("max_batch_size=" + std::to_string(max_batch_size));
        llm::SimulatedLlm model(&W().kb(), profile, &W().catalog(), 7);
        KeyScanStats stats;
        auto got = LlmKeyScan(&model, def, Batched(max_batch_size),
                              /*filter=*/std::nullopt, &stats);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(*got, *want);
        EXPECT_EQ(model.cost().num_prompts,
                  ladder_model.cost().num_prompts + stats.overfetched);
        EXPECT_EQ(model.cost().num_prompts, stats.pages);
        EXPECT_EQ(stats.pages - stats.overfetched, ladder.pages);
        EXPECT_LE(stats.overfetched, stats.flushed);
        EXPECT_LT(stats.overfetched, ladder.pages);
        EXPECT_EQ(model.cost().num_batches, stats.batches);
        // In one chunk per flush the sized scan never takes more round
        // trips than the ladder; in chunks of 4 an overestimate may.
        if (max_batch_size == 0) {
          EXPECT_LE(stats.round_trips(), ladder.round_trips());
        }
        overfetched[max_batch_size == 0 ? 0 : 1] += stats.overfetched;
        if (stats.flushed > 0) ++sized_scans;
      }
    }
    SCOPED_TRACE(profile.name);
    for (int total : overfetched) EXPECT_LE(2 * total, ladder_pages);
  }
  EXPECT_GT(sized_scans, 0);
}

TEST(ScanPrefetchTest, FlushesGrowThenTheOnDemandTail) {
  // Country at page size 5 predicts 10 pages: page 0 alone, then each
  // flush one page more than the scan has consumed (pages 1-2, 3-6), the
  // last cut at the prediction (7-9), then the page that ends the scan on
  // demand. Capped at 5 pages, the prediction is cut to 5 and so is the
  // second flush (3-4), and the cap ends the scan.
  const catalog::TableDef& def = CountryDef();
  ASSERT_EQ((def.expected_rows + 4) / 5, 10u);
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
  PageLog model(&inner);
  KeyScanStats stats;
  auto keys = LlmKeyScan(&model, def, Batched(), /*filter=*/std::nullopt,
                         &stats);
  ASSERT_TRUE(keys.ok()) << keys.status();
  EXPECT_EQ(model.calls(), (std::vector<std::string>{
                               "0", "[1 2]", "[3 4 5 6]", "[7 8 9]", "10"}));
  EXPECT_EQ(stats.pages, 11);
  EXPECT_EQ(stats.flushed, 9);
  EXPECT_EQ(stats.batches, 3);
  EXPECT_EQ(stats.round_trips(), 5);
  EXPECT_EQ(stats.overfetched, 0);
  EXPECT_EQ(keys->size(), def.expected_rows);

  ExecutionOptions capped = Batched();
  capped.max_scan_pages = 5;
  ExecutionOptions capped_ladder;
  capped_ladder.max_scan_pages = 5;
  llm::SimulatedLlm ladder_inner(&W().kb(), FullCoverage(5), nullptr, 7);
  auto want = LlmKeyScan(&ladder_inner, def, capped_ladder);
  ASSERT_TRUE(want.ok()) << want.status();
  llm::SimulatedLlm capped_inner(&W().kb(), FullCoverage(5), nullptr, 7);
  PageLog capped_model(&capped_inner);
  auto got = LlmKeyScan(&capped_model, def, capped, /*filter=*/std::nullopt,
                        &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, *want);
  EXPECT_EQ(capped_model.calls(),
            (std::vector<std::string>{"0", "[1 2]", "[3 4]"}));
  EXPECT_EQ(stats.pages, 5);
  EXPECT_EQ(stats.flushed, 4);
  EXPECT_EQ(stats.overfetched, 0);
  EXPECT_EQ(capped_inner.cost().num_prompts, ladder_inner.cost().num_prompts);
}

TEST(ScanPrefetchTest, FailedPagePastTheEndStillYieldsTheLadderKeys) {
  // The overestimated table predicts 20 pages, so the flush of pages 7-14
  // holds pages past the one that ends the scan (page 10); the first of
  // them fails, and with it the flush. The scan goes on from page 7 on
  // demand and ends where the ladder ends, and its pages are what the
  // model billed, the failed flush's included.
  const catalog::TableDef def = OverestimatedCountryDef();
  llm::SimulatedLlm ladder_inner(&W().kb(), FullCoverage(5), nullptr, 7);
  KeyScanStats ladder;
  auto want = LlmKeyScan(&ladder_inner, def, ExecutionOptions(),
                         /*filter=*/std::nullopt, &ladder);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_EQ(ladder.pages, 11);
  const int failing_page = ladder.pages;  // one past the ending page

  for (size_t max_batch_size : {0, 4}) {
    SCOPED_TRACE("max_batch_size=" + std::to_string(max_batch_size));
    llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
    FailingPageModel model(&inner, failing_page);
    KeyScanStats stats;
    auto got = LlmKeyScan(&model, def, Batched(max_batch_size),
                          /*filter=*/std::nullopt, &stats);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, *want);
    EXPECT_EQ(inner.cost().num_prompts, stats.pages);
    EXPECT_GT(stats.overfetched, 0);  // the failed flush billed
    EXPECT_EQ(stats.pages - stats.overfetched, ladder.pages);
  }
}

TEST(ScanPrefetchTest, FailedPageReadsTheSameAtBatchOnAndOff) {
  // Page 3 fails after it billed. The batched scan's second flush (pages
  // 3-6) holds it and fails with it; the scan then fetches page 3 on
  // demand, where it fails with the ladder's status, code and message.
  // The failed flush bills what the model billed: one page as one batch
  // (the model's CompleteBatch stops at page 3) or as serial one-page
  // chunks (the first chunk fails), all four as concurrent chunks.
  struct Arm {
    ExecutionOptions options;
    int overfetched;
  };
  ExecutionOptions concurrent = Batched(1);
  ExecutionOptions serial = Batched(1);
  serial.parallel_batches = 1;
  std::vector<Status> errors;
  for (const Arm& arm : {Arm{ExecutionOptions(), 0}, Arm{Batched(), 1},
                         Arm{concurrent, 4}, Arm{serial, 1}}) {
    SCOPED_TRACE(arm.options.ToString());
    llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
    FailingPageModel model(&inner, /*page=*/3);
    KeyScanStats stats;
    auto keys = LlmKeyScan(&model, CountryDef(), arm.options,
                           /*filter=*/std::nullopt, &stats);
    ASSERT_FALSE(keys.ok());
    errors.push_back(keys.status());
    EXPECT_EQ(inner.cost().num_prompts, stats.pages);
    EXPECT_EQ(stats.overfetched, arm.overfetched);
    EXPECT_EQ(stats.pages - stats.overfetched, 4);
  }
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_EQ(errors[0].code(), StatusCode::kLlmError);
  EXPECT_EQ(errors[0].message(), "no answer for page 3");
  for (const Status& error : errors) {
    EXPECT_EQ(error.code(), errors[0].code());
    EXPECT_EQ(error.message(), errors[0].message());
  }
}

TEST(ScanPrefetchTest, UnsizedScansMakeTheLaddersCalls) {
  // A LIMIT-bounded scan, a scan with a pushed-down filter and a table
  // without a row estimate are not sized: batch on, they make exactly the
  // ladder's calls, one page per round trip.
  llm::PromptFilter europe;
  europe.attribute = "continent";
  europe.op = "=";
  europe.value = Value::String("Europe");
  catalog::TableDef unestimated = CountryDef();
  unestimated.expected_rows = 0;
  struct Case {
    const char* name;
    const catalog::TableDef* def;
    std::optional<llm::PromptFilter> filter;
    int64_t key_limit;
  };
  for (const Case& c :
       {Case{"limit", &CountryDef(), std::nullopt, 7},
        Case{"filter", &CountryDef(), europe, -1},
        Case{"no estimate", &unestimated, std::nullopt, -1}}) {
    SCOPED_TRACE(c.name);
    std::vector<std::vector<std::string>> calls;
    std::vector<std::vector<std::string>> keys;
    for (const ExecutionOptions& options : {ExecutionOptions(), Batched()}) {
      llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), &W().catalog(), 7);
      PageLog model(&inner);
      KeyScanStats stats;
      auto got = LlmKeyScan(&model, *c.def, options, c.filter, &stats,
                            c.key_limit);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(stats.flushed, 0);
      EXPECT_EQ(stats.round_trips(), stats.pages);
      calls.push_back(model.calls());
      keys.push_back(*got);
    }
    EXPECT_EQ(calls[1], calls[0]);
    EXPECT_EQ(keys[1], keys[0]);
    EXPECT_GE(calls[0].size(), 2u);
  }
}

TEST(ScanPrefetchTest, CancellationStillReturnsCancelled) {
  // Cancelled before page 0: nothing goes out.
  ExecutionOptions options = Batched();
  options.control = std::make_shared<CancelState>();
  options.control->RequestCancel();
  llm::SimulatedLlm model(&W().kb(), FullCoverage(5), nullptr, 7);
  auto keys = LlmKeyScan(&model, CountryDef(), options);
  ASSERT_FALSE(keys.ok());
  EXPECT_EQ(keys.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(model.cost().num_prompts, 0);

  // Cancelled once page 0 is answered: the flush refuses to start, and
  // the scan then fails at page 1 exactly as the ladder does.
  std::vector<Status> errors;
  for (const ExecutionOptions& base : {ExecutionOptions(), Batched()}) {
    ExecutionOptions cancellable = base;
    cancellable.control = std::make_shared<CancelState>();
    llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
    PageLog logged(&inner, cancellable.control);
    auto got = LlmKeyScan(&logged, CountryDef(), cancellable);
    ASSERT_FALSE(got.ok());
    errors.push_back(got.status());
    EXPECT_EQ(logged.calls(), std::vector<std::string>{"0"});
  }
  EXPECT_EQ(errors[0].code(), StatusCode::kCancelled);
  EXPECT_EQ(errors[1].code(), errors[0].code());
  EXPECT_EQ(errors[1].message(), errors[0].message());
}

TEST(ScanPrefetchTest, OverfetchedPagesLandInThePromptCache) {
  // Overfetched pages are not wasted: their completions settle into a
  // prompt-cache decorator, so a later scan that *does* want those
  // pages gets them for free.
  const catalog::TableDef def = OverestimatedCountryDef();
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
  llm::PromptCache cached(&inner);
  KeyScanStats stats;
  auto first = LlmKeyScan(&cached, def, Batched(), /*filter=*/std::nullopt,
                          &stats);
  ASSERT_TRUE(first.ok());
  ASSERT_GE(stats.overfetched, 1);
  const int64_t bought = inner.cost().num_prompts;
  EXPECT_EQ(bought, stats.pages);

  // Identical rerun: every page — wanted and overfetched — is a cache
  // hit; the transport sees nothing new.
  auto second = LlmKeyScan(&cached, def, Batched());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(inner.cost().num_prompts, bought);
}

/// The Explain line of `table`'s key scan.
std::string KeyScanLine(const std::string& physical_plan,
                        const std::string& table) {
  const size_t at = physical_plan.find("KeyScan[LLM] " + table);
  if (at == std::string::npos) return "";
  return physical_plan.substr(at, physical_plan.find('\n', at) - at);
}

TEST(ScanPrefetchTest, ExplainCountsTheScansRoundTrips) {
  // City at page size 5 predicts 20 pages; in chunks of 4 the flushes of
  // pages 1-2, 3-6, 7-14 and 15-19 take 1, 1, 2 and 2 batches, and page 20
  // ends the scan. Explain reports those 8 round trips, not the 21 pages,
  // and says what the flushes did; the ladder's Explain reports one round
  // trip per page and no flush.
  const char* sql = "SELECT name FROM city";
  const catalog::TableDef& city = *W().catalog().GetTable("city").value();
  ASSERT_EQ((city.expected_rows + 4) / 5, 20u);

  llm::SimulatedLlm ladder_model(&W().kb(), FullCoverage(5), &W().catalog(),
                                 7);
  auto want = GaloisExecutor(&ladder_model, &W().catalog()).RunSql(sql);
  ASSERT_TRUE(want.ok()) << want.status();
  const std::string ladder_line = KeyScanLine(want->physical_plan, "city");
  EXPECT_NE(ladder_line.find("round trips=21,"), std::string::npos)
      << ladder_line;
  EXPECT_EQ(ladder_line.find("fetched ahead"), std::string::npos)
      << ladder_line;
  EXPECT_EQ(want->scan_pages_prefetched, 0);

  llm::SimulatedLlm model(&W().kb(), FullCoverage(5), &W().catalog(), 7);
  auto got =
      GaloisExecutor(&model, &W().catalog(), Batched(4)).RunSql(sql);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(want->relation.SameContents(got->relation));
  EXPECT_EQ(got->cost.num_prompts, want->cost.num_prompts);
  EXPECT_EQ(got->scan_pages_prefetched, 19);
  EXPECT_EQ(got->scan_pages_overfetched, 0);
  const std::string line = KeyScanLine(got->physical_plan, "city");
  EXPECT_NE(line.find("; 19 pages fetched ahead in 6 batches)"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("round trips=8,"), std::string::npos) << line;
}

}  // namespace
}  // namespace galois::core
