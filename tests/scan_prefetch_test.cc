// The key scan's one paging loop. With batch_prompts on, pages 0 and 1
// go out in the first round trip, page 0 sizes the scan, and the pages
// the catalog predicts, the one that ends the scan included, go out in
// flushes that grow with the pages consumed: the keys stay the ladder's
// on every table, the only extra prompts are the overfetched pages, fewer
// than the scan consumed (one when page 0 ends the scan), a failed flush
// (the first one too) ends in the ladder's keys or the ladder's error and
// bills what the model billed, unsized scans (LIMIT-bounded, pushed
// filter, no row estimate) make the ladder's calls, cancellation still
// cuts the scan off, overfetched pages land in a prompt cache, and
// Explain counts the scan's round trips, not its pages. Over learned
// key-scan lengths, a sized scan sends the pages its table's last scan
// needed in its first round trip, goes on in growing flushes past them,
// records its own length when it ends, and unsized scans leave the
// record alone.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
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

/// The country table (48 rows) with its row estimate doubled. At page
/// size 6 the model's keys fill pages 0-7 and page 8 ends the scan, inside
/// the flush of pages 5-10, so that flush buys pages 9 and 10 past the end.
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
/// `inner` has answered (and billed) it, reporting nothing for it: every
/// time, or only the first `failures` times. Its batch call is the
/// default loop over CompleteMetered, so a batch holding that page fails
/// too.
class FailingPageModel : public llm::ForwardingModel {
 public:
  FailingPageModel(llm::LanguageModel* inner, int page,
                   int failures = std::numeric_limits<int>::max())
      : llm::ForwardingModel(inner), page_(page), failures_(failures) {}

  Result<llm::Completion> CompleteMetered(const llm::Prompt& prompt,
                                          llm::CostMeter* usage) override {
    const bool fail =
        KeyScanPage(prompt) == page_ && failures_.fetch_sub(1) > 0;
    Result<llm::Completion> completion =
        inner_->CompleteMetered(prompt, fail ? nullptr : usage);
    if (fail) {
      return Status::LlmError("no answer for page " + std::to_string(page_));
    }
    return completion;
  }

 private:
  int page_;
  std::atomic<int> failures_;
};

/// Forwards to `inner` and logs each round trip's scan pages: "3" for a
/// one-prompt call of page 3, "[1 2 3]" for a batch of pages 1-3. With
/// `cancel` set it requests cancellation once the round trip that holds
/// page 0 is answered.
class PageLog : public llm::ForwardingModel {
 public:
  explicit PageLog(llm::LanguageModel* inner, CancelToken cancel = nullptr)
      : llm::ForwardingModel(inner), cancel_(std::move(cancel)) {}

  Result<llm::Completion> CompleteMetered(const llm::Prompt& prompt,
                                          llm::CostMeter* usage) override {
    Log(std::to_string(KeyScanPage(prompt)));
    Result<llm::Completion> completion =
        inner_->CompleteMetered(prompt, usage);
    CancelAfter(KeyScanPage(prompt));
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
    Result<std::vector<llm::Completion>> completions =
        inner_->CompleteBatchMetered(prompts, usage);
    if (!prompts.empty()) CancelAfter(KeyScanPage(prompts.front()));
    return completions;
  }

  std::vector<std::string> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  void CancelAfter(int first_page) {
    if (cancel_ != nullptr && first_page == 0) cancel_->RequestCancel();
  }

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

TEST(ScanPrefetchTest, BatchingAddsOnlyTheOverfetchedPagesPerProfile) {
  // The 46 workload queries, each on a fresh model (seed 7), at batch off
  // and at batch on in one chunk per phase: the same relation, and batch
  // on bills batch off's prompts plus exactly the pages its sized scans
  // bought past their ends. The totals pin that overfetch per profile.
  struct Case {
    llm::ModelProfile profile;
    int64_t overfetched;
  };
  for (const Case& c : {Case{llm::ModelProfile::ChatGpt(), 59},
                        Case{llm::ModelProfile::Gpt3(), 0},
                        Case{llm::ModelProfile::Flan(), 22},
                        Case{llm::ModelProfile::Tk(), 39}}) {
    SCOPED_TRACE(c.profile.name);
    int64_t overfetched = 0;
    for (const knowledge::QuerySpec& q : W().queries()) {
      SCOPED_TRACE(q.sql);
      llm::SimulatedLlm off_model(&W().kb(), c.profile, &W().catalog(), 7);
      auto off = GaloisExecutor(&off_model, &W().catalog()).RunSql(q.sql);
      llm::SimulatedLlm on_model(&W().kb(), c.profile, &W().catalog(), 7);
      auto on = GaloisExecutor(&on_model, &W().catalog(), Batched())
                    .RunSql(q.sql);
      ASSERT_TRUE(off.ok()) << off.status();
      ASSERT_TRUE(on.ok()) << on.status();
      EXPECT_TRUE(on->relation.SameContents(off->relation));
      EXPECT_EQ(on->cost.num_prompts,
                off->cost.num_prompts + on->scan_pages_overfetched);
      overfetched += on->scan_pages_overfetched;
    }
    EXPECT_EQ(overfetched, c.overfetched);
  }
}

TEST(ScanPrefetchTest, FlushesGrowThenTheOnDemandTail) {
  // Country at page size 5 fills 10 pages, so the scan predicts 11, the
  // page that ends it included: pages 0-1, then each flush one page more
  // than the scan has consumed (2-4, 5-10), the last one ending the scan,
  // so no page goes on demand. Capped at 5 pages, the prediction is cut
  // to 5, which the second flush (2-4) reaches, and the cap ends the
  // scan.
  const catalog::TableDef& def = CountryDef();
  ASSERT_EQ((def.expected_rows + 4) / 5, 10u);
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
  PageLog model(&inner);
  KeyScanStats stats;
  auto keys = LlmKeyScan(&model, def, Batched(), /*filter=*/std::nullopt,
                         &stats);
  ASSERT_TRUE(keys.ok()) << keys.status();
  EXPECT_EQ(model.calls(), (std::vector<std::string>{
                               "[0 1]", "[2 3 4]", "[5 6 7 8 9 10]"}));
  EXPECT_EQ(stats.pages, 11);
  EXPECT_EQ(stats.flushed, 11);
  EXPECT_EQ(stats.batches, 3);
  EXPECT_EQ(stats.round_trips(), 3);
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
            (std::vector<std::string>{"[0 1]", "[2 3 4]"}));
  EXPECT_EQ(stats.pages, 5);
  EXPECT_EQ(stats.flushed, 5);
  EXPECT_EQ(stats.overfetched, 0);
  EXPECT_EQ(capped_inner.cost().num_prompts, ladder_inner.cost().num_prompts);
}

TEST(ScanPrefetchTest, FailedPagePastTheEndStillYieldsTheLadderKeys) {
  // The overestimated table at page size 6 predicts 17 pages, so the
  // flush of pages 5-10 holds pages past the one that ends the scan (page
  // 8); the first of them fails, and with it the flush. The scan goes on
  // from page 5 on demand and ends where the ladder ends, and its pages
  // are what the model billed, the failed flush's included.
  const catalog::TableDef def = OverestimatedCountryDef();
  llm::SimulatedLlm ladder_inner(&W().kb(), FullCoverage(6), nullptr, 7);
  KeyScanStats ladder;
  auto want = LlmKeyScan(&ladder_inner, def, ExecutionOptions(),
                         /*filter=*/std::nullopt, &ladder);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_EQ(ladder.pages, 9);
  const int failing_page = ladder.pages;  // one past the ending page

  for (size_t max_batch_size : {0, 4}) {
    SCOPED_TRACE("max_batch_size=" + std::to_string(max_batch_size));
    llm::SimulatedLlm inner(&W().kb(), FullCoverage(6), nullptr, 7);
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
  // 2-4) holds it and fails with it; the scan then fetches pages 2 and 3
  // on demand, where page 3 fails with the ladder's status, code and
  // message. The failed flush bills what the model billed: two pages as
  // one batch (the model's CompleteBatch stops at page 3) or as serial
  // one-page chunks (the second chunk fails), all three as concurrent
  // chunks.
  struct Arm {
    ExecutionOptions options;
    int overfetched;
  };
  ExecutionOptions concurrent = Batched(1);
  ExecutionOptions serial = Batched(1);
  serial.parallel_batches = 1;
  std::vector<Status> errors;
  for (const Arm& arm : {Arm{ExecutionOptions(), 0}, Arm{Batched(), 2},
                         Arm{concurrent, 3}, Arm{serial, 2}}) {
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

TEST(ScanPrefetchTest, PageZeroEndingTheScanOverfetchesOnePage) {
  // A model that knows no country ends the scan at page 0. The batched
  // scan's first round trip also bought page 1: one round trip, the
  // ladder's empty key list, and exactly one page overfetched.
  llm::ModelProfile blank = FullCoverage(5);
  blank.coverage_floor = 0.0;
  llm::SimulatedLlm ladder_model(&W().kb(), blank, nullptr, 7);
  KeyScanStats ladder;
  auto want = LlmKeyScan(&ladder_model, CountryDef(), ExecutionOptions(),
                         /*filter=*/std::nullopt, &ladder);
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_TRUE(want->empty());
  EXPECT_EQ(ladder.pages, 1);

  llm::SimulatedLlm inner(&W().kb(), blank, nullptr, 7);
  PageLog model(&inner);
  KeyScanStats stats;
  auto got = LlmKeyScan(&model, CountryDef(), Batched(),
                        /*filter=*/std::nullopt, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, *want);
  EXPECT_EQ(model.calls(), std::vector<std::string>{"[0 1]"});
  EXPECT_EQ(stats.round_trips(), 1);
  EXPECT_EQ(stats.pages, 2);
  EXPECT_EQ(stats.overfetched, 1);
  EXPECT_EQ(inner.cost().num_prompts, ladder_model.cost().num_prompts + 1);
}

TEST(ScanPrefetchTest, FailedFirstFlushGoesDownTheLadder) {
  // The first round trip holds pages 0 and 1. When it fails, the scan
  // goes on demand from page 0 to its end and is not sized again, so no
  // later flush goes out. Page 0 failing every time ends in the ladder's
  // status; page 1 failing once ends in the ladder's keys, one page per
  // round trip, and the failed flush bills both of its pages.
  llm::SimulatedLlm ladder_inner(&W().kb(), FullCoverage(5), nullptr, 7);
  FailingPageModel ladder_failing(&ladder_inner, /*page=*/0);
  auto ladder_error =
      LlmKeyScan(&ladder_failing, CountryDef(), ExecutionOptions());
  ASSERT_FALSE(ladder_error.ok());

  llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
  FailingPageModel failing(&inner, /*page=*/0);
  PageLog failing_log(&failing);
  KeyScanStats stats;
  auto error = LlmKeyScan(&failing_log, CountryDef(), Batched(),
                          /*filter=*/std::nullopt, &stats);
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), ladder_error.status().code());
  EXPECT_EQ(error.status().message(), ladder_error.status().message());
  EXPECT_EQ(failing_log.calls(), (std::vector<std::string>{"[0 1]", "0"}));
  EXPECT_EQ(stats.overfetched, 1);
  EXPECT_EQ(inner.cost().num_prompts, stats.pages);

  llm::SimulatedLlm ladder_model(&W().kb(), FullCoverage(5), nullptr, 7);
  KeyScanStats ladder;
  auto want = LlmKeyScan(&ladder_model, CountryDef(), ExecutionOptions(),
                         /*filter=*/std::nullopt, &ladder);
  ASSERT_TRUE(want.ok()) << want.status();
  std::vector<std::string> ladder_calls = {"[0 1]"};
  for (int page = 0; page < ladder.pages; ++page) {
    ladder_calls.push_back(std::to_string(page));
  }

  llm::SimulatedLlm flaky_inner(&W().kb(), FullCoverage(5), nullptr, 7);
  FailingPageModel flaky(&flaky_inner, /*page=*/1, /*failures=*/1);
  PageLog flaky_log(&flaky);
  auto got = LlmKeyScan(&flaky_log, CountryDef(), Batched(),
                        /*filter=*/std::nullopt, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, *want);
  EXPECT_EQ(flaky_log.calls(), ladder_calls);
  EXPECT_EQ(stats.overfetched, 2);
  EXPECT_EQ(stats.pages - stats.overfetched, ladder.pages);
  EXPECT_EQ(flaky_inner.cost().num_prompts, stats.pages);
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

  // Cancelled once the first round trip is answered: the ladder fails at
  // page 1; the batched scan consumes pages 0 and 1, its next flush
  // refuses to start, and it then fails at page 2 with the ladder's
  // status.
  std::vector<Status> errors;
  std::vector<std::vector<std::string>> calls;
  for (const ExecutionOptions& base : {ExecutionOptions(), Batched()}) {
    ExecutionOptions cancellable = base;
    cancellable.control = std::make_shared<CancelState>();
    llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
    PageLog logged(&inner, cancellable.control);
    auto got = LlmKeyScan(&logged, CountryDef(), cancellable);
    ASSERT_FALSE(got.ok());
    errors.push_back(got.status());
    calls.push_back(logged.calls());
  }
  EXPECT_EQ(calls[0], std::vector<std::string>{"0"});
  EXPECT_EQ(calls[1], std::vector<std::string>{"[0 1]"});
  EXPECT_EQ(errors[0].code(), StatusCode::kCancelled);
  EXPECT_EQ(errors[1].code(), errors[0].code());
  EXPECT_EQ(errors[1].message(), errors[0].message());
}

TEST(ScanPrefetchTest, OverfetchedPagesLandInThePromptCache) {
  // Overfetched pages are not wasted: their completions settle into a
  // prompt-cache decorator, so a later scan that *does* want those
  // pages gets them for free.
  const catalog::TableDef def = OverestimatedCountryDef();
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(6), nullptr, 7);
  llm::PromptCache cached(&inner);
  KeyScanStats stats;
  auto first = LlmKeyScan(&cached, def, Batched(), /*filter=*/std::nullopt,
                          &stats);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(stats.overfetched, 2);  // pages 9 and 10
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
  // City at page size 5 fills 20 pages and predicts 21, page 20 ending
  // the scan; in chunks of 4 the flushes of pages 0-1, 2-4, 5-10 and
  // 11-20 take 1, 1, 2 and 3 batches. Explain reports those 7 round
  // trips, not the 21 pages, and says what the flushes did; the ladder's
  // Explain reports one round trip per page and no flush.
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
  EXPECT_EQ(ladder_line.find("batches"), std::string::npos)
      << ladder_line;
  EXPECT_EQ(want->scan_pages_prefetched, 0);

  llm::SimulatedLlm model(&W().kb(), FullCoverage(5), &W().catalog(), 7);
  auto got =
      GaloisExecutor(&model, &W().catalog(), Batched(4)).RunSql(sql);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(want->relation.SameContents(got->relation));
  EXPECT_EQ(got->cost.num_prompts, want->cost.num_prompts);
  EXPECT_EQ(got->scan_pages_prefetched, 21);
  EXPECT_EQ(got->scan_pages_overfetched, 0);
  const std::string line = KeyScanLine(got->physical_plan, "city");
  EXPECT_NE(line.find("; 21 pages sent in 7 batches)"), std::string::npos)
      << line;
  EXPECT_NE(line.find("round trips=7,"), std::string::npos) << line;
}

/// The ladder's calls for `pages` pages: one page per round trip.
std::vector<std::string> OnDemand(int pages) {
  std::vector<std::string> calls;
  for (int page = 0; page < pages; ++page) {
    calls.push_back(std::to_string(page));
  }
  return calls;
}

/// One batch call of pages 0 .. pages - 1.
std::string Batch(int pages) {
  std::string call = "[0";
  for (int page = 1; page < pages; ++page) call += " " + std::to_string(page);
  return call + "]";
}

/// The ladder's keys of the country table at page size 5, which page 10
/// ends (11 pages).
std::vector<std::string> LadderCountryKeys() {
  llm::SimulatedLlm model(&W().kb(), FullCoverage(5), nullptr, 7);
  KeyScanStats stats;
  auto keys = LlmKeyScan(&model, CountryDef(), ExecutionOptions(),
                         /*filter=*/std::nullopt, &stats);
  EXPECT_TRUE(keys.ok()) << keys.status();
  EXPECT_EQ(stats.pages, 11);
  return keys.ok() ? *keys : std::vector<std::string>{};
}

const int kMaxScanPages = ExecutionOptions().max_scan_pages;

TEST(ScanPrefetchTest, LearnedScanGoesOutInOneRoundTrip) {
  // The first sized scan of country at page size 5 records its 11 pages;
  // the next one sends pages 0-10 in its first round trip, which ends
  // the scan: one round trip, nothing overfetched, the ladder's keys.
  const std::vector<std::string> want = LadderCountryKeys();
  KeyScanLengths lengths;
  llm::SimulatedLlm first_inner(&W().kb(), FullCoverage(5), nullptr, 7);
  PageLog first(&first_inner);
  KeyScanStats stats;
  auto learning = LlmKeyScan(&first, CountryDef(), Batched(),
                             /*filter=*/std::nullopt, &stats,
                             /*key_limit=*/-1, &lengths);
  ASSERT_TRUE(learning.ok()) << learning.status();
  EXPECT_EQ(*learning, want);
  EXPECT_EQ(first.calls(), (std::vector<std::string>{
                               "[0 1]", "[2 3 4]", "[5 6 7 8 9 10]"}));
  EXPECT_EQ(stats.learned, 0);
  EXPECT_EQ(lengths.Find(CountryDef(), first.name(), kMaxScanPages), 11);

  llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
  PageLog model(&inner);
  auto got = LlmKeyScan(&model, CountryDef(), Batched(),
                        /*filter=*/std::nullopt, &stats, /*key_limit=*/-1,
                        &lengths);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, want);
  EXPECT_EQ(model.calls(), std::vector<std::string>{Batch(11)});
  EXPECT_EQ(stats.learned, 11);
  EXPECT_EQ(stats.round_trips(), 1);
  EXPECT_EQ(stats.pages, 11);
  EXPECT_EQ(stats.overfetched, 0);
  EXPECT_EQ(lengths.Find(CountryDef(), model.name(), kMaxScanPages), 11);
}

TEST(ScanPrefetchTest, ShortLengthGoesOnInGrowingFlushes) {
  // A recorded length of 3 sends pages 0-2 first; page 0 still predicts
  // the catalog's 11 pages, so the scan goes on one page more than it
  // has consumed (3-6, then 7-10), not one page at a time, and records
  // the 11 pages it took.
  KeyScanLengths lengths;
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
  PageLog model(&inner);
  lengths.Record(CountryDef(), model.name(), kMaxScanPages, 3);
  KeyScanStats stats;
  auto got = LlmKeyScan(&model, CountryDef(), Batched(),
                        /*filter=*/std::nullopt, &stats, /*key_limit=*/-1,
                        &lengths);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, LadderCountryKeys());
  EXPECT_EQ(model.calls(), (std::vector<std::string>{
                               "[0 1 2]", "[3 4 5 6]", "[7 8 9 10]"}));
  EXPECT_EQ(stats.learned, 3);
  EXPECT_EQ(stats.overfetched, 0);
  EXPECT_EQ(lengths.Find(CountryDef(), model.name(), kMaxScanPages), 11);
}

TEST(ScanPrefetchTest, LongLengthOverfetchesTheExtraPages) {
  // A recorded length of 14 sends pages 0-13 in one round trip; page 10
  // ends the scan, so exactly pages 11-13 are overfetched, and the scan
  // records its 11 pages.
  KeyScanLengths lengths;
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
  PageLog model(&inner);
  lengths.Record(CountryDef(), model.name(), kMaxScanPages, 14);
  KeyScanStats stats;
  auto got = LlmKeyScan(&model, CountryDef(), Batched(),
                        /*filter=*/std::nullopt, &stats, /*key_limit=*/-1,
                        &lengths);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, LadderCountryKeys());
  EXPECT_EQ(model.calls(), std::vector<std::string>{Batch(14)});
  EXPECT_EQ(stats.round_trips(), 1);
  EXPECT_EQ(stats.overfetched, 3);
  EXPECT_EQ(inner.cost().num_prompts, 14);
  EXPECT_EQ(lengths.Find(CountryDef(), model.name(), kMaxScanPages), 11);
}

TEST(ScanPrefetchTest, FailedLearnedFlushGoesDownTheLadder) {
  // Page 1 fails once, so the learned first round trip (pages 0-13)
  // fails after billing pages 0 and 1. The scan goes on demand from page
  // 0 without sizing itself again, ends with the ladder's keys in the
  // ladder's calls, and records the ladder's length.
  KeyScanLengths lengths;
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
  FailingPageModel flaky(&inner, /*page=*/1, /*failures=*/1);
  PageLog model(&flaky);
  lengths.Record(CountryDef(), model.name(), kMaxScanPages, 14);
  KeyScanStats stats;
  auto got = LlmKeyScan(&model, CountryDef(), Batched(),
                        /*filter=*/std::nullopt, &stats, /*key_limit=*/-1,
                        &lengths);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, LadderCountryKeys());
  std::vector<std::string> calls = {Batch(14)};
  for (const std::string& call : OnDemand(11)) calls.push_back(call);
  EXPECT_EQ(model.calls(), calls);
  EXPECT_EQ(stats.overfetched, 2);
  EXPECT_EQ(stats.pages - stats.overfetched, 11);
  EXPECT_EQ(inner.cost().num_prompts, stats.pages);
  EXPECT_EQ(lengths.Find(CountryDef(), model.name(), kMaxScanPages), 11);
}

TEST(ScanPrefetchTest, UnsizedScansNeitherReadNorRecordALength) {
  // A LIMIT-bounded scan, a scan with a pushed-down filter, a scan at
  // batch off and a table without a row estimate (the same key as
  // country's) make the ladder's calls over a recorded length of 3 and
  // leave it as it is.
  llm::PromptFilter europe;
  europe.attribute = "continent";
  europe.op = "=";
  europe.value = Value::String("Europe");
  catalog::TableDef unestimated = CountryDef();
  unestimated.expected_rows = 0;
  struct Case {
    const char* name;
    const catalog::TableDef* def;
    ExecutionOptions options;
    std::optional<llm::PromptFilter> filter;
    int64_t key_limit;
  };
  KeyScanLengths lengths;
  const std::string model_name = FullCoverage(5).name;
  lengths.Record(CountryDef(), model_name, kMaxScanPages, 3);
  for (const Case& c :
       {Case{"limit", &CountryDef(), Batched(), std::nullopt, 7},
        Case{"filter", &CountryDef(), Batched(), europe, -1},
        Case{"batch off", &CountryDef(), ExecutionOptions(), std::nullopt,
             -1},
        Case{"no estimate", &unestimated, Batched(), std::nullopt, -1}}) {
    SCOPED_TRACE(c.name);
    llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), &W().catalog(), 7);
    PageLog model(&inner);
    KeyScanStats stats;
    auto got = LlmKeyScan(&model, *c.def, c.options, c.filter, &stats,
                          c.key_limit, &lengths);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(stats.learned, 0);
    EXPECT_EQ(stats.flushed, 0);
    EXPECT_EQ(model.calls(), OnDemand(stats.pages));
    EXPECT_EQ(lengths.Find(CountryDef(), model_name, kMaxScanPages), 3);
  }
}

TEST(ScanPrefetchTest, LengthsAreKeyedByModelAndPageCap) {
  // A length recorded at one max_scan_pages or by one model sizes no
  // scan at another cap or by another model: each starts with pages 0-1
  // and records its own length. A scan that reaches the cap without an
  // ending page records the cap.
  KeyScanLengths lengths;
  const std::string model_name = FullCoverage(5).name;
  lengths.Record(CountryDef(), model_name, kMaxScanPages, 11);

  ExecutionOptions recapped = Batched();
  recapped.max_scan_pages = 12;
  llm::ModelProfile renamed = FullCoverage(5);
  renamed.name = "another-model";
  struct Case {
    const char* name;
    llm::ModelProfile profile;
    ExecutionOptions options;
  };
  for (const Case& c : {Case{"cap 12", FullCoverage(5), recapped},
                        Case{"another model", renamed, Batched()}}) {
    SCOPED_TRACE(c.name);
    llm::SimulatedLlm inner(&W().kb(), c.profile, nullptr, 7);
    PageLog model(&inner);
    KeyScanStats stats;
    auto got = LlmKeyScan(&model, CountryDef(), c.options,
                          /*filter=*/std::nullopt, &stats, /*key_limit=*/-1,
                          &lengths);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(stats.learned, 0);
    ASSERT_FALSE(model.calls().empty());
    EXPECT_EQ(model.calls().front(), "[0 1]");
    EXPECT_EQ(lengths.Find(CountryDef(), c.profile.name,
                           c.options.max_scan_pages),
              11);
  }

  ExecutionOptions capped = Batched();
  capped.max_scan_pages = 5;
  llm::SimulatedLlm inner(&W().kb(), FullCoverage(5), nullptr, 7);
  ASSERT_TRUE(LlmKeyScan(&inner, CountryDef(), capped,
                         /*filter=*/std::nullopt, /*stats=*/nullptr,
                         /*key_limit=*/-1, &lengths)
                  .ok());
  EXPECT_EQ(lengths.Find(CountryDef(), model_name, 5), 5);
  EXPECT_EQ(lengths.Find(CountryDef(), model_name, kMaxScanPages), 11);
}

TEST(ScanPrefetchTest, ExplainSaysAnEarlierScanSizedTheFirstFlush) {
  // City at page size 5 takes 21 pages. Over an executor's scan lengths
  // the first run learns them, and the second sends all 21 in one round
  // trip, which its Explain line says came from the earlier scan.
  const char* sql = "SELECT name FROM city";
  KeyScanLengths lengths;
  llm::SimulatedLlm model(&W().kb(), FullCoverage(5), &W().catalog(), 7);
  GaloisExecutor executor(&model, &W().catalog(), Batched());
  executor.set_scan_lengths(&lengths);
  auto first = executor.RunSql(sql);
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string first_line = KeyScanLine(first->physical_plan, "city");
  EXPECT_EQ(first_line.find("learned"), std::string::npos) << first_line;

  auto second = executor.RunSql(sql);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->relation.SameContents(first->relation));
  EXPECT_EQ(second->scan_pages_prefetched, 21);
  EXPECT_EQ(second->scan_pages_overfetched, 0);
  const std::string line = KeyScanLine(second->physical_plan, "city");
  EXPECT_NE(line.find("; 21 pages sent in one batch; length 21 learned "
                      "from an earlier scan)"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("round trips=1,"), std::string::npos) << line;
}

}  // namespace
}  // namespace galois::core
