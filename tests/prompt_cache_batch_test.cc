// Tests for the batch-aware prompt cache and the batch scheduler:
// hit/miss partitioning, in-batch dedupe, order preservation,
// num_batches/cache_hits accounting, chunking by max_batch_size, and
// end-to-end equivalence of batched vs. unbatched GaloisExecutor runs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/galois_executor.h"
#include "knowledge/workload.h"
#include "llm/batch_scheduler.h"
#include "llm/prompt_cache.h"
#include "llm/simulated_llm.h"

namespace galois::llm {
namespace {

/// Deterministic counting model: completes "echo:<text>" and records every
/// single-prompt call and every batch size, so tests can assert exactly
/// what reached the backend.
class EchoModel : public LanguageModel {
 public:
  const std::string& name() const override { return name_; }

  Result<Completion> CompleteMetered(const Prompt& prompt,
                                     CostMeter* usage) override {
    ++cost_.num_prompts;
    if (usage != nullptr) ++usage->num_prompts;
    complete_calls.push_back(prompt.text);
    return Completion{"echo:" + prompt.text};
  }

  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override {
    ++cost_.num_batches;
    if (usage != nullptr) ++usage->num_batches;
    batch_sizes.push_back(prompts.size());
    std::vector<Completion> out;
    out.reserve(prompts.size());
    for (const Prompt& p : prompts) {
      ++cost_.num_prompts;
      if (usage != nullptr) ++usage->num_prompts;
      out.push_back(Completion{"echo:" + p.text});
    }
    return out;
  }

  CostMeter cost() const override { return cost_; }
  void ResetCost() override { cost_.Reset(); }

  std::vector<std::string> complete_calls;
  std::vector<size_t> batch_sizes;

 private:
  std::string name_ = "echo";
  CostMeter cost_;
};

Prompt MakePrompt(const std::string& text) {
  Prompt p;
  p.text = text;
  p.intent = FreeformIntent{};
  return p;
}

std::vector<Prompt> MakePrompts(const std::vector<std::string>& texts) {
  std::vector<Prompt> out;
  out.reserve(texts.size());
  for (const std::string& t : texts) out.push_back(MakePrompt(t));
  return out;
}

// --- PromptCache::CompleteBatch --------------------------------------------

TEST(PromptCacheBatchTest, PartitionsHitsFromMisses) {
  EchoModel inner;
  PromptCache cache(&inner);
  ASSERT_TRUE(cache.Complete(MakePrompt("a")).ok());  // prefill

  auto out = cache.CompleteBatch(MakePrompts({"a", "b", "c"}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[0].text, "echo:a");
  EXPECT_EQ((*out)[1].text, "echo:b");
  EXPECT_EQ((*out)[2].text, "echo:c");
  // Only the misses reached the inner model, as one batch.
  ASSERT_EQ(inner.batch_sizes.size(), 1u);
  EXPECT_EQ(inner.batch_sizes[0], 2u);
  EXPECT_EQ(cache.cost().cache_hits, 1);
  EXPECT_EQ(cache.cost().num_batches, 1);
}

TEST(PromptCacheBatchTest, DedupesRepeatedPromptsWithinBatch) {
  EchoModel inner;
  PromptCache cache(&inner);
  // Repeated keys from a join: the same prompt appears three times.
  auto out = cache.CompleteBatch(MakePrompts({"dup", "b", "dup", "dup"}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  for (size_t i : {0u, 2u, 3u}) EXPECT_EQ((*out)[i].text, "echo:dup");
  EXPECT_EQ((*out)[1].text, "echo:b");
  // The inner model was billed exactly two completions, not four.
  ASSERT_EQ(inner.batch_sizes.size(), 1u);
  EXPECT_EQ(inner.batch_sizes[0], 2u);
  EXPECT_EQ(inner.cost().num_prompts, 2);
  // The two elided duplicates count as cache hits.
  EXPECT_EQ(cache.cost().cache_hits, 2);
}

TEST(PromptCacheBatchTest, PreservesInputOrderWithInterleavedHits) {
  EchoModel inner;
  PromptCache cache(&inner);
  ASSERT_TRUE(cache.Complete(MakePrompt("h1")).ok());
  ASSERT_TRUE(cache.Complete(MakePrompt("h2")).ok());

  auto out =
      cache.CompleteBatch(MakePrompts({"m1", "h1", "m2", "h2", "m3"}));
  ASSERT_TRUE(out.ok());
  const char* expected[] = {"echo:m1", "echo:h1", "echo:m2", "echo:h2",
                            "echo:m3"};
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ((*out)[i].text, expected[i]);
  ASSERT_EQ(inner.batch_sizes.size(), 1u);
  EXPECT_EQ(inner.batch_sizes[0], 3u);
}

TEST(PromptCacheBatchTest, FullyCachedBatchSkipsInnerButKeepsBatchCount) {
  EchoModel inner;
  PromptCache cache(&inner);
  ASSERT_TRUE(cache.CompleteBatch(MakePrompts({"a", "b"})).ok());
  const int64_t inner_batches = inner.cost().num_batches;
  const int64_t batches_before = cache.cost().num_batches;

  auto out = cache.CompleteBatch(MakePrompts({"b", "a"}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].text, "echo:b");
  EXPECT_EQ((*out)[1].text, "echo:a");
  // No inner round trip, but the saved batch stays attributed.
  EXPECT_EQ(inner.cost().num_batches, inner_batches);
  EXPECT_EQ(cache.cost().num_batches, batches_before + 1);
  EXPECT_EQ(cache.cost().cache_hits, 2);
}

TEST(PromptCacheBatchTest, FailedBatchReportsNoUsage) {
  // An inner batch that answers one prompt too few fails the call, which
  // then reports neither the inner's usage nor its own hits.
  class ShortEchoModel : public EchoModel {
   public:
    Result<std::vector<Completion>> CompleteBatchMetered(
        const std::vector<Prompt>& prompts, CostMeter* usage) override {
      auto out = EchoModel::CompleteBatchMetered(prompts, usage);
      out->pop_back();
      return out;
    }
  } inner;
  PromptCache cache(&inner);
  ASSERT_TRUE(cache.Complete(MakePrompt("hit")).ok());
  CostMeter usage;
  ASSERT_FALSE(
      cache.CompleteBatchMetered(MakePrompts({"hit", "a", "b"}), &usage).ok());
  EXPECT_EQ(inner.cost().num_prompts, 3);  // the inner still billed
  EXPECT_EQ(usage.num_prompts, 0);
  EXPECT_EQ(usage.num_batches, 0);
  EXPECT_EQ(usage.cache_hits, 0);
}

TEST(PromptCacheBatchTest, EmptyBatchIsNoop) {
  EchoModel inner;
  PromptCache cache(&inner);
  auto out = cache.CompleteBatch({});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(cache.cost().num_batches, 0);
  EXPECT_EQ(cache.cost().cache_hits, 0);
}

TEST(PromptCacheBatchTest, ResetCostClearsBatchAttribution) {
  EchoModel inner;
  PromptCache cache(&inner);
  ASSERT_TRUE(cache.CompleteBatch(MakePrompts({"a"})).ok());
  ASSERT_TRUE(cache.CompleteBatch(MakePrompts({"a"})).ok());
  EXPECT_GT(cache.cost().cache_hits, 0);
  cache.ResetCost();
  EXPECT_EQ(cache.cost().cache_hits, 0);
  EXPECT_EQ(cache.cost().num_batches, 0);
  EXPECT_EQ(cache.cost().num_prompts, 0);
}

// --- BatchScheduler --------------------------------------------------------

TEST(BatchSchedulerTest, SplitsFlushByMaxBatchSize) {
  EchoModel model;
  BatchPolicy policy;
  policy.batch = true;
  policy.max_batch_size = 3;
  BatchScheduler scheduler(&model, policy);
  auto out = scheduler.Run(
      MakePrompts({"p0", "p1", "p2", "p3", "p4", "p5", "p6"}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ((*out)[i].text, "echo:p" + std::to_string(i));
  }
  ASSERT_EQ(model.batch_sizes.size(), 3u);  // ceil(7 / 3)
  EXPECT_EQ(model.batch_sizes[0], 3u);
  EXPECT_EQ(model.batch_sizes[1], 3u);
  EXPECT_EQ(model.batch_sizes[2], 1u);
  EXPECT_EQ(scheduler.batches_dispatched(), 3);
}

TEST(BatchSchedulerTest, DedupesBeforeDispatchInBothModes) {
  for (bool batch : {true, false}) {
    EchoModel model;
    BatchPolicy policy;
    policy.batch = batch;
    BatchScheduler scheduler(&model, policy);
    auto out = scheduler.Run(MakePrompts({"x", "y", "x"}));
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->size(), 3u);
    EXPECT_EQ((*out)[0].text, "echo:x");
    EXPECT_EQ((*out)[1].text, "echo:y");
    EXPECT_EQ((*out)[2].text, "echo:x");
    // Two distinct prompts billed, whichever dispatch mode.
    EXPECT_EQ(model.cost().num_prompts, 2);
    EXPECT_EQ(model.cost().num_batches, batch ? 1 : 0);
  }
}

TEST(BatchSchedulerTest, SequentialModeNeverCallsCompleteBatch) {
  EchoModel model;
  BatchPolicy policy;
  policy.batch = false;
  BatchScheduler scheduler(&model, policy);
  ASSERT_TRUE(scheduler.Run(MakePrompts({"a", "b", "c"})).ok());
  EXPECT_TRUE(model.batch_sizes.empty());
  EXPECT_EQ(model.complete_calls.size(), 3u);
  EXPECT_EQ(scheduler.batches_dispatched(), 0);
}

TEST(BatchSchedulerTest, FlushClearsQueue) {
  EchoModel model;
  BatchScheduler scheduler(&model, BatchPolicy{});
  EXPECT_EQ(scheduler.Add(MakePrompt("a")), 0u);
  EXPECT_EQ(scheduler.Add(MakePrompt("b")), 1u);
  EXPECT_EQ(scheduler.pending(), 2u);
  ASSERT_TRUE(scheduler.Flush().ok());
  EXPECT_EQ(scheduler.pending(), 0u);
  auto empty = scheduler.Flush();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

}  // namespace
}  // namespace galois::llm

// --- end-to-end: executor accounting and batched/unbatched equivalence -----

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

TEST(CachedBatchedExecutorTest, ColdRunBatchesWarmRunHitsCache) {
  llm::SimulatedLlm inner(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  llm::PromptCache cache(&inner);
  ExecutionOptions opts;
  opts.batch_prompts = true;
  GaloisExecutor galois(&cache, &W().catalog(), opts);
  const char* sql =
      "SELECT name, capital FROM country WHERE continent = 'Europe'";

  auto cold = galois.RunSql(sql);
  ASSERT_TRUE(cold.ok());
  EXPECT_GE(cold->cost.num_batches, 1);
  const int64_t cold_prompts = cold->cost.num_prompts;

  auto warm = galois.RunSql(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(cold->relation.SameContents(warm->relation));
  EXPECT_GT(warm->cost.cache_hits, 0);
  // The warm rerun answers every prompt from cache.
  EXPECT_EQ(warm->cost.num_prompts, 0);
  EXPECT_GT(cold_prompts, 0);
}

TEST(CachedBatchedExecutorTest, MaxBatchSizeSplitsWithoutChangingAnswers) {
  const char* sql =
      "SELECT name, capital FROM country WHERE continent = 'Europe'";
  llm::SimulatedLlm one_batch_model(&W().kb(),
                                    llm::ModelProfile::ChatGpt(),
                                    &W().catalog(), 7);
  ExecutionOptions opts;
  opts.batch_prompts = true;
  GaloisExecutor one_batch(&one_batch_model, &W().catalog(), opts);
  auto rm_whole = one_batch.RunSql(sql);
  ASSERT_TRUE(rm_whole.ok());

  llm::SimulatedLlm split_model(&W().kb(), llm::ModelProfile::ChatGpt(),
                                &W().catalog(), 7);
  opts.max_batch_size = 4;
  GaloisExecutor split(&split_model, &W().catalog(), opts);
  auto rm_split = split.RunSql(sql);
  ASSERT_TRUE(rm_split.ok());

  EXPECT_TRUE(rm_whole->relation.SameContents(rm_split->relation));
  EXPECT_EQ(rm_whole->cost.num_prompts, rm_split->cost.num_prompts);
  EXPECT_GT(rm_split->cost.num_batches, rm_whole->cost.num_batches);
}

TEST(CachedBatchedExecutorTest, BatchedMatchesUnbatchedAcrossWorkload) {
  // Equivalence sample: every selection/aggregate/join query class is
  // represented; batched and unbatched runs must return identical
  // relations and issue the same prompts, plus exactly the key-scan pages
  // the batched run's sized flushes bought past the end of their scans.
  int checked = 0;
  for (const knowledge::QuerySpec& q : W().queries()) {
    if (q.id % 4 != 0) continue;  // sample every 4th query
    llm::SimulatedLlm seq_model(&W().kb(), llm::ModelProfile::ChatGpt(),
                                &W().catalog(), 7);
    GaloisExecutor sequential(&seq_model, &W().catalog());
    auto rm_seq = sequential.RunSql(q.sql);
    ASSERT_TRUE(rm_seq.ok()) << "q" << q.id << ": "
                             << rm_seq.status().ToString();

    llm::SimulatedLlm batch_model(&W().kb(), llm::ModelProfile::ChatGpt(),
                                  &W().catalog(), 7);
    ExecutionOptions opts;
    opts.batch_prompts = true;
    GaloisExecutor batched(&batch_model, &W().catalog(), opts);
    auto rm_batch = batched.RunSql(q.sql);
    ASSERT_TRUE(rm_batch.ok()) << "q" << q.id << ": "
                               << rm_batch.status().ToString();

    EXPECT_TRUE(rm_seq->relation.SameContents(rm_batch->relation))
        << "q" << q.id;
    EXPECT_EQ(rm_seq->cost.num_prompts + rm_batch->scan_pages_overfetched,
              rm_batch->cost.num_prompts)
        << "q" << q.id;
    EXPECT_EQ(rm_seq->scan_pages_prefetched, 0) << "q" << q.id;
    ++checked;
  }
  EXPECT_GE(checked, 5);
}

TEST(CachedBatchedExecutorTest, CachedEqualsUncachedWithVerifyAndBatching) {
  // The cache must be invisible to results even when the critic and the
  // batcher are both on.
  const char* sql = "SELECT name, population FROM country";
  ExecutionOptions opts;
  opts.batch_prompts = true;
  opts.verify_cells = true;

  llm::SimulatedLlm plain_model(&W().kb(), llm::ModelProfile::ChatGpt(),
                                &W().catalog(), 7);
  GaloisExecutor plain(&plain_model, &W().catalog(), opts);
  auto rm_plain = plain.ExecuteSql(sql);
  ASSERT_TRUE(rm_plain.ok());

  llm::SimulatedLlm inner(&W().kb(), llm::ModelProfile::ChatGpt(),
                          &W().catalog(), 7);
  llm::PromptCache cache(&inner);
  GaloisExecutor cached(&cache, &W().catalog(), opts);
  auto rm_cached = cached.ExecuteSql(sql);
  ASSERT_TRUE(rm_cached.ok());

  EXPECT_TRUE(rm_plain->SameContents(*rm_cached));
}

}  // namespace
}  // namespace galois::core
