// Tests for concurrent batch dispatch: the common::ThreadPool and its
// TaskHandle (deferred and cancelled tasks, nested fan-out beyond the
// shared pool's cap, launches bounded by a PoolBudget), the
// BatchScheduler's one dispatch loop at batch on and off (Add-order
// preservation, the in-flight bound, sequential/parallel equivalence,
// the drop-on-error queue contract and phase/chunk/prompt error
// attribution, cancellation),
// thread-safe CostMeter accounting in SimulatedLlm and CostTap, the
// thread_safe() contract through the decorators, and a
// PromptCache::CompleteBatch hammer intended to run under
// ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/galois_executor.h"
#include "knowledge/workload.h"
#include "llm/batch_scheduler.h"
#include "llm/http_llm.h"
#include "llm/metering.h"
#include "llm/model_router.h"
#include "llm/prompt_cache.h"
#include "llm/resilience.h"
#include "llm/simulated_llm.h"

namespace galois::llm {
namespace {

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

/// Thread-safe echo model whose batch call sleeps a per-chunk duration
/// derived from the first prompt, so concurrent chunks finish out of
/// dispatch order and order-preservation is actually exercised.
class ConcurrentEchoModel : public LanguageModel {
 public:
  explicit ConcurrentEchoModel(double sleep_scale_ms = 0.0)
      : sleep_scale_ms_(sleep_scale_ms) {}

  const std::string& name() const override { return name_; }

  Result<Completion> CompleteMetered(const Prompt& prompt,
                                     CostMeter* usage) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++cost_.num_prompts;
    if (usage != nullptr) ++usage->num_prompts;
    return Completion{"echo:" + prompt.text};
  }

  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override {
    int in_flight = in_flight_.fetch_add(1) + 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      int prev = max_in_flight_;
      max_in_flight_ = in_flight > prev ? in_flight : prev;
    }
    if (sleep_scale_ms_ > 0.0 && !prompts.empty()) {
      // Later chunks sleep less: chunk completion order inverts dispatch
      // order.
      double ms =
          sleep_scale_ms_ *
          static_cast<double>(10 - (prompts[0].text.back() - '0') % 10);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
    std::vector<Completion> out;
    out.reserve(prompts.size());
    for (const Prompt& p : prompts) out.push_back({"echo:" + p.text});
    {
      std::lock_guard<std::mutex> lock(mu_);
      cost_.num_prompts += static_cast<int64_t>(prompts.size());
      ++cost_.num_batches;
      batch_sizes_.push_back(prompts.size());
    }
    if (usage != nullptr) {
      usage->num_prompts += static_cast<int64_t>(prompts.size());
      ++usage->num_batches;
    }
    in_flight_.fetch_sub(1);
    return out;
  }

  CostMeter cost() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return cost_;
  }
  void ResetCost() override {
    std::lock_guard<std::mutex> lock(mu_);
    cost_.Reset();
  }

  int max_in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_in_flight_;
  }
  std::vector<size_t> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_sizes_;
  }

 private:
  std::string name_ = "concurrent-echo";
  double sleep_scale_ms_;
  std::atomic<int> in_flight_{0};
  mutable std::mutex mu_;
  CostMeter cost_;
  int max_in_flight_ = 0;
  std::vector<size_t> batch_sizes_;
};

/// Fails any chunk containing the prompt text "boom".
class BoomModel : public ConcurrentEchoModel {
 public:
  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override {
    for (const Prompt& p : prompts) {
      if (p.text == "boom") return Status::LlmError("backend exploded");
    }
    return ConcurrentEchoModel::CompleteBatchMetered(prompts, usage);
  }
};

/// Returns one completion too few from every batch call.
class ShortBatchModel : public ConcurrentEchoModel {
 public:
  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override {
    auto out = ConcurrentEchoModel::CompleteBatchMetered(prompts, usage);
    if (out.ok()) out->pop_back();
    return out;
  }
};

/// Reports one scripted usage delta per call, in order. It does not
/// declare thread_safe().
class ScriptedUsageModel : public LanguageModel {
 public:
  explicit ScriptedUsageModel(std::vector<CostMeter> deltas = {})
      : deltas_(std::move(deltas)) {}

  const std::string& name() const override { return name_; }
  Result<Completion> CompleteMetered(const Prompt&,
                                     CostMeter* usage) override {
    if (usage != nullptr) *usage += deltas_.at(next_);
    ++next_;
    return Completion{"ok"};
  }
  CostMeter cost() const override { return CostMeter(); }
  void ResetCost() override {}

 private:
  std::string name_ = "scripted";
  std::vector<CostMeter> deltas_;
  size_t next_ = 0;
};

/// Thread-safe model for the unbatched loop: every call blocks for a
/// wall latency (a per-text latency when one is set), and the model
/// records the texts whose calls started, in start order, and the peak
/// number of calls in flight. The prompt "boom" fails after it started;
/// the prompt named by CancelOn requests cancellation of `token` just
/// before it returns.
class CountingLatencyModel : public LanguageModel {
 public:
  explicit CountingLatencyModel(double latency_ms) : latency_ms_(latency_ms) {}

  const std::string& name() const override { return name_; }
  bool thread_safe() const override { return true; }

  void SetLatency(const std::string& text, double ms) { latency_[text] = ms; }
  void CancelOn(const std::string& text, CancelToken token) {
    cancel_text_ = text;
    token_ = std::move(token);
  }

  Result<Completion> CompleteMetered(const Prompt& prompt,
                                     CostMeter* usage) override {
    const int in_flight = in_flight_.fetch_add(1) + 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      started_.push_back(prompt.text);
      peak_ = std::max(peak_, in_flight);
    }
    auto it = latency_.find(prompt.text);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        it != latency_.end() ? it->second : latency_ms_));
    if (prompt.text == cancel_text_) token_->RequestCancel();
    in_flight_.fetch_sub(1);
    if (prompt.text == "boom") return Status::LlmError("no answer");
    if (usage != nullptr) ++usage->num_prompts;
    return Completion{"echo:" + prompt.text};
  }

  CostMeter cost() const override {
    std::lock_guard<std::mutex> lock(mu_);
    CostMeter meter;
    meter.num_prompts = static_cast<int64_t>(started_.size());
    return meter;
  }
  void ResetCost() override {}

  std::vector<std::string> started() const {
    std::lock_guard<std::mutex> lock(mu_);
    return started_;
  }
  int peak_in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

 private:
  std::string name_ = "counting";
  double latency_ms_;
  std::map<std::string, double> latency_;
  std::string cancel_text_;
  CancelToken token_;
  std::atomic<int> in_flight_{0};
  mutable std::mutex mu_;
  std::vector<std::string> started_;
  int peak_ = 0;
};

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, StartsWorkersOnlyWhenNoneIsIdle) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_started(), 0u);  // given no task, it starts no thread
  TaskHandle<void>::Launch(pool, [] {}).Join();
  EXPECT_EQ(pool.num_started(), 1u);

  // Tasks that hold their worker each find none idle, up to the cap.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::vector<TaskHandle<void>> held;
  for (int i = 0; i < 8; ++i) {
    held.push_back(TaskHandle<void>::Launch(pool, [gate] { gate.wait(); }));
  }
  EXPECT_EQ(pool.num_started(), 4u);
  release.set_value();
  for (TaskHandle<void>& h : held) h.Join();
  EXPECT_EQ(pool.num_started(), 4u);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> ran{0};
  std::vector<TaskHandle<void>> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(
        TaskHandle<void>::Launch(pool, [&ran] { ran.fetch_add(1); }));
  }
  for (TaskHandle<void>& h : handles) h.Join();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, TasksOverlapInTime) {
  ThreadPool pool(4);
  // Four tasks that each wait until all four have started can only finish
  // if they run concurrently.
  std::atomic<int> started{0};
  std::vector<TaskHandle<void>> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(TaskHandle<void>::Launch(pool, [&started] {
      started.fetch_add(1);
      while (started.load() < 4) std::this_thread::yield();
    }));
  }
  for (TaskHandle<void>& h : handles) h.Join();
  EXPECT_EQ(started.load(), 4);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  TaskHandle<void>::Launch(pool, [] {}).Join();
}

TEST(ThreadPoolTest, DeferredHandleRunsOnceOnJoiningThread) {
  std::atomic<int> runs{0};
  std::thread::id ran_on;
  auto task = [&runs, &ran_on] {
    runs.fetch_add(1);
    ran_on = std::this_thread::get_id();
    return 42;
  };
  TaskHandle<int> joined = TaskHandle<int>::Deferred(task);
  EXPECT_EQ(runs.load(), 0);  // nothing starts it before the join
  EXPECT_EQ(joined.Join(), 42);
  EXPECT_FALSE(joined.valid());
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());

  // Neither a cancelled handle nor one dropped unjoined ever runs.
  TaskHandle<int> cancelled = TaskHandle<int>::Deferred(task);
  cancelled.Cancel();
  EXPECT_FALSE(cancelled.valid());
  { TaskHandle<int> dropped = TaskHandle<int>::Deferred(task); }
  EXPECT_EQ(runs.load(), 1);
}

TEST(ThreadPoolTest, CancelledTaskNeverStartsOnPool) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  // The only worker is held by `blocker` while `queued` waits behind it.
  TaskHandle<int> blocker = TaskHandle<int>::Launch(pool, [gate] {
    gate.wait();
    return 1;
  });
  std::atomic<int> runs{0};
  TaskHandle<int> queued = TaskHandle<int>::Launch(pool, [&runs] {
    runs.fetch_add(1);
    return 2;
  });
  queued.Cancel();
  release.set_value();
  EXPECT_EQ(blocker.Join(), 1);
  // FIFO: once the worker has run a task launched after `queued`,
  // `queued`'s slot has been drained.
  std::promise<void> drained;
  TaskHandle<void> marker =
      TaskHandle<void>::Launch(pool, [&drained] { drained.set_value(); });
  drained.get_future().wait();
  marker.Join();
  EXPECT_EQ(runs.load(), 0);
}

// --- BatchScheduler: parallel dispatch -------------------------------------

TEST(ThreadPoolTest, StartLaunchesOnlyWhatTheBudgetHasSlotsFor) {
  ThreadPool pool(4);
  auto budget = std::make_shared<PoolBudget>(1);
  const std::thread::id self = std::this_thread::get_id();
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto held = TaskHandle<std::thread::id>::Start(pool, budget, [&, gate] {
    started.set_value();
    gate.wait();
    return std::this_thread::get_id();
  });
  started.get_future().wait();  // a worker runs it, holding the slot
  EXPECT_EQ(budget->free(), 0);

  // No slot is free, so the next task is deferred: it runs on the
  // thread that joins it, and the pool starts no second worker.
  auto deferred = TaskHandle<std::thread::id>::Start(
      pool, budget, [] { return std::this_thread::get_id(); });
  EXPECT_EQ(deferred.Join(), self);
  release.set_value();
  EXPECT_NE(held.Join(), self);
  EXPECT_EQ(pool.num_started(), 1u);

  // The worker is idle again, and the slot back, before Join returns, so
  // the next launch reuses that worker.
  EXPECT_EQ(budget->free(), 1);
  EXPECT_NE(TaskHandle<std::thread::id>::Start(
                pool, budget, [] { return std::this_thread::get_id(); })
                .Join(),
            std::thread::id());
  EXPECT_EQ(pool.num_started(), 1u);

  // A budget without slots, or none at all, is the ladder: every task
  // runs on the joining thread.
  auto empty = std::make_shared<PoolBudget>(0);
  EXPECT_EQ(TaskHandle<std::thread::id>::Start(
                pool, empty, [] { return std::this_thread::get_id(); })
                .Join(),
            self);
  EXPECT_EQ(TaskHandle<std::thread::id>::Start(
                pool, nullptr, [] { return std::this_thread::get_id(); })
                .Join(),
            self);
  EXPECT_EQ(pool.num_started(), 1u);
}

// --- the unbatched loop ----------------------------------------------------

TEST(UnbatchedDispatchTest, KeepsAddOrderInsideTheInFlightBound) {
  // Twelve prompts, one repeated, each blocking for 5 ms of wall time.
  std::vector<std::string> texts;
  for (int i = 0; i < 12; ++i) texts.push_back("p" + std::to_string(i));
  texts.push_back("p3");
  std::vector<std::string> distinct(texts.begin(), texts.end() - 1);
  for (int parallel : {1, 4}) {
    SCOPED_TRACE("parallel_batches=" + std::to_string(parallel));
    CountingLatencyModel model(5.0);
    BatchPolicy policy;
    policy.batch = false;
    policy.parallel_batches = parallel;
    BatchScheduler scheduler(&model, policy, "attribute:capital");
    auto out = scheduler.Run(MakePrompts(texts));
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->size(), texts.size());
    for (size_t i = 0; i < texts.size(); ++i) {
      EXPECT_EQ((*out)[i].text, "echo:" + texts[i]) << i;
    }
    EXPECT_EQ(scheduler.batches_dispatched(), 0);
    std::vector<std::string> started = model.started();
    if (parallel == 1) {
      // The ladder, call for call.
      EXPECT_EQ(started, distinct);
      EXPECT_EQ(model.peak_in_flight(), 1);
    } else {
      std::sort(started.begin(), started.end());
      std::vector<std::string> want = distinct;
      std::sort(want.begin(), want.end());
      EXPECT_EQ(started, want);
      EXPECT_GT(model.peak_in_flight(), 1);
      EXPECT_LE(model.peak_in_flight(), 4);
    }
  }
}

TEST(UnbatchedDispatchTest, FailureIsTheLaddersAtAnyParallelism) {
  const std::vector<std::string> texts = {"p1", "boom", "p3", "p4", "p5"};
  std::string serial_message;
  for (int parallel : {1, 4}) {
    SCOPED_TRACE("parallel_batches=" + std::to_string(parallel));
    CountingLatencyModel model(5.0);
    BatchPolicy policy;
    policy.batch = false;
    policy.parallel_batches = parallel;
    BatchScheduler scheduler(&model, policy, "filter-check:population");
    auto out = scheduler.Run(MakePrompts(texts));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kLlmError);
    const std::string message = out.status().message();
    EXPECT_NE(message.find("filter-check:population"), std::string::npos)
        << message;
    EXPECT_NE(message.find("prompt 2/5"), std::string::npos) << message;
    EXPECT_EQ(scheduler.pending(), 0u);
    EXPECT_EQ(scheduler.batches_dispatched(), 0);
    std::vector<std::string> started = model.started();
    if (parallel == 1) {
      serial_message = message;
      // Nothing after the failed prompt was sent.
      EXPECT_EQ(started, std::vector<std::string>({"p1", "boom"}));
    } else {
      EXPECT_EQ(message, serial_message);
      // Every prompt was started, so every prompt was billed.
      std::sort(started.begin(), started.end());
      std::vector<std::string> want = texts;
      std::sort(want.begin(), want.end());
      EXPECT_EQ(started, want);
    }
  }
}

TEST(UnbatchedDispatchTest, StartsNoPromptAfterACancel) {
  const std::vector<std::string> texts = {"p1", "p2", "p3", "p4", "p5"};
  for (int parallel : {1, 4}) {
    SCOPED_TRACE("parallel_batches=" + std::to_string(parallel));
    BatchPolicy policy;
    policy.batch = false;
    policy.parallel_batches = parallel;

    // Cancelled before the flush: no prompt starts.
    CountingLatencyModel idle(1.0);
    policy.control = std::make_shared<CancelState>();
    policy.control->RequestCancel();
    auto none = BatchScheduler(&idle, policy, "verify:capital")
                    .Run(MakePrompts(texts));
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.status().code(), StatusCode::kCancelled);
    EXPECT_TRUE(idle.started().empty());

    // Cancelled by the second prompt, which returns long before the
    // others: the prompts not yet started never start. At 1 that is
    // everything after p2; at 4, p5, which waits for a free puller.
    CountingLatencyModel model(30.0);
    model.SetLatency("p2", 2.0);
    policy.control = std::make_shared<CancelState>();
    model.CancelOn("p2", policy.control);
    BatchScheduler scheduler(&model, policy, "verify:capital");
    auto out = scheduler.Run(MakePrompts(texts));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
    const std::vector<std::string> started = model.started();
    if (parallel == 1) {
      EXPECT_EQ(started, std::vector<std::string>({"p1", "p2"}));
    } else {
      EXPECT_EQ(std::count(started.begin(), started.end(), "p5"), 0);
    }
    EXPECT_EQ(scheduler.batches_dispatched(), 0);
  }
}

TEST(ConcurrentDispatchTest, PreservesAddOrderWhenChunksFinishOutOfOrder) {
  ConcurrentEchoModel model(/*sleep_scale_ms=*/2.0);
  BatchPolicy policy;
  policy.batch = true;
  policy.max_batch_size = 2;
  policy.parallel_batches = 8;
  BatchScheduler scheduler(&model, policy, "test-phase");
  std::vector<std::string> texts;
  for (int i = 0; i < 16; ++i) texts.push_back("p" + std::to_string(i));
  auto out = scheduler.Run(MakePrompts(texts));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ((*out)[i].text, "echo:p" + std::to_string(i)) << i;
  }
  EXPECT_EQ(model.cost().num_batches, 8);
  // At least two round trips genuinely overlapped.
  EXPECT_GE(model.max_in_flight(), 2);
}

TEST(ConcurrentDispatchTest, InFlightNeverExceedsParallelBatches) {
  ConcurrentEchoModel model(/*sleep_scale_ms=*/1.0);
  BatchPolicy policy;
  policy.batch = true;
  policy.max_batch_size = 1;
  policy.parallel_batches = 3;
  BatchScheduler scheduler(&model, policy);
  std::vector<std::string> texts;
  for (int i = 0; i < 24; ++i) texts.push_back("q" + std::to_string(i));
  ASSERT_TRUE(scheduler.Run(MakePrompts(texts)).ok());
  EXPECT_LE(model.max_in_flight(), 3);
}

TEST(ConcurrentDispatchTest, DedupesAcrossConcurrentChunks) {
  ConcurrentEchoModel model;
  BatchPolicy policy;
  policy.batch = true;
  policy.max_batch_size = 2;
  policy.parallel_batches = 4;
  BatchScheduler scheduler(&model, policy);
  auto out = scheduler.Run(
      MakePrompts({"a", "b", "a", "c", "b", "d", "a", "e", "f"}));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 9u);
  EXPECT_EQ((*out)[0].text, "echo:a");
  EXPECT_EQ((*out)[2].text, "echo:a");
  EXPECT_EQ((*out)[6].text, "echo:a");
  EXPECT_EQ((*out)[4].text, "echo:b");
  // Six distinct prompts -> 3 chunks of 2, never the duplicates.
  EXPECT_EQ(model.cost().num_prompts, 6);
  EXPECT_EQ(model.cost().num_batches, 3);
}

TEST(ConcurrentDispatchTest, WallClockBeatsSequentialDispatch) {
  // 8 chunks x 20 ms of backend latency: sequential dispatch is bounded
  // below by 160 ms of sleeping; 4-way dispatch needs only 2 rounds.
  auto run = [](int parallel) {
    ConcurrentEchoModel model(/*sleep_scale_ms=*/2.0);
    BatchPolicy policy;
    policy.batch = true;
    policy.max_batch_size = 1;
    policy.parallel_batches = parallel;
    BatchScheduler scheduler(&model, policy);
    std::vector<Prompt> prompts;
    // All prompts end in the same digit so every chunk sleeps ~20 ms.
    for (int i = 0; i < 8; ++i) {
      prompts.push_back(MakePrompt("w" + std::to_string(i) + "-0"));
    }
    auto start = std::chrono::steady_clock::now();
    auto out = scheduler.Run(std::move(prompts));
    EXPECT_TRUE(out.ok());
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  double sequential_ms = run(1);
  double parallel_ms = run(4);
  // Generous margin: the parallel run must recover at least a quarter of
  // the sequential sleep time even on a loaded CI machine.
  EXPECT_LT(parallel_ms, sequential_ms * 0.75)
      << "sequential=" << sequential_ms << "ms parallel=" << parallel_ms
      << "ms";
}

// --- error contract --------------------------------------------------------

TEST(ConcurrentDispatchTest, ErrorNamesPhaseAndChunkAndDropsQueue) {
  for (int parallel : {1, 4}) {
    BoomModel model;
    BatchPolicy policy;
    policy.batch = true;
    policy.max_batch_size = 2;
    policy.parallel_batches = parallel;
    BatchScheduler scheduler(&model, policy, "filter-check:population");
    // "boom" lands in chunk 3 of 4.
    scheduler.Add(MakePrompt("a"));
    scheduler.Add(MakePrompt("b"));
    scheduler.Add(MakePrompt("c"));
    scheduler.Add(MakePrompt("d"));
    scheduler.Add(MakePrompt("e"));
    scheduler.Add(MakePrompt("boom"));
    scheduler.Add(MakePrompt("g"));
    EXPECT_EQ(scheduler.pending(), 7u);
    auto out = scheduler.Flush();
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kLlmError);
    EXPECT_NE(out.status().message().find("filter-check:population"),
              std::string::npos)
        << out.status().message();
    EXPECT_NE(out.status().message().find("chunk 3/4"), std::string::npos)
        << out.status().message();
    EXPECT_NE(out.status().message().find("backend exploded"),
              std::string::npos);
    // Contract: the queue is emptied even on error; nothing is retried
    // implicitly on the next Flush.
    EXPECT_EQ(scheduler.pending(), 0u);
    auto next = scheduler.Flush();
    ASSERT_TRUE(next.ok());
    EXPECT_TRUE(next->empty());
  }
}

TEST(ConcurrentDispatchTest, ShortBatchErrorNamesPhaseAndChunk) {
  std::string serial_message;
  for (int parallel : {1, 4}) {
    SCOPED_TRACE("parallel_batches=" + std::to_string(parallel));
    ShortBatchModel model;
    BatchPolicy policy;
    policy.batch = true;
    policy.max_batch_size = 2;
    policy.parallel_batches = parallel;
    BatchScheduler scheduler(&model, policy, "attribute:capital");
    auto out = scheduler.Run(MakePrompts({"a", "b", "c", "d"}));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kLlmError);
    const std::string message = out.status().message();
    EXPECT_NE(message.find("attribute:capital"), std::string::npos)
        << message;
    EXPECT_NE(message.find("chunk 1/2"), std::string::npos) << message;
    EXPECT_NE(message.find("returned 1 completions for 2 prompts"),
              std::string::npos)
        << message;
    if (parallel == 1) {
      serial_message = message;
    } else {
      EXPECT_EQ(message, serial_message);
    }
  }
}

TEST(ConcurrentDispatchTest, SequentialModeErrorNamesPhaseAndPrompt) {
  BatchPolicy policy;
  policy.batch = false;
  class BoomOnComplete : public ConcurrentEchoModel {
   public:
    Result<Completion> CompleteMetered(const Prompt& prompt,
                                       CostMeter* usage) override {
      if (prompt.text == "boom") return Status::LlmError("no answer");
      return ConcurrentEchoModel::CompleteMetered(prompt, usage);
    }
  } seq_model;
  BatchScheduler seq(&seq_model, policy, "attribute:capital");
  auto out = seq.Run(MakePrompts({"a", "boom", "c"}));
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("attribute:capital"),
            std::string::npos);
  EXPECT_NE(out.status().message().find("prompt 2/3"), std::string::npos)
      << out.status().message();
  EXPECT_EQ(seq.pending(), 0u);
}

// --- thread-safe accounting -------------------------------------------------

/// Eight attribute prompts a SimulatedLlm answers from its world.
std::vector<Prompt> PopulationPrompts() {
  std::vector<Prompt> prompts;
  for (const char* key : {"Italy", "France", "Germany", "Spain", "Japan",
                          "Brazil", "Canada", "Egypt"}) {
    AttributeGetIntent intent;
    intent.concept_name = "country";
    intent.key = key;
    intent.attribute = "population";
    Prompt p;
    p.text = std::string("population of ") + key;
    p.intent = intent;
    prompts.push_back(std::move(p));
  }
  return prompts;
}

TEST(ConcurrentDispatchTest, SimulatedLlmMeterIsExactUnderConcurrency) {
  auto workload = knowledge::SpiderLikeWorkload::Create();
  ASSERT_TRUE(workload.ok());
  SimulatedLlm model(&workload->kb(), ModelProfile::ChatGpt(),
                     &workload->catalog(), 7);

  std::vector<Prompt> prompts = PopulationPrompts();

  BatchPolicy policy;
  policy.batch = true;
  policy.max_batch_size = 2;
  policy.parallel_batches = 4;
  BatchScheduler parallel_scheduler(&model, policy, "meter");
  auto parallel_out = parallel_scheduler.Run(prompts);
  ASSERT_TRUE(parallel_out.ok());
  CostMeter parallel_cost = model.cost();

  SimulatedLlm sequential_model(&workload->kb(), ModelProfile::ChatGpt(),
                                &workload->catalog(), 7);
  policy.parallel_batches = 1;
  BatchScheduler sequential_scheduler(&sequential_model, policy, "meter");
  auto sequential_out = sequential_scheduler.Run(prompts);
  ASSERT_TRUE(sequential_out.ok());
  CostMeter sequential_cost = sequential_model.cost();

  ASSERT_EQ(parallel_out->size(), sequential_out->size());
  for (size_t i = 0; i < parallel_out->size(); ++i) {
    EXPECT_EQ((*parallel_out)[i].text, (*sequential_out)[i].text) << i;
  }
  EXPECT_EQ(parallel_cost.num_prompts, sequential_cost.num_prompts);
  EXPECT_EQ(parallel_cost.num_batches, sequential_cost.num_batches);
  EXPECT_EQ(parallel_cost.prompt_tokens, sequential_cost.prompt_tokens);
  EXPECT_EQ(parallel_cost.completion_tokens,
            sequential_cost.completion_tokens);
  // Simulated latency is a pure function of the round trips, independent
  // of completion order (summation order may differ by float ulps).
  EXPECT_NEAR(parallel_cost.simulated_latency_ms,
              sequential_cost.simulated_latency_ms, 1e-6);
}

TEST(ConcurrentDispatchTest, NestedFanOutBeyondTheSharedPoolCap) {
  // More handles than the shared pool has workers, each running a
  // multi-chunk flush whose chunk pullers are handles on the same pool: a
  // fork-join tree on one bounded pool. Claim-on-join runs every puller
  // no worker has started on the thread that joins it, so all of them
  // finish with the completions and meter of the same flush on the
  // ladder.
  auto workload = knowledge::SpiderLikeWorkload::Create();
  ASSERT_TRUE(workload.ok());
  const std::vector<Prompt> prompts = PopulationPrompts();
  BatchPolicy policy;
  policy.batch = true;
  policy.max_batch_size = 1;
  policy.parallel_batches = 1;
  SimulatedLlm ladder_model(&workload->kb(), ModelProfile::ChatGpt(),
                            &workload->catalog(), 7);
  ladder_model.set_wall_latency_ms(1.0);
  auto want = BatchScheduler(&ladder_model, policy, "nested").Run(prompts);
  ASSERT_TRUE(want.ok()) << want.status();
  const CostMeter want_cost = ladder_model.cost();
  ASSERT_EQ(want_cost.num_batches, 8);

  policy.parallel_batches = 4;
  const size_t n = ThreadPool::kSharedThreads + 8;
  std::vector<std::unique_ptr<SimulatedLlm>> models;
  std::vector<TaskHandle<Result<std::vector<Completion>>>> handles;
  for (size_t i = 0; i < n; ++i) {
    models.push_back(std::make_unique<SimulatedLlm>(
        &workload->kb(), ModelProfile::ChatGpt(), &workload->catalog(), 7));
    models.back()->set_wall_latency_ms(1.0);
    handles.push_back(TaskHandle<Result<std::vector<Completion>>>::Launch(
        ThreadPool::Shared(), [model = models.back().get(), policy, &prompts] {
          return BatchScheduler(model, policy, "nested").Run(prompts);
        }));
  }
  std::vector<Result<std::vector<Completion>>> got;
  for (auto& handle : handles) got.push_back(handle.Join());

  for (size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("handle " + std::to_string(i));
    ASSERT_TRUE(got[i].ok()) << got[i].status();
    ASSERT_EQ(got[i]->size(), want->size());
    for (size_t j = 0; j < want->size(); ++j) {
      EXPECT_EQ((*got[i])[j].text, (*want)[j].text) << j;
    }
    const CostMeter cost = models[i]->cost();
    EXPECT_EQ(cost.num_prompts, want_cost.num_prompts);
    EXPECT_EQ(cost.num_batches, want_cost.num_batches);
    EXPECT_EQ(cost.prompt_tokens, want_cost.prompt_tokens);
    EXPECT_EQ(cost.completion_tokens, want_cost.completion_tokens);
  }
}

TEST(CostTapTest, MeterIsIndependentOfCompletionOrder) {
  // As doubles, (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1: overlapped round
  // trips that complete in another order must still meter the same bits.
  ASSERT_NE((0.1 + 0.2) + 0.3, (0.3 + 0.2) + 0.1);
  auto deltas = [](std::vector<double> latencies_ms) {
    std::vector<CostMeter> out;
    for (double ms : latencies_ms) {
      CostMeter d;
      d.num_prompts = 1;
      d.simulated_latency_ms = ms;
      d.FillSelfSlice("scripted");
      out.push_back(d);
    }
    return out;
  };
  ScriptedUsageModel forward_model(deltas({0.1, 0.2, 0.3}));
  ScriptedUsageModel reverse_model(deltas({0.3, 0.2, 0.1}));
  CostTap forward(&forward_model);
  CostTap reverse(&reverse_model);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(forward.Complete(MakePrompt("p")).ok());
    ASSERT_TRUE(reverse.Complete(MakePrompt("p")).ok());
  }
  const CostMeter a = forward.cost();
  const CostMeter b = reverse.cost();
  EXPECT_EQ(a.num_prompts, 3);
  EXPECT_EQ(a.simulated_latency_ms, b.simulated_latency_ms);
  ASSERT_EQ(a.by_model.size(), 1u);
  EXPECT_TRUE(a.by_model == b.by_model);

  forward.ResetCost();
  EXPECT_EQ(forward.cost().simulated_latency_ms, 0.0);
  EXPECT_TRUE(forward.cost().by_model.empty());
}

// --- the thread_safe() contract ----------------------------------------------

TEST(ThreadSafeContractTest, DecoratorsForwardAndTheRouterAndsItsBackends) {
  auto workload = knowledge::SpiderLikeWorkload::Create();
  ASSERT_TRUE(workload.ok());
  SimulatedLlm safe(&workload->kb(), ModelProfile::ChatGpt(),
                    &workload->catalog(), 7);
  ScriptedUsageModel serial;
  EXPECT_TRUE(safe.thread_safe());
  EXPECT_TRUE(HttpLlm(HttpLlmOptions()).thread_safe());
  EXPECT_FALSE(serial.thread_safe());

  for (LanguageModel* inner : std::vector<LanguageModel*>{&safe, &serial}) {
    SCOPED_TRACE(inner->name());
    EXPECT_EQ(CostTap(inner).thread_safe(), inner->thread_safe());
    EXPECT_EQ(PromptCache(inner).thread_safe(), inner->thread_safe());
    EXPECT_EQ(ResilientLlm(inner, ResilienceOptions()).thread_safe(),
              inner->thread_safe());
  }

  ModelRouter router;
  ASSERT_TRUE(router.AddBackend("safe", &safe).ok());
  EXPECT_TRUE(router.thread_safe());
  ASSERT_TRUE(router.AddBackend("serial", &serial).ok());
  EXPECT_FALSE(router.thread_safe());
}

TEST(ModelRouterTest, FailedMixedBatchReportsNoUsage) {
  // A mixed batch rides one round trip per backend. When a later backend
  // fails, the call reports nothing, though an earlier one billed.
  ConcurrentEchoModel cheap;
  BoomModel strong;
  ModelRouter router;
  ASSERT_TRUE(router.AddBackend("cheap", &cheap).ok());
  ASSERT_TRUE(router.AddBackend("strong", &strong).ok());
  ASSERT_TRUE(router.SetRoute("verify", "strong").ok());
  const std::vector<Prompt> mixed = {Prompt{"a", AttributeGetIntent{}},
                                     Prompt{"boom", VerifyIntent{}}};
  CostMeter usage;
  auto out = router.CompleteBatchMetered(mixed, &usage);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(cheap.cost().num_prompts, 1);
  EXPECT_EQ(usage.num_prompts, 0);
  EXPECT_EQ(usage.num_batches, 0);
}

// --- PromptCache hammer (ThreadSanitizer target) ----------------------------

TEST(ConcurrentDispatchTest, PromptCacheSurvivesConcurrentFlushes) {
  // Several independent flushes with overlapping prompt sets hammer
  // PromptCache::CompleteBatch from scheduler worker threads and from
  // plain std::threads at once. Run under -fsanitize=thread in CI.
  ConcurrentEchoModel inner(/*sleep_scale_ms=*/0.5);
  PromptCache cache(&inner);

  auto flush_some = [&cache](int salt) {
    BatchPolicy policy;
    policy.batch = true;
    policy.max_batch_size = 3;
    policy.parallel_batches = 4;
    BatchScheduler scheduler(&cache, policy,
                             "hammer:" + std::to_string(salt));
    std::vector<Prompt> prompts;
    for (int i = 0; i < 30; ++i) {
      // Half the texts are shared across threads, half are unique, so
      // both cache hits and misses happen concurrently.
      std::string text = i % 2 == 0
                             ? "shared-" + std::to_string(i)
                             : "t" + std::to_string(salt) + "-" +
                                   std::to_string(i);
      prompts.push_back(Prompt{text, FreeformIntent{}});
    }
    auto out = scheduler.Run(std::move(prompts));
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->size(), 30u);
    for (int i = 0; i < 30; ++i) {
      std::string text = i % 2 == 0
                             ? "shared-" + std::to_string(i)
                             : "t" + std::to_string(salt) + "-" +
                                   std::to_string(i);
      EXPECT_EQ((*out)[static_cast<size_t>(i)].text, "echo:" + text);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&flush_some, t] {
      for (int round = 0; round < 3; ++round) flush_some(t);
    });
  }
  for (std::thread& t : threads) t.join();

  // Every distinct prompt is cached exactly once.
  // 15 shared + 4 threads * 15 unique = 75 distinct texts.
  EXPECT_EQ(cache.size(), 75u);
}

}  // namespace
}  // namespace galois::llm

// --- end-to-end: concurrent executor equivalence ----------------------------

namespace galois::core {
namespace {

TEST(ConcurrentExecutorTest, ParallelBatchesReturnsIdenticalRelations) {
  auto workload = knowledge::SpiderLikeWorkload::Create();
  ASSERT_TRUE(workload.ok());
  int checked = 0;
  for (const knowledge::QuerySpec& q : workload->queries()) {
    if (q.id % 5 != 0) continue;  // sample every 5th query
    llm::SimulatedLlm seq_model(&workload->kb(),
                                llm::ModelProfile::ChatGpt(),
                                &workload->catalog(), 7);
    ExecutionOptions opts;
    opts.batch_prompts = true;
    opts.max_batch_size = 3;
    opts.parallel_batches = 1;
    GaloisExecutor sequential(&seq_model, &workload->catalog(), opts);
    auto rm_seq = sequential.RunSql(q.sql);
    ASSERT_TRUE(rm_seq.ok()) << "q" << q.id;

    llm::SimulatedLlm par_model(&workload->kb(),
                                llm::ModelProfile::ChatGpt(),
                                &workload->catalog(), 7);
    opts.parallel_batches = 4;
    GaloisExecutor parallel(&par_model, &workload->catalog(), opts);
    auto rm_par = parallel.RunSql(q.sql);
    ASSERT_TRUE(rm_par.ok()) << "q" << q.id;

    // Byte-identical relations and identical accounting: concurrency
    // moves wall-clock time, never answers or billing.
    EXPECT_TRUE(rm_seq->relation.SameContents(rm_par->relation))
        << "q" << q.id;
    EXPECT_EQ(rm_seq->cost.num_prompts, rm_par->cost.num_prompts)
        << "q" << q.id;
    EXPECT_EQ(rm_seq->cost.num_batches, rm_par->cost.num_batches)
        << "q" << q.id;
    EXPECT_EQ(rm_seq->cost.cache_hits, rm_par->cost.cache_hits)
        << "q" << q.id;
    ++checked;
  }
  EXPECT_GE(checked, 4);
}

TEST(ConcurrentExecutorTest, CachedParallelRunStaysEquivalentAndWarm) {
  auto workload = knowledge::SpiderLikeWorkload::Create();
  ASSERT_TRUE(workload.ok());
  llm::SimulatedLlm inner(&workload->kb(), llm::ModelProfile::ChatGpt(),
                          &workload->catalog(), 7);
  llm::PromptCache cache(&inner);
  ExecutionOptions opts;
  opts.batch_prompts = true;
  opts.max_batch_size = 4;
  opts.parallel_batches = 4;
  opts.verify_cells = true;
  GaloisExecutor galois(&cache, &workload->catalog(), opts);
  const char* sql =
      "SELECT name, capital FROM country WHERE continent = 'Europe'";

  auto cold = galois.RunSql(sql);
  ASSERT_TRUE(cold.ok());
  auto warm = galois.RunSql(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(cold->relation.SameContents(warm->relation));
  // The warm rerun answers every fan-out prompt from cache.
  EXPECT_GT(warm->cost.cache_hits, 0);
}

}  // namespace
}  // namespace galois::core
