// Concurrency hammer for the resilience middleware and the router under
// BatchScheduler's parallel dispatch (parallel_batches = 8): the token
// bucket, circuit breaker and stats counters must stay consistent — and
// TSan-clean (this suite is in the TSan CI job's regex) — when many
// round trips pound them from pool threads, including over real loopback
// HTTP against a periodically faulting server.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "knowledge/workload.h"
#include "llm/batch_scheduler.h"
#include "llm/http_llm.h"
#include "llm/model_router.h"
#include "llm/prompt_templates.h"
#include "llm/resilience.h"
#include "llm/simulated_llm.h"
#include "tests/fake_llm_server.h"

namespace galois::llm {
namespace {

using galois::tests::FakeLlmServer;

const knowledge::SpiderLikeWorkload& W() {
  static const auto* w = []() {
    auto r = knowledge::SpiderLikeWorkload::Create();
    EXPECT_TRUE(r.ok());
    return new knowledge::SpiderLikeWorkload(std::move(r).value());
  }();
  return *w;
}

std::unique_ptr<SimulatedLlm> MakeBacking() {
  return std::make_unique<SimulatedLlm>(&W().kb(), ModelProfile::ChatGpt(),
                                        &W().catalog());
}

std::vector<Prompt> ManyAttributePrompts(int n) {
  // Distinct keys so the scheduler's in-flush dedupe keeps all of them.
  const std::vector<const char*> keys = {"Italy", "Japan",  "Kenya",
                                         "Peru",  "France", "Brazil",
                                         "India", "Canada"};
  std::vector<Prompt> prompts;
  prompts.reserve(n);
  for (int i = 0; i < n; ++i) {
    AttributeGetIntent intent;
    intent.concept_name = "country";
    intent.key = keys[i % keys.size()];
    intent.attribute = i / static_cast<int>(keys.size()) % 2 == 0
                           ? "capital"
                           : "continent";
    intent.attribute_description = intent.attribute;
    // Page-style uniqueness beyond key x attribute combinations.
    intent.attribute_description +=
        " variant " + std::to_string(i / (2 * keys.size()));
    prompts.push_back(BuildAttributePrompt(intent));
  }
  return prompts;
}

BatchPolicy HammerPolicy() {
  BatchPolicy policy;
  policy.batch = true;
  policy.max_batch_size = 2;
  policy.parallel_batches = 8;
  return policy;
}

TEST(ResilienceConcurrencyTest, RateLimiterUnderParallelBatches) {
  auto backing = MakeBacking();
  ResilienceOptions options;
  options.rate_limit_per_sec = 4000.0;  // fast but forces real contention
  options.rate_limit_burst = 4.0;
  ResilientLlm resilient(backing.get(), options);

  std::vector<Prompt> prompts = ManyAttributePrompts(64);
  BatchScheduler scheduler(&resilient, HammerPolicy(), "hammer:rate");
  auto limited = scheduler.Run(prompts);
  ASSERT_TRUE(limited.ok()) << limited.status();

  // Same answers as an unthrottled direct run.
  auto reference = MakeBacking();
  BatchScheduler direct(reference.get(), HammerPolicy(), "hammer:direct");
  auto unlimited = direct.Run(prompts);
  ASSERT_TRUE(unlimited.ok());
  ASSERT_EQ(limited.value().size(), unlimited.value().size());
  for (size_t i = 0; i < limited.value().size(); ++i) {
    EXPECT_EQ(limited.value()[i].text, unlimited.value()[i].text) << i;
  }
  // 64 prompts in chunks of 2 = 32 round trips, every one admitted.
  EXPECT_EQ(resilient.stats().round_trips, 32);
  EXPECT_EQ(backing->cost().num_batches, 32);
}

TEST(ResilienceConcurrencyTest, ManyThreadsShareOneTokenBucket) {
  auto backing = MakeBacking();
  ResilienceOptions options;
  options.rate_limit_per_sec = 2000.0;
  options.rate_limit_burst = 1.0;
  ResilientLlm resilient(backing.get(), options);

  std::vector<Prompt> prompts = ManyAttributePrompts(32);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        auto r = resilient.Complete(prompts[t * 4 + i]);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(resilient.stats().round_trips, 32);
  EXPECT_EQ(backing->cost().num_prompts, 32);
}

/// Always fails with a retryable error until told to heal.
class SwitchableModel : public ForwardingModel {
 public:
  explicit SwitchableModel(LanguageModel* inner) : ForwardingModel(inner) {}
  bool thread_safe() const override { return false; }

  Result<Completion> CompleteMetered(const Prompt& prompt,
                                     CostMeter* usage) override {
    inner_calls_.fetch_add(1);
    if (failing_.load()) {
      return MarkRetryable(Status::LlmError("switchable: down"));
    }
    return inner_->CompleteMetered(prompt, usage);
  }
  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override {
    inner_calls_.fetch_add(1);
    if (failing_.load()) {
      return MarkRetryable(Status::LlmError("switchable: down"));
    }
    return inner_->CompleteBatchMetered(prompts, usage);
  }

  void set_failing(bool failing) { failing_.store(failing); }
  int64_t inner_calls() const { return inner_calls_.load(); }

 private:
  std::atomic<bool> failing_{true};
  std::atomic<int64_t> inner_calls_{0};
};

TEST(ResilienceConcurrencyTest, CircuitBreakerUnderParallelBatches) {
  auto backing = MakeBacking();
  SwitchableModel flaky(backing.get());

  ResilienceOptions options;
  options.max_retries = 0;
  options.circuit_failure_threshold = 4;
  options.circuit_cooldown_ms = 30;
  ResilientLlm resilient(&flaky, options);

  std::vector<Prompt> prompts = ManyAttributePrompts(48);
  BatchScheduler scheduler(&resilient, HammerPolicy(), "hammer:circuit");
  auto while_down = scheduler.Run(prompts);
  ASSERT_FALSE(while_down.ok());

  ResilienceStats stats = resilient.stats();
  EXPECT_GE(stats.circuit_opens, 1);
  // The breaker cut off part of the storm: the backend saw fewer calls
  // than the 24 chunks dispatched (how many fewer is timing-dependent).
  EXPECT_LT(flaky.inner_calls(), 24);
  EXPECT_GT(stats.circuit_rejections, 0);

  // Heal, wait out the cooldown, close via a probe, then a full flush
  // must sail through.
  flaky.set_failing(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  auto probe = resilient.Complete(prompts[0]);
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_EQ(resilient.circuit_state(), CircuitState::kClosed);

  BatchScheduler healed(&resilient, HammerPolicy(), "hammer:healed");
  auto after = healed.Run(prompts);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after.value().size(), prompts.size());
}

TEST(ResilienceConcurrencyTest, LoopbackHttpWithPeriodic429Burst) {
  auto backing = MakeBacking();
  FakeLlmServer::Options server_options;
  server_options.fault_every_n = 5;  // every 5th request is a 429
  server_options.periodic_fault = {FakeLlmServer::FaultKind::k429, 5, 0};
  FakeLlmServer server(backing.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  HttpLlm http(server.ClientOptions());
  ResilienceOptions options;
  options.max_retries = 4;
  options.initial_backoff_ms = 2;
  options.max_backoff_ms = 20;
  ResilientLlm resilient(&http, options);

  std::vector<Prompt> prompts = ManyAttributePrompts(48);
  BatchScheduler scheduler(&resilient, HammerPolicy(), "hammer:http");
  auto over_http = scheduler.Run(prompts);
  ASSERT_TRUE(over_http.ok()) << over_http.status();

  auto reference = MakeBacking();
  BatchScheduler direct(reference.get(), HammerPolicy(), "hammer:ref");
  auto in_process = direct.Run(prompts);
  ASSERT_TRUE(in_process.ok());
  ASSERT_EQ(over_http.value().size(), in_process.value().size());
  for (size_t i = 0; i < over_http.value().size(); ++i) {
    EXPECT_EQ(over_http.value()[i].text, in_process.value()[i].text) << i;
  }
  EXPECT_GT(server.faults_injected(), 0);
  EXPECT_GT(resilient.stats().retries, 0);
}

TEST(ResilienceConcurrencyTest, RouterUnderConcurrentMixedTraffic) {
  SimulatedLlm cheap(&W().kb(), ModelProfile::Flan(), &W().catalog());
  SimulatedLlm strong(&W().kb(), ModelProfile::ChatGpt(), &W().catalog());
  ModelRouter router;
  ASSERT_TRUE(router.AddBackend("flan", &cheap).ok());
  ASSERT_TRUE(router.AddBackend("chatgpt", &strong).ok());
  ASSERT_TRUE(router.SetRoute("verify", "chatgpt").ok());

  std::vector<Prompt> attributes = ManyAttributePrompts(32);
  std::vector<Prompt> verifies;
  for (int i = 0; i < 32; ++i) {
    VerifyIntent intent;
    intent.concept_name = "country";
    intent.key = i % 2 == 0 ? "Italy" : "Japan";
    intent.attribute = "capital";
    intent.attribute_description = "capital city variant " +
                                   std::to_string(i);
    intent.claimed = Value::String("Rome");
    verifies.push_back(BuildVerifyPrompt(intent));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      BatchScheduler scheduler(&router, HammerPolicy(),
                               "hammer:router:" + std::to_string(t));
      auto r = scheduler.Run(t % 2 == 0 ? attributes : verifies);
      if (!r.ok()) failures.fetch_add(1);
      // Concurrent readers of the merged meter must be safe too.
      (void)router.cost();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  CostMeter cost = router.cost();
  EXPECT_EQ(cost.num_prompts, 8 * 32);
  ASSERT_EQ(cost.by_model.size(), 2u);
  EXPECT_EQ(cost.by_model.at(cheap.name()).num_prompts, 4 * 32);
  EXPECT_EQ(cost.by_model.at(strong.name()).num_prompts, 4 * 32);
}

}  // namespace
}  // namespace galois::llm
