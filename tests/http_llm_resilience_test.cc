// Fault-injection suite for the multi-backend transport stack: HttpLlm
// over a loopback FakeLlmServer, with ResilientLlm's retry / backoff /
// rate-limit / deadline / circuit-breaker policy driven hermetically
// (scripted fault schedules server-side, fake clock client-side).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "knowledge/workload.h"
#include "llm/http_llm.h"
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

Prompt AttributePrompt(const std::string& key = "Italy") {
  AttributeGetIntent intent;
  intent.concept_name = "country";
  intent.key = key;
  intent.attribute = "capital";
  intent.attribute_description = "capital city";
  intent.expected_type = DataType::kString;
  return BuildAttributePrompt(intent);
}

std::vector<Prompt> AttributePrompts(std::initializer_list<const char*> keys) {
  std::vector<Prompt> prompts;
  for (const char* key : keys) prompts.push_back(AttributePrompt(key));
  return prompts;
}

/// Fake clock whose sleep() advances time and records every delay —
/// the retry policy runs instantly and every backoff becomes assertable.
struct FakeClock {
  std::atomic<int64_t> now_ms{0};
  std::mutex mu;
  std::vector<int64_t> sleeps;

  void Install(ResilienceOptions* options) {
    options->now_ms = [this] { return now_ms.load(); };
    options->sleep_ms = [this](int64_t ms) {
      now_ms.fetch_add(ms);
      std::lock_guard<std::mutex> lock(mu);
      sleeps.push_back(ms);
    };
  }
};

// --- transport happy path --------------------------------------------------

TEST(HttpLlmTest, LoopbackCompletionMatchesInProcessModel) {
  auto backing = MakeBacking();
  FakeLlmServer server(backing.get());
  ASSERT_TRUE(server.Start().ok());

  HttpLlm http(server.ClientOptions());
  auto over_http = http.Complete(AttributePrompt());
  ASSERT_TRUE(over_http.ok()) << over_http.status();

  auto direct = MakeBacking()->Complete(AttributePrompt());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(over_http.value().text, direct.value().text);
  EXPECT_EQ(http.name(), "GPT-3.5-turbo");
}

TEST(HttpLlmTest, LoopbackCostMeterMatchesInProcessModel) {
  auto backing = MakeBacking();
  FakeLlmServer server(backing.get());
  ASSERT_TRUE(server.Start().ok());
  HttpLlm http(server.ClientOptions());

  auto reference = MakeBacking();
  std::vector<Prompt> batch = AttributePrompts({"Italy", "Japan", "Kenya"});
  ASSERT_TRUE(http.Complete(AttributePrompt()).ok());
  ASSERT_TRUE(http.CompleteBatch(batch).ok());
  ASSERT_TRUE(reference->Complete(AttributePrompt()).ok());
  ASSERT_TRUE(reference->CompleteBatch(batch).ok());

  CostMeter via_http = http.cost();
  CostMeter in_process = reference->cost();
  EXPECT_EQ(via_http.num_prompts, in_process.num_prompts);
  EXPECT_EQ(via_http.prompt_tokens, in_process.prompt_tokens);
  EXPECT_EQ(via_http.completion_tokens, in_process.completion_tokens);
  EXPECT_EQ(via_http.num_batches, in_process.num_batches);
  EXPECT_DOUBLE_EQ(via_http.simulated_latency_ms,
                   in_process.simulated_latency_ms);
  ASSERT_EQ(via_http.by_model.size(), 1u);
  EXPECT_EQ(via_http.by_model.begin()->first, "GPT-3.5-turbo");
}

TEST(HttpLlmTest, OutOfOrderBatchRepliesReassembleByIndex) {
  auto backing = MakeBacking();
  FakeLlmServer::Options options;
  options.shuffle_batch_replies = true;
  FakeLlmServer server(backing.get(), options);
  ASSERT_TRUE(server.Start().ok());
  HttpLlm http(server.ClientOptions());

  std::vector<Prompt> batch =
      AttributePrompts({"Italy", "Japan", "Kenya", "Peru"});
  auto shuffled = http.CompleteBatch(batch);
  ASSERT_TRUE(shuffled.ok()) << shuffled.status();

  auto direct = MakeBacking()->CompleteBatch(batch);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(shuffled.value().size(), direct.value().size());
  for (size_t i = 0; i < direct.value().size(); ++i) {
    EXPECT_EQ(shuffled.value()[i].text, direct.value()[i].text) << i;
  }
}

// --- fault classification --------------------------------------------------

TEST(HttpLlmTest, MalformedJsonIsLlmErrorAndNotRetryable) {
  auto backing = MakeBacking();
  FakeLlmServer server(backing.get());
  ASSERT_TRUE(server.Start().ok());
  HttpLlm http(server.ClientOptions());

  server.PushFault({FakeLlmServer::FaultKind::kMalformedJson, -1, 0});
  auto single = http.Complete(AttributePrompt());
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), StatusCode::kLlmError);
  EXPECT_FALSE(IsRetryableLlmError(single.status()));

  // Same contract for a batch: kLlmError, no partial completions.
  server.PushFault({FakeLlmServer::FaultKind::kMalformedJson, -1, 0});
  auto batch = http.CompleteBatch(AttributePrompts({"Italy", "Japan"}));
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kLlmError);
  EXPECT_FALSE(IsRetryableLlmError(batch.status()));
}

TEST(HttpLlmTest, TransportFaultsAreRetryable) {
  auto backing = MakeBacking();
  FakeLlmServer server(backing.get());
  ASSERT_TRUE(server.Start().ok());
  HttpLlm http(server.ClientOptions());

  server.PushFault({FakeLlmServer::FaultKind::k500, -1, 0});
  auto after_500 = http.Complete(AttributePrompt());
  ASSERT_FALSE(after_500.ok());
  EXPECT_TRUE(IsRetryableLlmError(after_500.status()));

  server.PushFault({FakeLlmServer::FaultKind::kTruncatedBody, -1, 0});
  auto truncated = http.Complete(AttributePrompt());
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(IsRetryableLlmError(truncated.status()));

  server.PushFault({FakeLlmServer::FaultKind::kCloseEarly, -1, 0});
  auto dropped = http.Complete(AttributePrompt());
  ASSERT_FALSE(dropped.ok());
  EXPECT_TRUE(IsRetryableLlmError(dropped.status()));
}

TEST(HttpLlmTest, Http429CarriesRetryAfter) {
  auto backing = MakeBacking();
  FakeLlmServer server(backing.get());
  ASSERT_TRUE(server.Start().ok());
  HttpLlm http(server.ClientOptions());

  server.PushFault({FakeLlmServer::FaultKind::k429, 1234, 0});
  auto limited = http.Complete(AttributePrompt());
  ASSERT_FALSE(limited.ok());
  EXPECT_EQ(limited.status().code(), StatusCode::kLlmError);
  EXPECT_TRUE(IsRetryableLlmError(limited.status()));
  EXPECT_EQ(RetryAfterMs(limited.status()), 1234);
}

TEST(HttpLlmTest, StallTripsClientTimeoutAsRetryable) {
  auto backing = MakeBacking();
  FakeLlmServer server(backing.get());
  ASSERT_TRUE(server.Start().ok());
  HttpLlmOptions client = server.ClientOptions();
  client.io_timeout_ms = 100;
  HttpLlm http(client);

  server.PushFault({FakeLlmServer::FaultKind::kStall, -1, 400});
  auto stalled = http.Complete(AttributePrompt());
  ASSERT_FALSE(stalled.ok());
  EXPECT_TRUE(IsRetryableLlmError(stalled.status()));
}

// --- resilience policy -----------------------------------------------------

TEST(ResilientLlmTest, RetriesThroughA429BurstAndHonoursRetryAfter) {
  auto backing = MakeBacking();
  FakeLlmServer server(backing.get());
  ASSERT_TRUE(server.Start().ok());
  HttpLlm http(server.ClientOptions());

  ResilienceOptions options;
  options.max_retries = 3;
  options.initial_backoff_ms = 5;
  options.jitter = 0.0;
  FakeClock clock;
  clock.Install(&options);
  ResilientLlm resilient(&http, options);

  server.PushFaults({FakeLlmServer::FaultKind::k429, 70, 0}, 2);
  auto result = resilient.Complete(AttributePrompt());
  ASSERT_TRUE(result.ok()) << result.status();

  ResilienceStats stats = resilient.stats();
  EXPECT_EQ(stats.round_trips, 3);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.retry_after_honoured, 2);
  ASSERT_EQ(clock.sleeps.size(), 2u);
  // The server asked for 70 ms; the policy must wait at least that,
  // not its own (smaller) backoff.
  EXPECT_GE(clock.sleeps[0], 70);
  EXPECT_GE(clock.sleeps[1], 70);
  EXPECT_EQ(server.requests_seen(), 3);
}

TEST(ResilientLlmTest, ExponentialBackoffIsCapped) {
  auto backing = MakeBacking();
  FakeLlmServer server(backing.get());
  ASSERT_TRUE(server.Start().ok());
  HttpLlm http(server.ClientOptions());

  ResilienceOptions options;
  options.max_retries = 3;
  options.initial_backoff_ms = 10;
  options.backoff_multiplier = 4.0;
  options.max_backoff_ms = 25;
  options.jitter = 0.0;
  FakeClock clock;
  clock.Install(&options);
  ResilientLlm resilient(&http, options);

  server.PushFaults({FakeLlmServer::FaultKind::k500, -1, 0}, 3);
  auto result = resilient.Complete(AttributePrompt());
  ASSERT_TRUE(result.ok()) << result.status();
  // 10, then 40 capped to 25, then 160 capped to 25.
  ASSERT_EQ(clock.sleeps.size(), 3u);
  EXPECT_EQ(clock.sleeps[0], 10);
  EXPECT_EQ(clock.sleeps[1], 25);
  EXPECT_EQ(clock.sleeps[2], 25);
}

TEST(ResilientLlmTest, GivesUpAfterMaxRetriesWithAnnotatedError) {
  auto backing = MakeBacking();
  FakeLlmServer server(backing.get());
  ASSERT_TRUE(server.Start().ok());
  HttpLlm http(server.ClientOptions());

  ResilienceOptions options;
  options.max_retries = 2;
  options.initial_backoff_ms = 1;
  FakeClock clock;
  clock.Install(&options);
  ResilientLlm resilient(&http, options);

  server.PushFaults({FakeLlmServer::FaultKind::k500, -1, 0}, 10);
  auto result = resilient.Complete(AttributePrompt());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kLlmError);
  EXPECT_NE(result.status().message().find("giving up after 3 round trips"),
            std::string::npos)
      << result.status();
  EXPECT_EQ(server.requests_seen(), 3);
  EXPECT_EQ(server.pending_faults(), 7u);
}

TEST(ResilientLlmTest, MalformedJsonIsNotRetried) {
  auto backing = MakeBacking();
  FakeLlmServer server(backing.get());
  ASSERT_TRUE(server.Start().ok());
  HttpLlm http(server.ClientOptions());

  ResilienceOptions options;
  options.max_retries = 5;
  FakeClock clock;
  clock.Install(&options);
  ResilientLlm resilient(&http, options);

  server.PushFault({FakeLlmServer::FaultKind::kMalformedJson, -1, 0});
  auto result = resilient.Complete(AttributePrompt());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kLlmError);
  EXPECT_EQ(resilient.stats().round_trips, 1);
  EXPECT_EQ(server.requests_seen(), 1);
  EXPECT_TRUE(clock.sleeps.empty());
}

TEST(ResilientLlmTest, DeadlineFiresInsteadOfSleepingPastIt) {
  auto backing = MakeBacking();
  FakeLlmServer server(backing.get());
  ASSERT_TRUE(server.Start().ok());
  HttpLlm http(server.ClientOptions());

  ResilienceOptions options;
  options.max_retries = 5;
  options.request_deadline_ms = 100;
  options.max_backoff_ms = 10000;
  options.jitter = 0.0;
  FakeClock clock;
  clock.Install(&options);
  ResilientLlm resilient(&http, options);

  // The server demands a 5-second pause; the 100 ms deadline must win.
  server.PushFault({FakeLlmServer::FaultKind::k429, 5000, 0});
  auto result = resilient.Complete(AttributePrompt());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kLlmError);
  EXPECT_NE(result.status().message().find("deadline"), std::string::npos)
      << result.status();
  EXPECT_EQ(resilient.stats().deadline_exceeded, 1);
  EXPECT_TRUE(clock.sleeps.empty());  // never slept into the deadline
}

// --- circuit breaker (in-memory inner model: no transport noise) -----------

/// Inner model that fails the next `failures` round trips with a
/// retryable error, then answers from the wrapped model.
class FlakyModel : public ForwardingModel {
 public:
  FlakyModel(LanguageModel* inner, int failures)
      : ForwardingModel(inner), failures_remaining_(failures) {}

  bool thread_safe() const override { return false; }

  Result<Completion> CompleteMetered(const Prompt& prompt,
                                     CostMeter* usage) override {
    if (TakeFailure()) {
      return MarkRetryable(Status::LlmError("flaky: injected failure"));
    }
    return inner_->CompleteMetered(prompt, usage);
  }

  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override {
    if (TakeFailure()) {
      return MarkRetryable(Status::LlmError("flaky: injected failure"));
    }
    return inner_->CompleteBatchMetered(prompts, usage);
  }

  void FailNext(int failures) { failures_remaining_.store(failures); }
  int64_t calls() const { return calls_.load(); }

 private:
  bool TakeFailure() {
    calls_.fetch_add(1);
    int remaining = failures_remaining_.load();
    while (remaining > 0) {
      if (failures_remaining_.compare_exchange_weak(remaining,
                                                    remaining - 1)) {
        return true;
      }
    }
    return false;
  }

  std::atomic<int> failures_remaining_;
  std::atomic<int64_t> calls_{0};
};

TEST(ResilientLlmTest, CircuitOpensHalfOpensAndRecloses) {
  auto backing = MakeBacking();
  FlakyModel flaky(backing.get(), 3);

  ResilienceOptions options;
  options.max_retries = 0;  // one round trip per call: failures count 1:1
  options.circuit_failure_threshold = 3;
  options.circuit_cooldown_ms = 1000;
  FakeClock clock;
  clock.Install(&options);
  ResilientLlm resilient(&flaky, options);

  // Three consecutive failures trip the breaker...
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(resilient.Complete(AttributePrompt()).ok());
  }
  EXPECT_EQ(resilient.circuit_state(), CircuitState::kOpen);
  EXPECT_EQ(resilient.stats().circuit_opens, 1);

  // ...and while open, calls fail fast without touching the backend.
  int64_t calls_before = flaky.calls();
  auto rejected = resilient.Complete(AttributePrompt());
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("circuit open"),
            std::string::npos);
  EXPECT_EQ(flaky.calls(), calls_before);
  EXPECT_EQ(resilient.stats().circuit_rejections, 1);

  // After the cooldown one probe goes through; it succeeds and recloses.
  clock.now_ms.fetch_add(1001);
  auto probe = resilient.Complete(AttributePrompt());
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_EQ(resilient.circuit_state(), CircuitState::kClosed);

  // Healthy again: subsequent calls flow normally.
  EXPECT_TRUE(resilient.Complete(AttributePrompt()).ok());
}

TEST(ResilientLlmTest, FailedProbeReopensTheCircuit) {
  auto backing = MakeBacking();
  FlakyModel flaky(backing.get(), 3);

  ResilienceOptions options;
  options.max_retries = 0;
  options.circuit_failure_threshold = 3;
  options.circuit_cooldown_ms = 500;
  FakeClock clock;
  clock.Install(&options);
  ResilientLlm resilient(&flaky, options);

  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(resilient.Complete(AttributePrompt()).ok());
  }
  EXPECT_EQ(resilient.circuit_state(), CircuitState::kOpen);

  // Probe after cooldown fails -> straight back to open, one more open
  // transition counted.
  flaky.FailNext(1);
  clock.now_ms.fetch_add(501);
  EXPECT_FALSE(resilient.Complete(AttributePrompt()).ok());
  EXPECT_EQ(resilient.circuit_state(), CircuitState::kOpen);
  EXPECT_EQ(resilient.stats().circuit_opens, 2);
}

TEST(ResilientLlmTest, RateLimiterSpacesRoundTrips) {
  auto backing = MakeBacking();

  ResilienceOptions options;
  options.rate_limit_per_sec = 10.0;  // one token per 100 ms
  options.rate_limit_burst = 1.0;
  FakeClock clock;
  clock.Install(&options);
  ResilientLlm resilient(backing.get(), options);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(resilient.Complete(AttributePrompt()).ok());
  }
  // First call rides the initial token; each later call waits ~100 ms of
  // fake time for a refill.
  EXPECT_EQ(resilient.stats().rate_limit_waits, 3);
  EXPECT_GE(clock.now_ms.load(), 300);
}

}  // namespace
}  // namespace galois::llm
