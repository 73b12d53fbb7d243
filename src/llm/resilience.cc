#include "llm/resilience.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "llm/http_llm.h"

namespace galois::llm {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int64_t kNoDeadline = INT64_MAX;

}  // namespace

const char* CircuitStateName(CircuitState s) {
  switch (s) {
    case CircuitState::kClosed: return "closed";
    case CircuitState::kOpen: return "open";
    case CircuitState::kHalfOpen: return "half-open";
  }
  return "?";
}

ResilientLlm::ResilientLlm(LanguageModel* inner, ResilienceOptions options)
    : ForwardingModel(inner),
      options_(std::move(options)),
      tokens_(std::max(1.0, options_.rate_limit_burst)),
      jitter_rng_(options_.jitter_seed) {
  if (!options_.now_ms) options_.now_ms = SteadyNowMs;
  if (!options_.sleep_ms) {
    options_.sleep_ms = [](int64_t ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
  last_refill_ms_ = Now();
}

bool ResilientLlm::AcquireToken(int64_t deadline_at_ms) {
  if (options_.rate_limit_per_sec <= 0.0) return true;
  const double burst = std::max(1.0, options_.rate_limit_burst);
  bool waited = false;
  while (true) {
    int64_t wait_ms = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const int64_t now = Now();
      if (now > last_refill_ms_) {
        tokens_ = std::min(
            burst, tokens_ + options_.rate_limit_per_sec *
                                 static_cast<double>(now - last_refill_ms_) /
                                 1000.0);
        last_refill_ms_ = now;
      }
      if (tokens_ >= 1.0) {
        tokens_ -= 1.0;
        if (waited) ++stats_.rate_limit_waits;
        return true;
      }
      wait_ms = static_cast<int64_t>(std::ceil(
          (1.0 - tokens_) * 1000.0 / options_.rate_limit_per_sec));
      wait_ms = std::max<int64_t>(1, wait_ms);
      if (deadline_at_ms != kNoDeadline && Now() + wait_ms > deadline_at_ms) {
        ++stats_.deadline_exceeded;
        return false;
      }
    }
    // Sleep outside the lock; several waiters re-compete for the refilled
    // token on wake-up, which keeps the bucket fair-enough and lock-light.
    options_.sleep_ms(wait_ms);
    waited = true;
  }
}

int64_t ResilientLlm::RetryDelayMs(int retry, int64_t server_ms) {
  double base;
  if (server_ms >= 0) {
    // Honour the server's Retry-After, but never beyond the local cap.
    base = static_cast<double>(
        std::min<int64_t>(server_ms, options_.max_backoff_ms));
  } else {
    base = static_cast<double>(options_.initial_backoff_ms) *
           std::pow(options_.backoff_multiplier, retry);
    base = std::min(base, static_cast<double>(options_.max_backoff_ms));
  }
  double factor = 1.0;
  if (options_.jitter > 0.0) {
    std::lock_guard<std::mutex> lock(mu_);
    std::uniform_real_distribution<double> dist(0.0, options_.jitter);
    // Jitter only stretches the delay, so a server-requested minimum is
    // respected (up to the cap, which is absolute and applied last).
    factor += dist(jitter_rng_);
  }
  const int64_t delay =
      std::max<int64_t>(0, static_cast<int64_t>(std::llround(base * factor)));
  return std::min(delay, options_.max_backoff_ms);
}

template <typename T>
Result<T> ResilientLlm::Guarded(
    const std::string& what, const std::function<Result<T>()>& round_trip) {
  const int64_t start = Now();
  const int64_t deadline = options_.request_deadline_ms > 0
                               ? start + options_.request_deadline_ms
                               : kNoDeadline;
  const bool breaker_on = options_.circuit_failure_threshold > 0;
  Status last = Status::OK();
  for (int retry = 0;; ++retry) {
    // --- circuit admission -------------------------------------------
    bool is_probe = false;
    if (breaker_on) {
      std::lock_guard<std::mutex> lock(mu_);
      if (circuit_ == CircuitState::kOpen && Now() >= open_until_ms_) {
        circuit_ = CircuitState::kHalfOpen;
        probe_in_flight_ = false;
      }
      if (circuit_ == CircuitState::kOpen) {
        ++stats_.circuit_rejections;
        return Status::LlmError(
            what + ": circuit open for " + inner_->name() + " (cools down in " +
            std::to_string(std::max<int64_t>(0, open_until_ms_ - Now())) +
            " ms)");
      }
      if (circuit_ == CircuitState::kHalfOpen) {
        if (probe_in_flight_) {
          ++stats_.circuit_rejections;
          return Status::LlmError(what + ": circuit half-open for " +
                                  inner_->name() +
                                  ", probe already in flight");
        }
        probe_in_flight_ = true;
        is_probe = true;
      }
    }
    auto abandon_probe = [&] {
      if (is_probe) {
        std::lock_guard<std::mutex> lock(mu_);
        probe_in_flight_ = false;
      }
    };

    // --- rate limit ---------------------------------------------------
    if (!AcquireToken(deadline)) {
      abandon_probe();
      return Status::LlmError(
          what + ": deadline of " +
          std::to_string(options_.request_deadline_ms) +
          " ms exceeded waiting for a rate-limit token");
    }

    // --- the round trip ----------------------------------------------
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.round_trips;
    }
    Result<T> result = round_trip();
    if (result.ok()) {
      if (breaker_on) {
        std::lock_guard<std::mutex> lock(mu_);
        consecutive_failures_ = 0;
        if (is_probe) {
          // The probe came back healthy: close the circuit.
          probe_in_flight_ = false;
          circuit_ = CircuitState::kClosed;
        }
      }
      return result;
    }
    last = result.status();
    if (breaker_on) {
      std::lock_guard<std::mutex> lock(mu_);
      ++consecutive_failures_;
      if (is_probe) {
        // A failed probe re-opens immediately, whatever the counter says.
        probe_in_flight_ = false;
        circuit_ = CircuitState::kOpen;
        open_until_ms_ = Now() + options_.circuit_cooldown_ms;
        ++stats_.circuit_opens;
      } else if (circuit_ == CircuitState::kClosed &&
                 consecutive_failures_ >=
                     options_.circuit_failure_threshold) {
        circuit_ = CircuitState::kOpen;
        open_until_ms_ = Now() + options_.circuit_cooldown_ms;
        ++stats_.circuit_opens;
      }
    }

    // --- retry decision ----------------------------------------------
    if (!IsRetryableLlmError(last)) {
      return last;  // transport says deterministic; do not mask it
    }
    if (retry >= options_.max_retries) {
      return Status(last.code(),
                    what + ": giving up after " + std::to_string(retry + 1) +
                        " round trips; last error: " + last.message());
    }
    const int64_t server_ms = RetryAfterMs(last);
    const int64_t delay = RetryDelayMs(retry, server_ms);
    if (deadline != kNoDeadline && Now() + delay > deadline) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.deadline_exceeded;
      return Status::LlmError(
          what + ": deadline of " +
          std::to_string(options_.request_deadline_ms) +
          " ms exceeded before retry " + std::to_string(retry + 1) +
          "; last error: " + last.message());
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.retries;
      if (server_ms >= 0) ++stats_.retry_after_honoured;
    }
    if (delay > 0) options_.sleep_ms(delay);
  }
}

Result<Completion> ResilientLlm::CompleteMetered(const Prompt& prompt,
                                                 CostMeter* usage) {
  return Guarded<Completion>(
      "resilient " + inner_->name(), [&]() -> Result<Completion> {
        return inner_->CompleteMetered(prompt, usage);
      });
}

Result<std::vector<Completion>> ResilientLlm::CompleteBatchMetered(
    const std::vector<Prompt>& prompts, CostMeter* usage) {
  return Guarded<std::vector<Completion>>(
      "resilient " + inner_->name() + " batch[" +
          std::to_string(prompts.size()) + "]",
      [&]() -> Result<std::vector<Completion>> {
        return inner_->CompleteBatchMetered(prompts, usage);
      });
}

ResilienceStats ResilientLlm::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

CircuitState ResilientLlm::circuit_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return circuit_;
}

}  // namespace galois::llm
