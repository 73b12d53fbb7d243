#ifndef GALOIS_LLM_RESILIENCE_H_
#define GALOIS_LLM_RESILIENCE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/result.h"
#include "llm/language_model.h"

namespace galois::llm {

/// Knobs of the ResilientLlm decorator. Defaults are production-shaped:
/// a few retries with exponential backoff and jitter, no rate limit, no
/// deadline, breaker off. Tests inject `now_ms` / `sleep_ms` hooks to run
/// the whole policy against a fake clock — hermetic and instant.
struct ResilienceOptions {
  /// Extra attempts after the first failed one (3 => up to 4 round trips).
  int max_retries = 3;
  int64_t initial_backoff_ms = 100;
  double backoff_multiplier = 2.0;
  /// Cap applied to the computed backoff AND to a server-sent Retry-After
  /// (a hostile or buggy server must not be able to park a query for an
  /// hour).
  int64_t max_backoff_ms = 5000;
  /// Multiplicative jitter: delay *= 1 + U(0, jitter). Deterministic per
  /// decorator instance (seeded), never *below* a server-sent Retry-After
  /// (unless max_backoff_ms — absolute, applied last — is smaller).
  double jitter = 0.1;
  uint64_t jitter_seed = 42;

  /// Token-bucket rate limit on round trips *initiated* (one token per
  /// completion or batch round trip — batching many prompts into
  /// one trip is precisely how the paper's workload stays under provider
  /// limits). 0 disables.
  double rate_limit_per_sec = 0.0;
  /// Bucket capacity (burst size); at least 1 when rate limiting is on.
  double rate_limit_burst = 1.0;

  /// Whole-call wall-clock budget, covering every retry, backoff sleep
  /// and rate-limit wait. 0 disables. Exceeding it fails the call with a
  /// non-retryable kLlmError naming the deadline.
  int64_t request_deadline_ms = 0;

  /// Consecutive round-trip failures that open the circuit; 0 disables
  /// the breaker.
  int circuit_failure_threshold = 0;
  /// How long an open circuit rejects calls before letting one half-open
  /// probe through.
  int64_t circuit_cooldown_ms = 1000;

  /// Monotonic clock / sleep hooks; defaults use steady_clock and
  /// this_thread::sleep_for. Tests swap both for a shared fake clock.
  std::function<int64_t()> now_ms;
  std::function<void(int64_t)> sleep_ms;
};

/// Counters for observability and tests; a consistent snapshot is
/// returned by ResilientLlm::stats().
struct ResilienceStats {
  int64_t round_trips = 0;         // inner attempts actually issued
  int64_t retries = 0;             // sleeps between attempts
  int64_t retry_after_honoured = 0;  // retries that used a server delay
  int64_t rate_limit_waits = 0;    // acquisitions that had to wait
  int64_t circuit_rejections = 0;  // calls failed fast while open
  int64_t circuit_opens = 0;       // closed/half-open -> open transitions
  int64_t deadline_exceeded = 0;   // calls that ran out of budget
};

enum class CircuitState { kClosed, kOpen, kHalfOpen };
const char* CircuitStateName(CircuitState s);

/// Resilience decorator (same decorator pattern as PromptCache): bounded
/// retry with exponential backoff + jitter on retryable failures (HTTP
/// 429/5xx/timeouts as classified by the transport via the markers in
/// llm/http_llm.h), a token-bucket rate limiter, a per-request deadline,
/// and a circuit breaker. Sits between the router and the cache in the
/// recommended stack: router -> resilience -> cache -> transport.
///
/// Layer ownership: the transport classifies failures, this layer decides
/// what to do about them. A failure without the retryable marker (e.g.
/// malformed 200-response JSON) is returned immediately — retrying a
/// deterministic bug only hides it. The breaker counts *round-trip*
/// failures (each failed attempt, not each failed call), so a burst of
/// retries against a dead backend trips it quickly.
///
/// Thread-safety: all mutable state (bucket, breaker, stats, jitter rng)
/// is guarded by one mutex that is never held across an inner round trip
/// or a sleep, so BatchScheduler may drive it from parallel_batches
/// threads. Blocking (rate-limit waits, backoff) happens on the calling
/// thread — under the scheduler that is a round-trip pool worker, which
/// is exactly the thread whose round trip is being delayed.
/// thread_safe() forwards the inner model's answer.
class ResilientLlm : public ForwardingModel {
 public:
  /// `inner` must outlive the decorator. Transparent to identification,
  /// like PromptCache; cost() forwards too, because the decorator adds
  /// policy, not spend. Failed retried round trips are billed by whoever
  /// billed them inside (the transport bills only successes; SimulatedLlm
  /// bills each call).
  ResilientLlm(LanguageModel* inner, ResilienceOptions options);

  /// Runs the round trip under the full policy; the usage pointer rides
  /// it into the inner stack, so a successful (possibly retried) call
  /// reports exactly the usage of the attempt that succeeded. Failed
  /// attempts report nothing (per the metered-API contract).
  Result<Completion> CompleteMetered(const Prompt& prompt,
                                     CostMeter* usage) override;
  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override;

  ResilienceStats stats() const;
  CircuitState circuit_state() const;
  const ResilienceOptions& options() const { return options_; }

 private:
  /// Runs `round_trip` under the full policy. `what` labels errors.
  template <typename T>
  Result<T> Guarded(const std::string& what,
                    const std::function<Result<T>()>& round_trip);

  /// Blocks until a rate-limit token is available or `deadline_at_ms`
  /// (absolute; INT64_MAX when no deadline) would be crossed. Returns
  /// false on deadline.
  bool AcquireToken(int64_t deadline_at_ms);

  /// Backoff delay before retry number `retry` (0-based), jittered;
  /// `server_ms` >= 0 takes precedence (still capped + jittered upward).
  int64_t RetryDelayMs(int retry, int64_t server_ms);

  int64_t Now() const { return options_.now_ms(); }

  ResilienceOptions options_;

  mutable std::mutex mu_;
  // Token bucket (guarded by mu_; sleeps happen outside the lock).
  double tokens_;
  int64_t last_refill_ms_ = 0;
  // Circuit breaker (guarded by mu_).
  CircuitState circuit_ = CircuitState::kClosed;
  int consecutive_failures_ = 0;
  int64_t open_until_ms_ = 0;
  bool probe_in_flight_ = false;
  // Jitter source (guarded by mu_).
  std::mt19937_64 jitter_rng_;
  ResilienceStats stats_;  // guarded by mu_
};

}  // namespace galois::llm

#endif  // GALOIS_LLM_RESILIENCE_H_
