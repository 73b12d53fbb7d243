#ifndef GALOIS_LLM_HTTP_LLM_H_
#define GALOIS_LLM_HTTP_LLM_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "llm/language_model.h"

namespace galois::llm {

/// Classification markers the transport attaches to failed Statuses so the
/// resilience layer (llm/resilience.h) can decide retryability without a
/// richer error type crossing the LanguageModel interface. The markers are
/// plain message suffixes — Status stays the project-wide error currency.
///
/// Ownership of failures (docs/ARCHITECTURE.md, "Backends & routing"):
/// the transport *classifies* (what happened, is it retryable, what did
/// the server ask), the resilience layer *decides* (whether and when to
/// retry, when to stop, when to trip the breaker). The transport itself
/// never retries.
Status MarkRetryable(Status s);
Status WithRetryAfterMs(Status s, int64_t ms);
bool IsRetryableLlmError(const Status& s);
/// Server-requested delay before the next attempt; -1 when absent.
int64_t RetryAfterMs(const Status& s);

/// Connection endpoint and request shaping of an HTTP backend.
struct HttpLlmOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// OpenAI-compatible single-completion endpoint.
  std::string chat_path = "/v1/chat/completions";
  /// Batched endpoint (one request per BatchScheduler chunk; replies may
  /// arrive per-index out of order and are reassembled by the client).
  std::string batch_path = "/v1/batch_completions";
  /// Model name sent on the wire ("gpt-3.5-turbo").
  std::string wire_model = "gpt-3.5-turbo";
  /// Display name used by name() and the CostMeter by_model key; empty
  /// falls back to wire_model.
  std::string display_name;
  /// Budget for establishing the TCP connection.
  int64_t connect_timeout_ms = 2000;
  /// Budget for writing the request and reading the whole response; an
  /// expired budget is a *retryable* failure (the resilience layer owns
  /// the decision).
  int64_t io_timeout_ms = 10000;
};

/// OpenAI-compatible chat-completions client over a minimal blocking
/// socket HTTP/1.1 implementation — no third-party HTTP or TLS dependency
/// (TLS termination is a proxy's job in this build). One connection per
/// round trip (`Connection: close`), which keeps the client trivially
/// correct under the concurrent batch calls that
/// parallel_batches issues; on loopback the reconnect cost is noise.
///
/// Billing is real: token usage comes from the server's `usage` object
/// (falling back to local CountTokens when a provider omits it) and
/// latency from the `galois_latency_ms` extension (falling back to the
/// measured wall clock), so a FakeLlmServer-backed run reproduces the
/// same CostMeter as the in-process SimulatedLlm it wraps.
///
/// Error contract: every failure is StatusCode::kLlmError. Failures the
/// caller may retry (connect/timeout/truncation, HTTP 429 and 5xx) carry
/// the retryable marker; HTTP 429/503 Retry-After delays are forwarded
/// via WithRetryAfterMs. A 200 whose body is malformed or incomplete JSON
/// is NOT retryable — it is reported with no partial completions (the
/// CompleteBatch contract) and retrying a deterministic decode bug would
/// only hide it.
///
/// Thread-safety: stateless per round trip apart from the mutex-guarded
/// meter, so concurrent completion and cost calls are safe.
class HttpLlm : public LanguageModel {
 public:
  explicit HttpLlm(HttpLlmOptions options);

  const std::string& name() const override { return name_; }
  bool thread_safe() const override { return true; }

  /// One POST to chat_path. The wire-derived billing applied to the
  /// meter is also handed to `usage`, with the by_model slice.
  Result<Completion> CompleteMetered(const Prompt& prompt,
                                     CostMeter* usage) override;

  /// One POST to batch_path per call — a whole BatchScheduler chunk rides
  /// one HTTP round trip, billed as one batch.
  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override;

  CostMeter cost() const override;
  void ResetCost() override;

  const HttpLlmOptions& options() const { return options_; }

 private:
  struct HttpResponse {
    int status_code = 0;
    int64_t retry_after_ms = -1;
    std::string body;
  };

  /// One full HTTP round trip: connect, POST `body` to `path`, read the
  /// response. Transport-level failures come back retryable-marked.
  Result<HttpResponse> PostJson(const std::string& path,
                                const std::string& body) const;

  /// Maps a non-200 response to the classified error Status.
  Status HttpError(const std::string& path, const HttpResponse& resp) const;

  /// Applies the round trip to the meter and, when `usage` is non-null,
  /// reports the same delta (with the by_model slice) to the caller.
  void Bill(int64_t prompts, int64_t prompt_tokens, int64_t completion_tokens,
            double latency_ms, bool as_batch, CostMeter* usage);

  HttpLlmOptions options_;
  std::string name_;

  mutable std::mutex cost_mu_;
  CostMeter cost_;  // guarded by cost_mu_
};

}  // namespace galois::llm

#endif  // GALOIS_LLM_HTTP_LLM_H_
