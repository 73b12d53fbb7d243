#include "llm/http_llm.h"

#include <cstdlib>
#include <cstring>

#include "common/json.h"
#include "llm/prompt_json.h"
#include "net/http.h"
#include "net/socket.h"

namespace galois::llm {

namespace {

constexpr char kRetryableMarker[] = " [retryable]";
constexpr char kRetryAfterPrefix[] = " [retry-after-ms=";

using net::NowMs;

}  // namespace

Status MarkRetryable(Status s) {
  if (s.ok() || IsRetryableLlmError(s)) return s;
  return Status(s.code(), s.message() + kRetryableMarker);
}

Status WithRetryAfterMs(Status s, int64_t ms) {
  if (s.ok() || ms < 0) return s;
  return Status(s.code(),
                s.message() + kRetryAfterPrefix + std::to_string(ms) + "]");
}

bool IsRetryableLlmError(const Status& s) {
  return !s.ok() && s.message().find(kRetryableMarker) != std::string::npos;
}

int64_t RetryAfterMs(const Status& s) {
  size_t pos = s.message().find(kRetryAfterPrefix);
  if (pos == std::string::npos) return -1;
  const char* start =
      s.message().c_str() + pos + std::strlen(kRetryAfterPrefix);
  char* end = nullptr;
  long long v = std::strtoll(start, &end, 10);
  if (end == start || *end != ']' || v < 0) return -1;
  return static_cast<int64_t>(v);
}

HttpLlm::HttpLlm(HttpLlmOptions options)
    : options_(std::move(options)),
      name_(options_.display_name.empty() ? options_.wire_model
                                          : options_.display_name) {}

Result<HttpLlm::HttpResponse> HttpLlm::PostJson(
    const std::string& path, const std::string& body) const {
  const std::string port_str = std::to_string(options_.port);
  const std::string where = options_.host + ":" + port_str + path;
  const int64_t io_deadline = NowMs() + options_.io_timeout_ms;

  // Resolve + connect with its own (shorter) budget. Connection failures
  // are retryable: the server may be restarting behind a balancer.
  Result<net::Fd> connected =
      net::ConnectTcp(options_.host, options_.port, options_.connect_timeout_ms);
  if (!connected.ok()) {
    return MarkRetryable(Status::LlmError(
        "http: connect to " + where + " failed: " +
        connected.status().message()));
  }
  net::Fd fd = std::move(connected).value();

  // Request. Connection: close keeps the protocol read-to-EOF simple and
  // makes each round trip independent under concurrent dispatch.
  const std::string request = net::BuildHttpPost(
      options_.host + ":" + port_str, path, body);
  Status sent = net::SendAll(fd.get(), request, io_deadline);
  if (!sent.ok()) {
    return MarkRetryable(Status::LlmError("http: send to " + where +
                                          " failed: " + sent.message()));
  }

  // The net layer classifies read failures for us: kIoError is transport
  // trouble — timeout, connection died before the headers, or a body
  // truncated at EOF short of Content-Length (the peer died mid-write;
  // such a short read must surface as a retryable connection fault, never
  // reach the JSON parser as a "malformed body" decode error). kParseError
  // is a deterministic protocol violation (garbage status line or
  // Content-Length) that retries cannot fix.
  Result<net::HttpResponseMessage> message =
      net::ReadHttpResponse(fd.get(), io_deadline);
  if (!message.ok()) {
    if (message.status().code() == StatusCode::kParseError) {
      return Status::LlmError("http: protocol violation from " + where + ": " +
                              message.status().message());
    }
    return MarkRetryable(Status::LlmError("http: " + where + ": " +
                                          message.status().message()));
  }

  HttpResponse resp;
  resp.status_code = message.value().status_code;
  resp.body = std::move(message.value().body);
  std::string retry_after;
  if (net::FindHeader(message.value().headers, "Retry-After-Ms",
                      &retry_after)) {
    resp.retry_after_ms = std::strtoll(retry_after.c_str(), nullptr, 10);
  } else if (net::FindHeader(message.value().headers, "Retry-After",
                             &retry_after)) {
    // Standard header is in seconds.
    resp.retry_after_ms = 1000 * std::strtoll(retry_after.c_str(), nullptr, 10);
  }
  return resp;
}

Status HttpLlm::HttpError(const std::string& path,
                          const HttpResponse& resp) const {
  std::string detail;
  auto parsed = Json::Parse(resp.body);
  if (parsed.ok()) {
    detail = parsed.value()["error"].GetString("message");
  }
  Status s = Status::LlmError(
      "http: " + name_ + path + " returned " +
      std::to_string(resp.status_code) +
      (detail.empty() ? "" : (" (" + detail + ")")));
  if (resp.status_code == 429 || resp.status_code >= 500) {
    s = WithRetryAfterMs(MarkRetryable(std::move(s)), resp.retry_after_ms);
  }
  return s;
}

void HttpLlm::Bill(int64_t prompts, int64_t prompt_tokens,
                   int64_t completion_tokens, double latency_ms,
                   bool as_batch, CostMeter* usage) {
  CostMeter delta;
  delta.num_prompts = prompts;
  delta.prompt_tokens = prompt_tokens;
  delta.completion_tokens = completion_tokens;
  delta.simulated_latency_ms = latency_ms;
  delta.num_batches = as_batch ? 1 : 0;
  {
    std::lock_guard<std::mutex> lock(cost_mu_);
    cost_ += delta;
  }
  if (usage != nullptr) {
    delta.FillSelfSlice(name_);
    *usage += delta;
  }
}

Result<Completion> HttpLlm::CompleteMetered(const Prompt& prompt,
                                            CostMeter* usage) {
  const int64_t start_ms = NowMs();
  const std::string body =
      BuildChatRequest(options_.wire_model, prompt).Dump();
  GALOIS_ASSIGN_OR_RETURN(HttpResponse resp,
                          PostJson(options_.chat_path, body));
  if (resp.status_code != 200) {
    return HttpError(options_.chat_path, resp);
  }
  auto parsed = Json::Parse(resp.body);
  if (!parsed.ok()) {
    // Deliberately NOT retryable: a 200 with undecodable JSON is a
    // deterministic protocol bug, and retries would mask it.
    return Status::LlmError("http: malformed response JSON from " + name_ +
                            ": " + parsed.status().message());
  }
  GALOIS_ASSIGN_OR_RETURN(WireCompletion wire,
                          ParseChatResponse(parsed.value()));
  if (wire.usage.prompt_tokens == 0) {
    wire.usage.prompt_tokens = CountTokens(prompt.text);
  }
  if (wire.usage.completion_tokens == 0) {
    wire.usage.completion_tokens = CountTokens(wire.completion.text);
  }
  Bill(1, wire.usage.prompt_tokens, wire.usage.completion_tokens,
       wire.usage.latency_ms > 0.0
           ? wire.usage.latency_ms
           : static_cast<double>(NowMs() - start_ms),
       /*as_batch=*/false, usage);
  return wire.completion;
}

Result<std::vector<Completion>> HttpLlm::CompleteBatchMetered(
    const std::vector<Prompt>& prompts, CostMeter* usage) {
  if (prompts.empty()) return std::vector<Completion>{};
  const int64_t start_ms = NowMs();
  const std::string body =
      BuildBatchRequest(options_.wire_model, prompts).Dump();
  GALOIS_ASSIGN_OR_RETURN(HttpResponse resp,
                          PostJson(options_.batch_path, body));
  if (resp.status_code != 200) {
    return HttpError(options_.batch_path, resp);
  }
  auto parsed = Json::Parse(resp.body);
  if (!parsed.ok()) {
    return Status::LlmError("http: malformed response JSON from " + name_ +
                            ": " + parsed.status().message());
  }
  // ParseBatchResponse reassembles out-of-order replies by index and
  // rejects missing/duplicate entries — on any error nothing is returned
  // (no partial completions), per the CompleteBatch contract.
  GALOIS_ASSIGN_OR_RETURN(auto reassembled,
                          ParseBatchResponse(parsed.value(), prompts.size()));
  auto& [completions, wire_usage] = reassembled;
  if (wire_usage.prompt_tokens == 0) {
    for (const Prompt& p : prompts) {
      wire_usage.prompt_tokens += CountTokens(p.text);
    }
  }
  if (wire_usage.completion_tokens == 0) {
    for (const Completion& c : completions) {
      wire_usage.completion_tokens += CountTokens(c.text);
    }
  }
  Bill(static_cast<int64_t>(prompts.size()), wire_usage.prompt_tokens,
       wire_usage.completion_tokens,
       wire_usage.latency_ms > 0.0
           ? wire_usage.latency_ms
           : static_cast<double>(NowMs() - start_ms),
       /*as_batch=*/true, usage);
  return std::move(completions);
}

CostMeter HttpLlm::cost() const {
  std::lock_guard<std::mutex> lock(cost_mu_);
  CostMeter out = cost_;
  out.FillSelfSlice(name_);
  return out;
}

void HttpLlm::ResetCost() {
  std::lock_guard<std::mutex> lock(cost_mu_);
  cost_.Reset();
}

}  // namespace galois::llm
