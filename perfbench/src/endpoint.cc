#include "endpoint.h"

#include <fcntl.h>
#include <sys/socket.h>

#include <cerrno>
#include <variant>

#include "common/json.h"
#include "llm/model_profile.h"
#include "llm/prompt_json.h"
#include "net/http.h"
#include "stats.h"

namespace perfbench {

namespace {

using galois::Json;
using galois::Result;
using galois::Status;
namespace llm = galois::llm;
namespace net = galois::net;

/// Budget for reading one request or writing one response.
constexpr int64_t kIoBudgetMs = 10000;
/// Worker threads: far above the round trips any workload keeps in flight,
/// so requests never queue behind each other.
constexpr int kWorkers = 64;

std::string ErrorBody(const std::string& message) {
  Json error = Json::Object();
  error.Set("message", Json::String(message));
  Json j = Json::Object();
  j.Set("error", std::move(error));
  return j.Dump();
}

}  // namespace

LlmEndpoint::LlmEndpoint(const galois::knowledge::SpiderLikeWorkload* workload,
                         double delay_ms)
    : model_(&workload->kb(), llm::ModelProfile::ChatGpt(),
             &workload->catalog(), /*seed=*/7) {
  model_.set_wall_latency_ms(delay_ms);
}

LlmEndpoint::~LlmEndpoint() { Stop(); }

Status LlmEndpoint::Start() {
  GALOIS_RETURN_IF_ERROR(listener_.Bind("127.0.0.1", 0, 256));
  // Blocking accept: the kernel wakes exactly one waiting worker per
  // connection.
  const int flags = ::fcntl(listener_.fd(), F_GETFL);
  if (flags < 0 || ::fcntl(listener_.fd(), F_SETFL, flags & ~O_NONBLOCK) < 0) {
    listener_.Close();
    return Status::IoError("endpoint: cannot make the listener blocking");
  }
  stopping_.store(false);
  Reset();
  for (int i = 0; i < kWorkers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void LlmEndpoint::Stop() {
  if (workers_.empty()) return;
  stopping_.store(true);
  // Shutting a listening socket down fails every blocked accept().
  ::shutdown(listener_.fd(), SHUT_RDWR);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  listener_.Close();
}

llm::HttpLlmOptions LlmEndpoint::ClientOptions() const {
  llm::HttpLlmOptions options;
  options.host = "127.0.0.1";
  options.port = port();
  return options;
}

void LlmEndpoint::WorkerLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      Handle(fd);
    } else if (errno != EINTR && errno != ECONNABORTED) {
      return;  // the listener was shut down (or broke)
    }
  }
}

void LlmEndpoint::InFlightDelta(int delta) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(stats_mu_);
  in_flight_integral_ +=
      static_cast<double>(in_flight_) * static_cast<double>(now -
                                                            last_change_ns_);
  last_change_ns_ = now;
  in_flight_ += delta;
}

void LlmEndpoint::Reset() {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = EndpointStats();
  window_start_ns_ = now;
  last_change_ns_ = now;
  in_flight_integral_ = 0.0;
}

EndpointStats LlmEndpoint::Snapshot() const {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(stats_mu_);
  EndpointStats out = stats_;
  const double integral =
      in_flight_integral_ +
      static_cast<double>(in_flight_) * static_cast<double>(now -
                                                            last_change_ns_);
  const double window_ns = static_cast<double>(now - window_start_ns_);
  out.in_flight_mean = window_ns > 0 ? integral / window_ns : 0.0;
  return out;
}

Result<std::string> LlmEndpoint::Respond(const std::string& path,
                                         const std::string& body,
                                         int64_t* prompts,
                                         int64_t* key_scans) {
  GALOIS_ASSIGN_OR_RETURN(Json request, Json::Parse(body));
  if (path == "/v1/chat/completions") {
    GALOIS_ASSIGN_OR_RETURN(llm::Prompt prompt,
                            llm::ParseChatRequest(request));
    llm::CostMeter usage;
    GALOIS_ASSIGN_OR_RETURN(llm::Completion completion,
                            model_.CompleteMetered(prompt, &usage));
    llm::WireUsage wire;
    wire.prompt_tokens = usage.prompt_tokens;
    wire.completion_tokens = usage.completion_tokens;
    wire.latency_ms = usage.simulated_latency_ms;
    *prompts = 1;
    *key_scans = std::holds_alternative<llm::KeyScanIntent>(prompt.intent);
    return llm::BuildChatResponse(model_.name(), completion, wire).Dump();
  }
  if (path == "/v1/batch_completions") {
    GALOIS_ASSIGN_OR_RETURN(std::vector<llm::Prompt> batch,
                            llm::ParseBatchRequest(request));
    llm::CostMeter usage;
    GALOIS_ASSIGN_OR_RETURN(std::vector<llm::Completion> completions,
                            model_.CompleteBatchMetered(batch, &usage));
    std::vector<llm::WireUsage> per_prompt(batch.size());
    std::vector<size_t> order(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      per_prompt[i].prompt_tokens = llm::CountTokens(batch[i].text);
      per_prompt[i].completion_tokens =
          llm::CountTokens(completions[i].text);
      order[i] = i;
      *key_scans += std::holds_alternative<llm::KeyScanIntent>(batch[i].intent);
    }
    *prompts = static_cast<int64_t>(batch.size());
    return llm::BuildBatchResponse(model_.name(), completions, per_prompt,
                                   usage.simulated_latency_ms, order)
        .Dump();
  }
  return Status::NotFound("endpoint: no handler for " + path);
}

void LlmEndpoint::Handle(int fd) {
  net::Fd conn(fd);
  Result<net::HttpRequestMessage> request =
      net::ReadHttpRequest(fd, net::NowMs() + kIoBudgetMs);
  if (!request.ok()) return;
  const int64_t start = NowNs();
  InFlightDelta(+1);
  int64_t prompts = 0;
  int64_t key_scans = 0;
  std::string reply;
  bool failed = false;
  if (request.value().method != "POST") {
    reply = net::BuildHttpResponse(405, "Method Not Allowed",
                                   ErrorBody("POST only"));
    failed = true;
  } else {
    Result<std::string> body =
        Respond(request.value().path, request.value().body, &prompts,
                &key_scans);
    if (body.ok()) {
      reply = net::BuildHttpResponse(200, "OK", body.value());
    } else {
      reply = net::BuildHttpResponse(400, "Bad Request",
                                     ErrorBody(body.status().message()));
      failed = true;
    }
  }
  const int64_t end = NowNs();
  InFlightDelta(-1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
    stats_.prompts += prompts;
    stats_.key_scan_prompts += key_scans;
    if (failed) ++stats_.errors;
    stats_.handling_us += static_cast<double>(end - start) / 1e3;
  }
  (void)net::SendAll(fd, reply, net::NowMs() + kIoBudgetMs);
}

}  // namespace perfbench
