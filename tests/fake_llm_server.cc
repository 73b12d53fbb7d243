#include "tests/fake_llm_server.h"

#include <algorithm>
#include <chrono>

#include "common/json.h"
#include "llm/prompt_json.h"
#include "net/http.h"

namespace galois::tests {

namespace {

using llm::Completion;
using llm::CostMeter;
using llm::Prompt;
using llm::WireUsage;

/// Hard ceiling for reading one request / writing one response; requests
/// slower than this are dropped, which the client classifies as a
/// retryable transport fault.
constexpr int64_t kRequestIoBudgetMs = 10000;

/// Writes `data` best-effort: a client that hung up mid-response is its
/// own problem (the fault-injection schedules do exactly that).
void SendAll(int fd, const std::string& data) {
  (void)net::SendAll(fd, data, net::NowMs() + kRequestIoBudgetMs);
}

std::string HttpMessage(int code, const std::string& reason,
                        const std::string& body,
                        const std::string& extra_headers = "",
                        int64_t advertised_length = -1) {
  return net::BuildHttpResponse(code, reason, body, extra_headers,
                                advertised_length);
}

std::string ErrorBody(const std::string& message) {
  Json error = Json::Object();
  error.Set("message", Json::String(message));
  Json j = Json::Object();
  j.Set("error", std::move(error));
  return j.Dump();
}

}  // namespace

FakeLlmServer::FakeLlmServer(llm::LanguageModel* backing)
    : FakeLlmServer(backing, Options()) {}

FakeLlmServer::FakeLlmServer(llm::LanguageModel* backing, Options options)
    : backing_(backing), options_(options) {}

FakeLlmServer::~FakeLlmServer() { Stop(); }

Status FakeLlmServer::Start() {
  GALOIS_RETURN_IF_ERROR(listener_.Bind("127.0.0.1", 0, 64));
  port_ = listener_.port();
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FakeLlmServer::Stop() {
  if (!listener_.listening() && !accept_thread_.joinable()) return;
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers.swap(workers_);
  }
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(workers_mu_);
  finished_.clear();
}

llm::HttpLlmOptions FakeLlmServer::ClientOptions(
    std::string display_name) const {
  llm::HttpLlmOptions options;
  options.host = host();
  options.port = port_;
  options.wire_model = backing_->name();
  options.display_name =
      display_name.empty() ? backing_->name() : std::move(display_name);
  return options;
}

void FakeLlmServer::PushFault(Fault fault) {
  std::lock_guard<std::mutex> lock(faults_mu_);
  faults_.push_back(fault);
}

void FakeLlmServer::PushFaults(Fault fault, int count) {
  std::lock_guard<std::mutex> lock(faults_mu_);
  for (int i = 0; i < count; ++i) faults_.push_back(fault);
}

size_t FakeLlmServer::pending_faults() const {
  std::lock_guard<std::mutex> lock(faults_mu_);
  return faults_.size();
}

bool FakeLlmServer::NextFault(Fault* fault, int64_t request_number) {
  {
    std::lock_guard<std::mutex> lock(faults_mu_);
    if (!faults_.empty()) {
      *fault = faults_.front();
      faults_.pop_front();
      return true;
    }
  }
  if (options_.fault_every_n > 0 &&
      request_number % options_.fault_every_n == 0) {
    *fault = options_.periodic_fault;
    return true;
  }
  return false;
}

void FakeLlmServer::ReapFinishedWorkers() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    for (auto it = workers_.begin();
         it != workers_.end() && !finished_.empty();) {
      auto fin = std::find(finished_.begin(), finished_.end(),
                           it->get_id());
      if (fin != finished_.end()) {
        finished_.erase(fin);
        done.push_back(std::move(*it));
        it = workers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& t : done) t.join();  // finished: joins immediately
}

void FakeLlmServer::AcceptLoop() {
  while (!stopping_.load()) {
    Result<net::Fd> accepted = listener_.Accept(50);
    ReapFinishedWorkers();
    if (!accepted.ok()) continue;
    if (!accepted.value().valid()) continue;  // timeout slice
    int fd = accepted.value().release();
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers_.emplace_back([this, fd] {
      HandleConnection(fd);
      std::lock_guard<std::mutex> inner(workers_mu_);
      finished_.push_back(std::this_thread::get_id());
    });
  }
}

Result<std::string> FakeLlmServer::Respond(const std::string& path,
                                           const std::string& body) {
  GALOIS_ASSIGN_OR_RETURN(Json request, Json::Parse(body));
  if (path == "/v1/chat/completions") {
    GALOIS_ASSIGN_OR_RETURN(Prompt prompt, llm::ParseChatRequest(request));
    // The backing model's usage report for this request is its wire
    // usage — what makes loopback CostMeters byte-equal to in-process
    // ones.
    CostMeter delta;
    std::unique_lock<std::mutex> lock(backing_mu_);
    Result<Completion> completion = backing_->CompleteMetered(prompt, &delta);
    lock.unlock();
    GALOIS_RETURN_IF_ERROR(completion.status());
    WireUsage usage;
    usage.prompt_tokens = delta.prompt_tokens;
    usage.completion_tokens = delta.completion_tokens;
    usage.latency_ms = delta.simulated_latency_ms;
    completions_served_.fetch_add(1);
    return llm::BuildChatResponse(backing_->name(), completion.value(),
                                  usage)
        .Dump();
  }
  if (path == "/v1/batch_completions") {
    GALOIS_ASSIGN_OR_RETURN(std::vector<Prompt> prompts,
                            llm::ParseBatchRequest(request));
    CostMeter delta;
    std::unique_lock<std::mutex> lock(backing_mu_);
    Result<std::vector<Completion>> completions =
        backing_->CompleteBatchMetered(prompts, &delta);
    lock.unlock();
    GALOIS_RETURN_IF_ERROR(completions.status());
    std::vector<WireUsage> per_prompt(prompts.size());
    for (size_t i = 0; i < prompts.size(); ++i) {
      per_prompt[i].prompt_tokens = llm::CountTokens(prompts[i].text);
      per_prompt[i].completion_tokens =
          llm::CountTokens(completions.value()[i].text);
    }
    std::vector<size_t> emit_order(prompts.size());
    for (size_t i = 0; i < prompts.size(); ++i) {
      emit_order[i] =
          options_.shuffle_batch_replies ? prompts.size() - 1 - i : i;
    }
    completions_served_.fetch_add(static_cast<int64_t>(prompts.size()));
    return llm::BuildBatchResponse(backing_->name(), completions.value(),
                                   per_prompt, delta.simulated_latency_ms,
                                   emit_order)
        .Dump();
  }
  return Status::NotFound("fake server: no handler for " + path);
}

void FakeLlmServer::HandleConnection(int fd) {
  // RAII ownership: every return path below closes the socket.
  net::Fd conn(fd);
  Result<net::HttpRequestMessage> request =
      net::ReadHttpRequest(fd, net::NowMs() + kRequestIoBudgetMs);
  if (!request.ok()) return;
  const std::string& method = request.value().method;
  const std::string& path = request.value().path;
  const std::string& body = request.value().body;
  const int64_t request_number = requests_seen_.fetch_add(1) + 1;

  Fault fault;
  if (NextFault(&fault, request_number)) {
    faults_injected_.fetch_add(1);
    switch (fault.kind) {
      case FaultKind::k429: {
        std::string extra;
        if (fault.retry_after_ms >= 0) {
          extra = "Retry-After-Ms: " + std::to_string(fault.retry_after_ms) +
                  "\r\n";
        }
        SendAll(fd, HttpMessage(429, "Too Many Requests",
                                ErrorBody("rate limit exceeded"), extra));
        break;
      }
      case FaultKind::k500:
        SendAll(fd, HttpMessage(500, "Internal Server Error",
                                ErrorBody("backend exploded")));
        break;
      case FaultKind::kStall:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(fault.stall_ms));
        break;  // then close without a byte — client times out / sees EOF
      case FaultKind::kMalformedJson:
        SendAll(fd, HttpMessage(200, "OK", "{\"choices\":[{\"mess"));
        break;
      case FaultKind::kTruncatedBody: {
        const std::string partial = "{\"choices\":[";
        SendAll(fd, HttpMessage(200, "OK", partial, "",
                                /*advertised_length=*/4096));
        break;
      }
      case FaultKind::kCloseEarly:
        break;  // just close
    }
    return;
  }

  if (method != "POST") {
    SendAll(fd, HttpMessage(405, "Method Not Allowed",
                            ErrorBody("POST only")));
    return;
  }
  Result<std::string> response = Respond(path, body);
  if (!response.ok()) {
    SendAll(fd, HttpMessage(400, "Bad Request",
                            ErrorBody(response.status().message())));
  } else {
    SendAll(fd, HttpMessage(200, "OK", response.value()));
  }
}

}  // namespace galois::tests
