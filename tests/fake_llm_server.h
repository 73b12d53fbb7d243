#ifndef GALOIS_TESTS_FAKE_LLM_SERVER_H_
#define GALOIS_TESTS_FAKE_LLM_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "llm/http_llm.h"
#include "llm/language_model.h"
#include "net/socket.h"

namespace galois::tests {

/// In-process HTTP server speaking the HttpLlm wire protocol, answering
/// from a backing LanguageModel (normally a SimulatedLlm) — the hermetic
/// stand-in for a provider API. The whole transport/resilience stack is
/// exercised over real loopback sockets in CTest with no network and no
/// live service.
///
/// Fault injection: a FIFO schedule of scripted faults (429 bursts with
/// Retry-After, 500s, stalls that trip the client timeout, malformed and
/// truncated JSON, early connection drops) is consumed one fault per
/// incoming request, before the backing model is consulted; a periodic
/// fault can poison every Nth request for sustained-degradation runs.
/// Batch replies can additionally be emitted in reversed index order to
/// prove the client reassembles by index.
///
/// Cost fidelity: the server ships the usage the backing model reports
/// for each request (tokens + modelled latency, from its metered calls)
/// in the response, so an HttpLlm pointed at this server bills the same
/// meter as calling the backing model in-process — the e2e equivalence
/// the acceptance test checks. Backing calls are serialised, because a
/// test may back the server with a model that is not thread-safe; the
/// serialisation only covers the answer computation (sub-microsecond for
/// SimulatedLlm), and connections are still handled concurrently, one
/// thread per connection.
class FakeLlmServer {
 public:
  enum class FaultKind {
    k429,            // 429 Too Many Requests (+ Retry-After-Ms)
    k500,            // 500 Internal Server Error
    kStall,          // hold the connection silently for stall_ms, then drop
    kMalformedJson,  // 200 whose body is not valid JSON
    kTruncatedBody,  // 200 advertising more bytes than it sends
    kCloseEarly,     // drop the connection before any response bytes
  };

  struct Fault {
    FaultKind kind = FaultKind::k500;
    int64_t retry_after_ms = -1;  // k429: value for Retry-After-Ms
    int64_t stall_ms = 200;       // kStall: how long to sit silent
  };

  struct Options {
    /// Emit batch completions in reversed index order (out-of-order
    /// replies are legal in the protocol; the client must reassemble).
    bool shuffle_batch_replies = false;
    /// When > 0, every Nth request (1-based count) is served the
    /// `periodic_fault` instead of an answer — a sustained 429-burst /
    /// flaky-backend pattern that outlives any finite FIFO schedule.
    int fault_every_n = 0;
    Fault periodic_fault;
  };

  explicit FakeLlmServer(llm::LanguageModel* backing);
  FakeLlmServer(llm::LanguageModel* backing, Options options);
  ~FakeLlmServer();

  FakeLlmServer(const FakeLlmServer&) = delete;
  FakeLlmServer& operator=(const FakeLlmServer&) = delete;

  /// Binds 127.0.0.1 on an ephemeral port and starts the accept loop.
  Status Start();
  /// Stops accepting, joins every connection thread. Idempotent.
  void Stop();

  int port() const { return port_; }
  std::string host() const { return "127.0.0.1"; }

  /// Ready-made client options pointing at this server. The display name
  /// defaults to the backing model's, so meters and by_model attribution
  /// line up with an in-process run.
  llm::HttpLlmOptions ClientOptions(std::string display_name = "") const;

  /// Queues one scripted fault (FIFO, one per incoming request).
  void PushFault(Fault fault);
  /// Queues `count` copies of `fault`.
  void PushFaults(Fault fault, int count);
  size_t pending_faults() const;

  int64_t requests_seen() const { return requests_seen_.load(); }
  int64_t faults_injected() const { return faults_injected_.load(); }
  int64_t completions_served() const { return completions_served_.load(); }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  /// Builds the 200 response body for `path`, or an error status that is
  /// reported as HTTP 400 (client-side: non-retryable).
  Result<std::string> Respond(const std::string& path,
                              const std::string& body);
  bool NextFault(Fault* fault, int64_t request_number);

  llm::LanguageModel* backing_;
  Options options_;

  net::Listener listener_;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  // Per-connection threads. Finished workers are reaped by the accept
  // loop (they enqueue their id in finished_), so a long-lived server
  // does not accumulate one joinable-thread stack per connection; Stop()
  // joins whatever remains.
  std::mutex workers_mu_;
  std::vector<std::thread> workers_;        // guarded by workers_mu_
  std::vector<std::thread::id> finished_;   // guarded by workers_mu_

  void ReapFinishedWorkers();

  mutable std::mutex faults_mu_;
  std::deque<Fault> faults_;  // guarded by faults_mu_

  // Serialises backing calls: the backing model may not be thread-safe.
  std::mutex backing_mu_;

  std::atomic<int64_t> requests_seen_{0};
  std::atomic<int64_t> faults_injected_{0};
  std::atomic<int64_t> completions_served_{0};
};

}  // namespace galois::tests

#endif  // GALOIS_TESTS_FAKE_LLM_SERVER_H_
