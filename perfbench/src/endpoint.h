#ifndef PERFBENCH_ENDPOINT_H_
#define PERFBENCH_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "knowledge/workload.h"
#include "llm/http_llm.h"
#include "llm/simulated_llm.h"
#include "net/socket.h"

namespace perfbench {

/// Counters of the loopback LLM endpoint since the last Reset().
struct EndpointStats {
  int64_t requests = 0;       // HTTP round trips answered
  int64_t prompts = 0;        // prompts inside them
  int64_t key_scan_prompts = 0;  // key-scan pages among them
  int64_t errors = 0;         // requests answered with a non-200 status
  double handling_us = 0.0;   // summed request handling time (incl. delay)
  double in_flight_mean = 0;  // round trips in flight, time-weighted
};

/// The benchmark's stand-in for a hosted model: an OpenAI-compatible HTTP
/// endpoint on loopback, built from the library's own codecs, answering
/// from the simulated ChatGpt model (seed 7) after a fixed wall-clock
/// delay per round trip. Round trips are served concurrently by a pool of
/// worker threads and no lock is held across the model call, so the
/// endpoint never serialises what the client overlaps. Each worker blocks
/// in accept() itself, so the kernel hands a connection straight to one
/// idle worker: the endpoint adds one wake-up per round trip, not two —
/// it shares the machine with the system under test, and on a virtual
/// machine every wake-up can wait for the host.
class LlmEndpoint {
 public:
  /// `workload` must outlive the endpoint.
  LlmEndpoint(const galois::knowledge::SpiderLikeWorkload* workload,
              double delay_ms);
  ~LlmEndpoint();
  LlmEndpoint(const LlmEndpoint&) = delete;
  LlmEndpoint& operator=(const LlmEndpoint&) = delete;

  galois::Status Start();
  void Stop();

  int port() const { return listener_.port(); }
  double delay_ms() const { return model_.wall_latency_ms(); }

  /// Client options for an HttpLlm pointed at this endpoint.
  galois::llm::HttpLlmOptions ClientOptions() const;

  void Reset();
  EndpointStats Snapshot() const;

 private:
  void WorkerLoop();
  void Handle(int fd);
  galois::Result<std::string> Respond(const std::string& path,
                                      const std::string& body,
                                      int64_t* prompts, int64_t* key_scans);
  void InFlightDelta(int delta);

  galois::llm::SimulatedLlm model_;
  galois::net::Listener listener_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex stats_mu_;
  EndpointStats stats_;          // guarded by stats_mu_
  int in_flight_ = 0;            // guarded by stats_mu_
  int64_t window_start_ns_ = 0;  // guarded by stats_mu_
  int64_t last_change_ns_ = 0;   // guarded by stats_mu_
  double in_flight_integral_ = 0.0;  // ns-weighted, guarded by stats_mu_

  std::vector<std::thread> workers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ENDPOINT_H_
