#ifndef GALOIS_NET_GALOIS_SERVER_H_
#define GALOIS_NET_GALOIS_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "common/cancel.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace galois::net {

/// Tuning knobs of a GaloisServer.
struct ServerOptions {
  /// Listen address. Loopback by default — exposing an unauthenticated
  /// query daemon beyond the host is an explicit decision (0.0.0.0).
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port (read it back from port()).
  int port = 0;
  /// listen(2) backlog: connections the kernel may hold un-accepted.
  int accept_backlog = 64;

  /// Admission control (on top of the shared thread pool): queries
  /// executing concurrently across all connections. Further queries wait
  /// in a bounded queue; beyond that they are rejected with a retryable
  /// error instead of piling unbounded work onto the pool.
  int max_in_flight = 8;
  /// Queries allowed to wait for an execution slot; 0 = reject the
  /// moment max_in_flight is reached.
  int queue_capacity = 64;

  /// Server-side ceiling on any query's deadline; a client asking for
  /// more (or for none) gets this. 0 = no server-imposed deadline.
  int64_t default_deadline_ms = 0;
  /// Budget for writing one response / reading one frame's bytes once
  /// its first byte arrived.
  int64_t io_timeout_ms = 10000;
  /// Idle-poll slice of connection readers; bounds how stale the drain
  /// flag can be observed.
  int64_t idle_poll_ms = 100;
  /// Graceful-drain budget: in-flight queries get this long to finish
  /// before the server cancels them cooperatively (their connections
  /// then report kCancelled and close).
  int64_t drain_timeout_ms = 10000;
};

/// galoisd's core: a long-running multi-client TCP daemon serving one
/// galois::Database over the length-prefixed frame protocol
/// (net/frame.h, net/protocol.h). Embeddable — the galoisd binary
/// (tools/galoisd_main.cc) is a thin wrapper, and the e2e suite runs
/// servers in-process.
///
/// Shape (after ctdb's daemon/statistics split): one accept thread, one
/// thread per connection (each with its own Session — the facade's
/// intended one-session-per-client shape), a shared admission gate in
/// front of the shared thread pool, and a mutex-guarded statistics block
/// reported over the kStats endpoint.
///
/// Life cycle:
///   Start()    — bind + listen + accept loop; queries flow.
///   Shutdown() — graceful drain: stop accepting, reject queued
///                admissions, let in-flight queries finish (cancelling
///                them cooperatively after drain_timeout_ms), flush
///                every response, close connections, Sync() the
///                persistent store. Idempotent; also run by ~GaloisServer.
///
/// Hardening: the listener installs SIG_IGN for SIGPIPE (socket.h), all
/// writes use MSG_NOSIGNAL, and a client disconnecting mid-query only
/// costs the response write (counted in stats().responses_unsent) — the
/// daemon itself must survive any client behaviour.
class GaloisServer {
 public:
  /// `db` is borrowed and must outlive the server.
  GaloisServer(Database* db, ServerOptions options);
  ~GaloisServer();
  GaloisServer(const GaloisServer&) = delete;
  GaloisServer& operator=(const GaloisServer&) = delete;

  /// Binds and starts accepting. kIoError when the port is taken.
  Status Start();

  /// Graceful drain (see class comment). Blocks until every connection
  /// thread has exited and the store is flushed.
  void Shutdown();

  bool draining() const { return draining_.load(); }
  int port() const { return listener_.port(); }
  const ServerOptions& options() const { return options_; }

  /// Consistent snapshot of the live counters, spend and store shape.
  ServerStats stats() const;

 private:
  void AcceptLoop();
  void HandleConnection(Fd fd);
  /// Parses and executes one kQuery frame, writing the response.
  void ServeQuery(int fd, const std::string& payload);
  /// Parses and executes one kPartialQuery frame — one shard of a
  /// scatter-gathered query (GaloisExecutor::RunShard) — writing the
  /// kPartialResult (or kError) response. Shares the admission gate with
  /// full queries: a node's concurrency budget covers both kinds.
  void ServePartialQuery(int fd, const std::string& payload);
  /// Blocks until an execution slot is free (or rejection). On false,
  /// `*reject_reason` names why (queue full / draining).
  bool AdmitQuery(std::string* reject_reason);
  void ReleaseQuery();
  void ReapFinishedWorkers();
  /// Writes an error frame; failures are ignored (the client is gone).
  void WriteErrorFrame(int fd, const Status& status, bool retryable);
  ServerStats BuildStats() const;

  Database* db_;
  ServerOptions options_;
  Listener listener_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_ran_{false};
  std::thread accept_thread_;
  std::mutex shutdown_mu_;  // serialises concurrent Shutdown() calls

  // Per-connection threads, reaped by the accept loop (FakeLlmServer's
  // pattern): finished workers enqueue their id so a long-lived daemon
  // does not accumulate a joinable thread per historical connection.
  std::mutex workers_mu_;
  std::vector<std::thread> workers_;       // guarded by workers_mu_
  std::vector<std::thread::id> finished_;  // guarded by workers_mu_

  // Admission gate.
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  int in_flight_ = 0;  // guarded by admission_mu_
  int queued_ = 0;     // guarded by admission_mu_

  /// Parent token of every in-flight query: drain cancels through it
  /// when the timeout expires.
  CancelToken drain_kill_ = std::make_shared<CancelState>();

  // Statistics (ctdb_statistics-style counter block).
  mutable std::mutex stats_mu_;
  int64_t started_ms_ = 0;
  int64_t connections_accepted_ = 0;
  int64_t connections_active_ = 0;
  int64_t queries_started_ = 0;
  int64_t queries_ok_ = 0;
  int64_t queries_error_ = 0;
  int64_t queries_rejected_ = 0;
  int64_t responses_unsent_ = 0;
  int64_t partials_started_ = 0;
  int64_t partials_ok_ = 0;
  int64_t partials_error_ = 0;
  double total_wall_ms_ = 0.0;
  double max_wall_ms_ = 0.0;
  /// Every completed query's counters plus every served shard's.
  core::QueryCounters counters_;
};

}  // namespace galois::net

#endif  // GALOIS_NET_GALOIS_SERVER_H_
