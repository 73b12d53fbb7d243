#include "net/galois_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/galois_executor.h"
#include "llm/http_llm.h"

namespace galois::net {

namespace {

/// How long the accept loop sleeps per poll slice; bounds both shutdown
/// latency and finished-worker reap latency.
constexpr int64_t kAcceptSliceMs = 50;

}  // namespace

GaloisServer::GaloisServer(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

GaloisServer::~GaloisServer() { Shutdown(); }

Status GaloisServer::Start() {
  GALOIS_RETURN_IF_ERROR(
      listener_.Bind(options_.host, options_.port, options_.accept_backlog));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    started_ms_ = NowMs();
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void GaloisServer::AcceptLoop() {
  while (!stopping_.load()) {
    Result<Fd> accepted = listener_.Accept(kAcceptSliceMs);
    ReapFinishedWorkers();
    if (!accepted.ok()) break;  // listener itself broke (or was closed)
    if (!accepted.value().valid()) continue;  // timeout slice
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++connections_accepted_;
      ++connections_active_;
    }
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers_.emplace_back(
        [this, fd = std::make_shared<Fd>(std::move(accepted.value()))]() mutable {
          HandleConnection(std::move(*fd));
          {
            std::lock_guard<std::mutex> slock(stats_mu_);
            --connections_active_;
          }
          std::lock_guard<std::mutex> wlock(workers_mu_);
          finished_.push_back(std::this_thread::get_id());
        });
  }
}

void GaloisServer::ReapFinishedWorkers() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    for (std::thread::id id : finished_) {
      for (auto it = workers_.begin(); it != workers_.end(); ++it) {
        if (it->get_id() == id) {
          done.push_back(std::move(*it));
          workers_.erase(it);
          break;
        }
      }
    }
    finished_.clear();
  }
  for (std::thread& t : done) t.join();
}

void GaloisServer::HandleConnection(Fd fd) {
  while (true) {
    // Idle wait in short slices so the drain flag is observed promptly;
    // only once bytes are pending does the io_timeout_ms budget start.
    if (!WaitReady(fd.get(), POLLIN, NowMs() + options_.idle_poll_ms)) {
      if (draining_.load()) return;
      continue;
    }
    Result<Frame> frame =
        ReadFrame(fd.get(), NowMs() + options_.io_timeout_ms);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kParseError) {
        // Deterministic protocol violation: tell the peer why, then hang
        // up — resynchronising a corrupt frame stream is impossible.
        WriteErrorFrame(fd.get(), frame.status(), /*retryable=*/false);
      }
      // kNotFound = orderly hang-up between requests; kIoError = the
      // peer vanished mid-frame. Either way this connection is done —
      // and only this connection.
      return;
    }
    switch (frame.value().type) {
      case FrameType::kPing: {
        Status s = WriteFrame(fd.get(), FrameType::kPong, "",
                              NowMs() + options_.io_timeout_ms);
        if (!s.ok()) return;
        break;
      }
      case FrameType::kStats: {
        std::string payload = ServerStatsToJson(BuildStats()).Dump();
        Status s = WriteFrame(fd.get(), FrameType::kStatsResult, payload,
                              NowMs() + options_.io_timeout_ms);
        if (!s.ok()) return;
        break;
      }
      case FrameType::kQuery:
        ServeQuery(fd.get(), frame.value().payload);
        // ServeQuery reports per-query failures in-band; a dead client
        // surfaces on the next read.
        break;
      case FrameType::kPartialQuery:
        ServePartialQuery(fd.get(), frame.value().payload);
        break;
      default:
        // Server-to-client frame types arriving at the server: protocol
        // violation.
        WriteErrorFrame(
            fd.get(),
            Status::ParseError(
                std::string("galoisd: unexpected frame type ") +
                FrameTypeName(frame.value().type)),
            /*retryable=*/false);
        return;
    }
  }
}

void GaloisServer::ServeQuery(int fd, const std::string& payload) {
  Result<Json> parsed = Json::Parse(payload);
  Result<QueryRequest> request =
      parsed.ok() ? QueryRequestFromJson(parsed.value())
                  : Result<QueryRequest>(parsed.status());
  if (!request.ok()) {
    WriteErrorFrame(fd, request.status(), /*retryable=*/false);
    return;
  }

  std::string reject_reason;
  if (!AdmitQuery(&reject_reason)) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++queries_rejected_;
    }
    // Rejections are retryable by construction: the same query succeeds
    // once load subsides (or against a drained server's replacement).
    WriteErrorFrame(fd, Status::ExecutionError(reject_reason),
                    /*retryable=*/true);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++queries_started_;
  }

  // Per-query token, chained onto the drain-kill parent so Shutdown()
  // can cancel overstaying queries cooperatively. The effective deadline
  // is the client's ask clamped by the server-side ceiling.
  CancelToken control = std::make_shared<CancelState>(drain_kill_);
  int64_t deadline = request.value().deadline_ms;
  if (options_.default_deadline_ms > 0) {
    deadline = deadline > 0
                   ? std::min(deadline, options_.default_deadline_ms)
                   : options_.default_deadline_ms;
  }
  if (deadline > 0) control->ArmDeadline(deadline);

  Session session = db_->CreateSession();
  Result<QueryResult> result = session.Query(request.value().sql, control);
  ReleaseQuery();

  Status write_status;
  if (result.ok()) {
    const QueryResult& qr = result.value();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++queries_ok_;
      total_wall_ms_ += qr.wall_ms;
      max_wall_ms_ = std::max(max_wall_ms_, qr.wall_ms);
      counters_ += qr;
    }
    write_status = WriteFrame(fd, FrameType::kQueryResult,
                              EncodeQueryResult(qr),
                              NowMs() + options_.io_timeout_ms);
  } else {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++queries_error_;
    }
    // Preserve the engine's own retryability classification across the
    // wire (the marker rides in the message; the flag makes it explicit).
    WriteErrorFrame(fd, result.status(),
                    llm::IsRetryableLlmError(result.status()));
    return;
  }
  if (!write_status.ok()) {
    // The query ran (and billed); the client just never saw the answer.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++responses_unsent_;
  }
}

void GaloisServer::ServePartialQuery(int fd, const std::string& payload) {
  Result<Json> parsed = Json::Parse(payload);
  Result<PartialQueryRequest> request =
      parsed.ok() ? PartialQueryRequestFromJson(parsed.value())
                  : Result<PartialQueryRequest>(parsed.status());
  if (!request.ok()) {
    WriteErrorFrame(fd, request.status(), /*retryable=*/false);
    return;
  }

  std::string reject_reason;
  if (!AdmitQuery(&reject_reason)) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++queries_rejected_;
    }
    WriteErrorFrame(fd, Status::ExecutionError(reject_reason),
                    /*retryable=*/true);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++partials_started_;
  }

  CancelToken control = std::make_shared<CancelState>(drain_kill_);
  int64_t deadline = request.value().deadline_ms;
  if (options_.default_deadline_ms > 0) {
    deadline = deadline > 0
                   ? std::min(deadline, options_.default_deadline_ms)
                   : options_.default_deadline_ms;
  }
  if (deadline > 0) control->ArmDeadline(deadline);

  // Shards execute under the node's own default options (the remote
  // execution contract: options do not travel), through the node's
  // materialisation cache and key-scan lengths, billing through a
  // per-shard CostTap so the response meter is exactly this shard's spend.
  core::ExecutionOptions snapshot = db_->default_options();
  snapshot.control = control;

  const core::ShardRequest& shard = request.value();
  Result<core::QueryOutput> out =
      db_->Executor(std::move(snapshot)).RunShard(shard);
  ReleaseQuery();

  if (!out.ok()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++partials_error_;
    }
    WriteErrorFrame(fd, out.status(),
                    llm::IsRetryableLlmError(out.status()));
    return;
  }

  PartialQueryResponse response;
  response.table = shard.table;
  response.alias = shard.alias;
  response.relation = std::move(out.value().relation);
  response.cost = out.value().cost;
  static_cast<core::QueryCounters&>(response) = out.value();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++partials_ok_;
    counters_ += response;
  }
  Status write_status =
      WriteFrame(fd, FrameType::kPartialResult,
                 EncodePartialQueryResponse(response),
                 NowMs() + options_.io_timeout_ms);
  if (!write_status.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++responses_unsent_;
  }
}

bool GaloisServer::AdmitQuery(std::string* reject_reason) {
  std::unique_lock<std::mutex> lock(admission_mu_);
  if (draining_.load()) {
    *reject_reason = "galoisd: draining, not accepting queries";
    return false;
  }
  if (in_flight_ < options_.max_in_flight) {
    ++in_flight_;
    return true;
  }
  if (queued_ >= options_.queue_capacity) {
    *reject_reason = "galoisd: overloaded (" +
                     std::to_string(in_flight_) + " in flight, " +
                     std::to_string(queued_) + " queued)";
    return false;
  }
  ++queued_;
  admission_cv_.wait(lock, [this] {
    return in_flight_ < options_.max_in_flight || draining_.load();
  });
  --queued_;
  if (draining_.load()) {
    *reject_reason = "galoisd: draining, not accepting queries";
    return false;
  }
  ++in_flight_;
  return true;
}

void GaloisServer::ReleaseQuery() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --in_flight_;
  }
  admission_cv_.notify_one();
}

void GaloisServer::WriteErrorFrame(int fd, const Status& status,
                                   bool retryable) {
  std::string payload = StatusToJson(status, retryable).Dump();
  (void)WriteFrame(fd, FrameType::kError, payload,
                   NowMs() + options_.io_timeout_ms);
}

void GaloisServer::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shutdown_ran_.load()) return;
  shutdown_ran_.store(true);

  // 1. Refuse new work: queued admissions reject, connection readers
  //    exit at their next idle slice, the accept loop stops.
  draining_.store(true);
  admission_cv_.notify_all();
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();

  // 2. Let in-flight queries finish; past the drain budget, cancel them
  //    cooperatively through the shared parent token (they surface as
  //    kCancelled to their clients, which is still a flushed response).
  std::mutex watchdog_mu;
  std::condition_variable watchdog_cv;
  bool drained = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(watchdog_mu);
    watchdog_cv.wait_for(lock,
                         std::chrono::milliseconds(options_.drain_timeout_ms),
                         [&] { return drained; });
    if (!drained) drain_kill_->RequestCancel();
  });

  // 3. Join every connection thread — this is what "in-flight queries
  //    finish and responses flush" means operationally.
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers.swap(workers_);
    finished_.clear();
  }
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mu);
    drained = true;
  }
  watchdog_cv.notify_all();
  watchdog.join();

  // 4. Flush the persistent store so a restarted daemon warm-starts from
  //    everything this one paid for.
  if (db_ != nullptr && db_->store() != nullptr) {
    (void)db_->store()->Sync();
  }
}

ServerStats GaloisServer::BuildStats() const { return stats(); }

ServerStats GaloisServer::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.uptime_ms = started_ms_ > 0 ? NowMs() - started_ms_ : 0;
    s.uptime_s = s.uptime_ms / 1000;
    s.connections_accepted = connections_accepted_;
    s.connections_active = connections_active_;
    s.active_connections = connections_active_;
    s.queries_started = queries_started_;
    s.queries_ok = queries_ok_;
    s.queries_error = queries_error_;
    s.queries_rejected = queries_rejected_;
    s.responses_unsent = responses_unsent_;
    s.partials_started = partials_started_;
    s.partials_ok = partials_ok_;
    s.partials_error = partials_error_;
    s.total_wall_ms = total_wall_ms_;
    s.max_wall_ms = max_wall_ms_;
    static_cast<core::QueryCounters&>(s) = counters_;
  }
  s.draining = draining_.load();
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    s.in_flight = in_flight_;
    s.queued = queued_;
  }
  if (s.uptime_ms > 0) {
    s.queries_per_sec =
        static_cast<double>(s.queries_ok) /
        (static_cast<double>(s.uptime_ms) / 1000.0);
  }
  if (db_ != nullptr && db_->model() != nullptr) {
    s.spend = db_->model()->cost();
  }
  if (db_ != nullptr && db_->store() != nullptr) {
    store::StoreStats st = db_->store()->stats();
    s.store_attached = true;
    s.store_file_bytes = static_cast<int64_t>(st.file_bytes);
    s.store_live_materialisations =
        static_cast<int64_t>(st.live_materialisations);
    s.store_live_prompts = static_cast<int64_t>(st.live_prompts);
  }
  return s;
}

}  // namespace galois::net
