#include "net/galois_client.h"

#include <chrono>
#include <thread>
#include <utility>

#include "net/frame.h"

namespace galois::net {

Result<GaloisClient> GaloisClient::Connect(ClientOptions options) {
  GALOIS_ASSIGN_OR_RETURN(
      Fd fd, ConnectTcp(options.host, options.port, options.connect_timeout_ms));
  return GaloisClient(std::move(options), std::move(fd));
}

Status GaloisClient::Reconnect() {
  for (int attempt = 0; attempt < options_.reconnect_attempts; ++attempt) {
    if (attempt > 0 && options_.reconnect_backoff_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.reconnect_backoff_ms));
    }
    Result<Fd> fd = ConnectTcp(options_.host, options_.port,
                               options_.connect_timeout_ms);
    if (fd.ok()) {
      fd_ = std::move(fd).value();
      ++stats_.reconnects;
      return Status::OK();
    }
    ++stats_.reconnect_failures;
  }
  return Status::IoError("galois_client: not connected (" +
                         std::to_string(options_.reconnect_attempts) +
                         " reconnect attempts failed)");
}

Result<Frame> GaloisClient::RoundTrip(FrameType type,
                                      const std::string& payload,
                                      int64_t extra_deadline_ms) {
  if (!fd_.valid()) {
    // Heal a poisoned connection at call entry only: before any bytes of
    // this request are on the wire, retrying is unambiguous. A fault
    // after the request was sent stays fatal for this call — the server
    // may have executed it, and re-sending would double-execute.
    if (options_.reconnect_attempts <= 0) {
      return Status::IoError("galois_client: not connected");
    }
    GALOIS_RETURN_IF_ERROR(Reconnect());
  }
  int64_t write_deadline = NowMs() + options_.io_timeout_ms;
  Status sent = WriteFrame(fd_.get(), type, payload, write_deadline);
  if (!sent.ok()) {
    Close();
    return sent;
  }
  int64_t read_deadline =
      NowMs() + options_.io_timeout_ms + extra_deadline_ms;
  Result<Frame> reply = ReadFrame(fd_.get(), read_deadline);
  if (!reply.ok()) {
    Close();
    if (reply.status().code() == StatusCode::kNotFound) {
      // Orderly EOF where a response was owed — e.g. the daemon drained
      // and closed. Surface as a transport fault, not "not found".
      return Status::IoError(
          "galois_client: server closed the connection before responding");
    }
    return reply.status();
  }
  return reply;
}

Result<QueryResult> GaloisClient::Query(const std::string& sql,
                                        int64_t deadline_ms) {
  QueryRequest request;
  request.sql = sql;
  request.deadline_ms = deadline_ms;
  GALOIS_ASSIGN_OR_RETURN(
      Frame reply, RoundTrip(FrameType::kQuery,
                             QueryRequestToJson(request).Dump(), deadline_ms));
  if (reply.type == FrameType::kError) {
    GALOIS_ASSIGN_OR_RETURN(Json j, Json::Parse(reply.payload));
    Status s = StatusFromJson(j);
    if (s.ok()) {
      return Status::ParseError("galois_client: error frame carried OK status");
    }
    return s;
  }
  if (reply.type != FrameType::kQueryResult) {
    Close();
    return Status::ParseError(
        std::string("galois_client: expected QueryResult, got ") +
        FrameTypeName(reply.type));
  }
  return DecodeQueryResult(reply.payload);
}

Result<PartialQueryResponse> GaloisClient::PartialQuery(
    const PartialQueryRequest& request) {
  GALOIS_ASSIGN_OR_RETURN(
      Frame reply,
      RoundTrip(FrameType::kPartialQuery,
                PartialQueryRequestToJson(request).Dump(),
                request.deadline_ms));
  if (reply.type == FrameType::kError) {
    GALOIS_ASSIGN_OR_RETURN(Json j, Json::Parse(reply.payload));
    Status s = StatusFromJson(j);
    if (s.ok()) {
      return Status::ParseError("galois_client: error frame carried OK status");
    }
    return s;
  }
  if (reply.type != FrameType::kPartialResult) {
    Close();
    return Status::ParseError(
        std::string("galois_client: expected PartialResult, got ") +
        FrameTypeName(reply.type));
  }
  return DecodePartialQueryResponse(reply.payload);
}

Result<ServerStats> GaloisClient::Stats() {
  GALOIS_ASSIGN_OR_RETURN(Frame reply,
                          RoundTrip(FrameType::kStats, "", 0));
  if (reply.type == FrameType::kError) {
    GALOIS_ASSIGN_OR_RETURN(Json j, Json::Parse(reply.payload));
    Status s = StatusFromJson(j);
    if (s.ok()) {
      return Status::ParseError("galois_client: error frame carried OK status");
    }
    return s;
  }
  if (reply.type != FrameType::kStatsResult) {
    Close();
    return Status::ParseError(
        std::string("galois_client: expected StatsResult, got ") +
        FrameTypeName(reply.type));
  }
  GALOIS_ASSIGN_OR_RETURN(Json j, Json::Parse(reply.payload));
  return ServerStatsFromJson(j);
}

Status GaloisClient::Ping() {
  GALOIS_ASSIGN_OR_RETURN(Frame reply, RoundTrip(FrameType::kPing, "", 0));
  if (reply.type != FrameType::kPong) {
    Close();
    return Status::ParseError(
        std::string("galois_client: expected Pong, got ") +
        FrameTypeName(reply.type));
  }
  return Status::OK();
}

}  // namespace galois::net
