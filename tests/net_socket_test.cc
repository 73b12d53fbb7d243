// Unit suite for the shared socket layer (src/net/): partial IO, EINTR
// storms via the injectable syscall shim, deadline expiry mid-read,
// Content-Length validation, frame codec rejections and SIGPIPE
// hardening. Everything runs over socketpairs or loopback sockets —
// hermetic, no network.

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include <random>

#include "gtest/gtest.h"
#include "net/frame.h"
#include "net/http.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace galois::net {
namespace {

/// A connected AF_UNIX stream pair; [0] and [1] are both blocking.
struct SocketPair {
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    a.reset(fds[0]);
    b.reset(fds[1]);
  }
  Fd a, b;
};

int64_t Soon() { return NowMs() + 2000; }

// ---------------------------------------------------------------------------
// Content-Length validation (the strtoll bugfix).

TEST(ParseContentLengthTest, AcceptsPlainDigits) {
  auto r = ParseContentLength("1234");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(1234, r.value());
}

TEST(ParseContentLengthTest, AcceptsSurroundingWhitespace) {
  auto r = ParseContentLength("  42  ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(42, r.value());
}

TEST(ParseContentLengthTest, AcceptsZero) {
  auto r = ParseContentLength("0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(0, r.value());
}

TEST(ParseContentLengthTest, RejectsEmpty) {
  EXPECT_EQ(StatusCode::kParseError, ParseContentLength("").status().code());
  EXPECT_EQ(StatusCode::kParseError,
            ParseContentLength("   ").status().code());
}

TEST(ParseContentLengthTest, RejectsTrailingJunk) {
  // std::strtoll would have parsed these as 12 / 0 and carried on.
  EXPECT_EQ(StatusCode::kParseError,
            ParseContentLength("12abc").status().code());
  EXPECT_EQ(StatusCode::kParseError,
            ParseContentLength("abc").status().code());
  EXPECT_EQ(StatusCode::kParseError,
            ParseContentLength("1 2").status().code());
}

TEST(ParseContentLengthTest, RejectsSignsAndNegatives) {
  EXPECT_EQ(StatusCode::kParseError, ParseContentLength("-5").status().code());
  EXPECT_EQ(StatusCode::kParseError, ParseContentLength("+5").status().code());
}

TEST(ParseContentLengthTest, RejectsOverCapAndOverflow) {
  EXPECT_EQ(StatusCode::kParseError,
            ParseContentLength(std::to_string(kMaxHttpBody + 1)).status().code());
  // A value that would overflow int64 must be caught by the running cap
  // check, not wrap around into something plausible.
  EXPECT_EQ(StatusCode::kParseError,
            ParseContentLength("99999999999999999999999999").status().code());
  // At the cap exactly: fine.
  auto r = ParseContentLength(std::to_string(kMaxHttpBody));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(kMaxHttpBody, r.value());
}

// ---------------------------------------------------------------------------
// Frame header codec (pure functions).

TEST(FrameCodecTest, HeaderRoundTrip) {
  std::string header = EncodeFrameHeader(FrameType::kQuery, 1234);
  ASSERT_EQ(kFrameHeaderSize, header.size());
  int64_t payload_size = 0;
  auto decoded = DecodeFrameHeader(header, &payload_size);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(FrameType::kQuery, decoded.value().type);
  EXPECT_EQ(1234, payload_size);
}

TEST(FrameCodecTest, RejectsBadMagic) {
  std::string header = EncodeFrameHeader(FrameType::kPing, 0);
  header[0] = 'X';
  int64_t n = 0;
  EXPECT_EQ(StatusCode::kParseError,
            DecodeFrameHeader(header, &n).status().code());
}

TEST(FrameCodecTest, RejectsBadVersion) {
  std::string header = EncodeFrameHeader(FrameType::kPing, 0);
  header[4] = static_cast<char>(kFrameVersion + 1);
  int64_t n = 0;
  EXPECT_EQ(StatusCode::kParseError,
            DecodeFrameHeader(header, &n).status().code());
}

TEST(FrameCodecTest, RejectsUnknownType) {
  std::string header = EncodeFrameHeader(FrameType::kPing, 0);
  header[5] = 99;
  int64_t n = 0;
  EXPECT_EQ(StatusCode::kParseError,
            DecodeFrameHeader(header, &n).status().code());
}

TEST(FrameCodecTest, RejectsReservedBits) {
  std::string header = EncodeFrameHeader(FrameType::kPing, 0);
  header[6] = 1;
  int64_t n = 0;
  EXPECT_EQ(StatusCode::kParseError,
            DecodeFrameHeader(header, &n).status().code());
}

TEST(FrameCodecTest, RejectsOversizedLength) {
  // A hostile length field must be rejected before any allocation.
  std::string header = EncodeFrameHeader(FrameType::kPing, 0);
  header[8] = '\xff';
  header[9] = '\xff';
  header[10] = '\xff';
  header[11] = '\x7f';
  int64_t n = 0;
  EXPECT_EQ(StatusCode::kParseError,
            DecodeFrameHeader(header, &n).status().code());
}

// ---------------------------------------------------------------------------
// Frame IO over a socketpair.

TEST(FrameIoTest, RoundTrip) {
  SocketPair pair;
  std::string payload = "{\"sql\":\"SELECT 1\"}";
  ASSERT_TRUE(
      WriteFrame(pair.a.get(), FrameType::kQuery, payload, Soon()).ok());
  auto frame = ReadFrame(pair.b.get(), Soon());
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(FrameType::kQuery, frame.value().type);
  EXPECT_EQ(payload, frame.value().payload);
}

TEST(FrameIoTest, EmptyPayloadRoundTrip) {
  SocketPair pair;
  ASSERT_TRUE(WriteFrame(pair.a.get(), FrameType::kPing, "", Soon()).ok());
  auto frame = ReadFrame(pair.b.get(), Soon());
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(FrameType::kPing, frame.value().type);
  EXPECT_TRUE(frame.value().payload.empty());
}

TEST(FrameIoTest, OrderlyEofBetweenFramesIsNotFound) {
  SocketPair pair;
  pair.a.reset();  // peer hangs up without sending anything
  auto frame = ReadFrame(pair.b.get(), Soon());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kNotFound, frame.status().code());
}

TEST(FrameIoTest, EofMidHeaderIsIoError) {
  SocketPair pair;
  std::string header = EncodeFrameHeader(FrameType::kQuery, 100);
  ASSERT_TRUE(SendAll(pair.a.get(), header.substr(0, 5), Soon()).ok());
  pair.a.reset();  // die 5 bytes into the 12-byte header
  auto frame = ReadFrame(pair.b.get(), Soon());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kIoError, frame.status().code());
}

TEST(FrameIoTest, EofMidPayloadIsIoErrorNamingShortfall) {
  SocketPair pair;
  std::string header = EncodeFrameHeader(FrameType::kQuery, 100);
  ASSERT_TRUE(SendAll(pair.a.get(), header + "only 20 bytes arrive", Soon())
                  .ok());
  pair.a.reset();
  auto frame = ReadFrame(pair.b.get(), Soon());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kIoError, frame.status().code());
  EXPECT_NE(std::string::npos, frame.status().message().find("of 100"))
      << frame.status();
}

TEST(FrameIoTest, GarbageHeaderIsParseError) {
  SocketPair pair;
  ASSERT_TRUE(SendAll(pair.a.get(), "GETP/not-a-frame", Soon()).ok());
  auto frame = ReadFrame(pair.b.get(), Soon());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kParseError, frame.status().code());
}

// ---------------------------------------------------------------------------
// Partial IO, EINTR storms, deadlines — via the syscall shim.

TEST(SyscallShimTest, SendAllRidesOutOneByteSends) {
  SocketPair pair;
  SyscallShim shim = SyscallShim::Default();
  int sends = 0;
  shim.send_fn = [&sends](int fd, const void* buf, size_t len) {
    ++sends;
    return ::send(fd, buf, len > 0 ? 1 : 0, MSG_NOSIGNAL);
  };
  const std::string data(257, 'x');
  // Drain concurrently: one-byte sends burn a whole skb of kernel buffer
  // accounting each, so an undrained socketpair back-pressures after a
  // few dozen bytes.
  std::string got;
  std::thread reader([&] {
    ASSERT_TRUE(RecvExactly(pair.b.get(), data.size(), &got, Soon()).ok());
  });
  ASSERT_TRUE(SendAll(pair.a.get(), data, Soon(), &shim).ok());
  reader.join();
  EXPECT_EQ(257, sends);
  EXPECT_EQ(data, got);
}

TEST(SyscallShimTest, RecvExactlyRidesOutEintrStorm) {
  SocketPair pair;
  const std::string data = "stormy weather";
  ASSERT_TRUE(SendAll(pair.a.get(), data, Soon()).ok());

  SyscallShim shim = SyscallShim::Default();
  int eintr_left = 25;
  shim.recv_fn = [&eintr_left](int fd, void* buf, size_t len) -> ssize_t {
    if (eintr_left > 0) {
      --eintr_left;
      errno = EINTR;
      return -1;
    }
    return ::recv(fd, buf, len, 0);
  };
  std::string got;
  ASSERT_TRUE(RecvExactly(pair.b.get(), data.size(), &got, Soon(), &shim).ok());
  EXPECT_EQ(data, got);
  EXPECT_EQ(0, eintr_left);
}

TEST(SyscallShimTest, PollEintrStormDoesNotTerminateWait) {
  SocketPair pair;
  SyscallShim shim = SyscallShim::Default();
  int eintr_left = 10;
  shim.poll_fn = [&eintr_left](struct pollfd* fds, nfds_t nfds,
                               int timeout_ms) -> int {
    if (eintr_left > 0) {
      --eintr_left;
      errno = EINTR;
      return -1;
    }
    return ::poll(fds, nfds, timeout_ms);
  };
  ASSERT_TRUE(SendAll(pair.a.get(), "ready", Soon()).ok());
  EXPECT_TRUE(WaitReady(pair.b.get(), POLLIN, Soon(), &shim));
  EXPECT_EQ(0, eintr_left);
}

TEST(SyscallShimTest, DeadlineExpiryMidReadIsIoError) {
  SocketPair pair;
  // Half a frame arrives; the rest never does. The read must give up at
  // the deadline with a timeout, not hang.
  std::string header = EncodeFrameHeader(FrameType::kQuery, 64);
  ASSERT_TRUE(SendAll(pair.a.get(), header, Soon()).ok());
  const int64_t t0 = NowMs();
  auto frame = ReadFrame(pair.b.get(), NowMs() + 150);
  const int64_t elapsed = NowMs() - t0;
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kIoError, frame.status().code());
  EXPECT_GE(elapsed, 100);
  EXPECT_LT(elapsed, 2000);
}

TEST(SyscallShimTest, RecvSomeReportsOrderlyEofAsZero) {
  SocketPair pair;
  pair.a.reset();
  char buf[16];
  auto n = RecvSome(pair.b.get(), buf, sizeof(buf), Soon());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(0u, n.value());
}

// ---------------------------------------------------------------------------
// SIGPIPE hardening: writing into a closed peer must surface as a status,
// never as a fatal signal.

TEST(SigpipeTest, SendToClosedPeerFailsGracefully) {
  IgnoreSigpipe();
  SocketPair pair;
  pair.b.reset();  // peer is gone
  // The first send may succeed into the buffer; keep writing until the
  // kernel notices the peer died. With SIG_DFL this would kill the
  // process; the suite surviving IS the assertion.
  Status status = Status::OK();
  for (int i = 0; i < 16 && status.ok(); ++i) {
    status = SendAll(pair.a.get(), std::string(4096, 'x'), Soon());
  }
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(StatusCode::kIoError, status.code());
}

TEST(SigpipeTest, RespectsApplicationHandler) {
  // IgnoreSigpipe must not clobber a non-default disposition. The
  // installer ran already (previous test / listener code), so this just
  // documents the observable end state: SIGPIPE is not SIG_DFL.
  struct sigaction current;
  std::memset(&current, 0, sizeof(current));
  ASSERT_EQ(0, ::sigaction(SIGPIPE, nullptr, &current));
  EXPECT_NE(SIG_DFL, current.sa_handler);
}

// ---------------------------------------------------------------------------
// HTTP message layer over socketpairs.

TEST(HttpMessageTest, PostRequestRoundTrip) {
  SocketPair pair;
  const std::string wire =
      BuildHttpPost("example:80", "/v1/chat/completions", "{\"a\":1}");
  ASSERT_TRUE(SendAll(pair.a.get(), wire, Soon()).ok());
  auto request = ReadHttpRequest(pair.b.get(), Soon());
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ("POST", request.value().method);
  EXPECT_EQ("/v1/chat/completions", request.value().path);
  EXPECT_EQ("{\"a\":1}", request.value().body);
}

TEST(HttpMessageTest, ResponseRoundTrip) {
  SocketPair pair;
  ASSERT_TRUE(
      SendAll(pair.a.get(), BuildHttpResponse(200, "OK", "{\"ok\":true}"),
              Soon())
          .ok());
  auto response = ReadHttpResponse(pair.b.get(), Soon());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(200, response.value().status_code);
  EXPECT_EQ("{\"ok\":true}", response.value().body);
}

TEST(HttpMessageTest, ResponseWithoutContentLengthReadsToEof) {
  SocketPair pair;
  ASSERT_TRUE(SendAll(pair.a.get(),
                      "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nhello",
                      Soon())
                  .ok());
  pair.a.reset();
  auto response = ReadHttpResponse(pair.b.get(), Soon());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ("hello", response.value().body);
}

TEST(HttpMessageTest, TruncatedBodyIsIoErrorNotParseError) {
  // The headline regression: a peer that advertises N bytes and dies
  // early is a *transport* fault (retryable upstream) — the short body
  // must never reach a JSON parser as a decode error.
  SocketPair pair;
  ASSERT_TRUE(SendAll(pair.a.get(),
                      BuildHttpResponse(200, "OK", "{\"choices\":[", "",
                                        /*advertised_length=*/4096),
                      Soon())
                  .ok());
  pair.a.reset();
  auto response = ReadHttpResponse(pair.b.get(), Soon());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(StatusCode::kIoError, response.status().code());
  EXPECT_NE(std::string::npos,
            response.status().message().find("truncated"))
      << response.status();
}

TEST(HttpMessageTest, GarbageContentLengthIsParseError) {
  SocketPair pair;
  ASSERT_TRUE(SendAll(pair.a.get(),
                      "HTTP/1.1 200 OK\r\nContent-Length: 12abc\r\n\r\nbody",
                      Soon())
                  .ok());
  auto response = ReadHttpResponse(pair.b.get(), Soon());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(StatusCode::kParseError, response.status().code());
}

TEST(HttpMessageTest, ClosedBeforeHeadersIsIoError) {
  SocketPair pair;
  ASSERT_TRUE(SendAll(pair.a.get(), "HTTP/1.1 200 OK\r\nConten", Soon()).ok());
  pair.a.reset();
  auto response = ReadHttpResponse(pair.b.get(), Soon());
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(StatusCode::kIoError, response.status().code());
}

// ---------------------------------------------------------------------------
// Listener + ConnectTcp over real loopback sockets.

TEST(ListenerTest, AcceptTimesOutWithInvalidFd) {
  Listener listener;
  ASSERT_TRUE(listener.Bind("127.0.0.1", 0, 4).ok());
  auto accepted = listener.Accept(50);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_FALSE(accepted.value().valid());
}

TEST(ListenerTest, ConnectAndExchange) {
  Listener listener;
  ASSERT_TRUE(listener.Bind("127.0.0.1", 0, 4).ok());
  auto client = ConnectTcp("127.0.0.1", listener.port(), 2000);
  ASSERT_TRUE(client.ok()) << client.status();
  auto server_side = listener.Accept(2000);
  ASSERT_TRUE(server_side.ok());
  ASSERT_TRUE(server_side.value().valid());

  ASSERT_TRUE(SendAll(client.value().get(), "over loopback", Soon()).ok());
  std::string got;
  ASSERT_TRUE(
      RecvExactly(server_side.value().get(), 13, &got, Soon()).ok());
  EXPECT_EQ("over loopback", got);
}

// ---------------------------------------------------------------------------
// Partial-query codec (the cluster scatter frames).

PartialQueryRequest SamplePartialRequest() {
  PartialQueryRequest request;
  request.sql = "SELECT c.name FROM LLM.country c WHERE c.GDP > 1000";
  request.table = "country";
  request.alias = "c";
  request.columns = {"name", "GDP"};
  // Descriptor bytes are binary (PredicateDescriptor::Encode output);
  // exercise the hex layer with every awkward byte class.
  request.descriptor = std::string("\x00\x01\x7f\x80\xff\"\\\n", 8);
  request.deadline_ms = 2500;
  return request;
}

TEST(PartialQueryCodecTest, RequestRoundTrip) {
  PartialQueryRequest request = SamplePartialRequest();
  auto parsed = Json::Parse(PartialQueryRequestToJson(request).Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto decoded = PartialQueryRequestFromJson(parsed.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(request.sql, decoded.value().sql);
  EXPECT_EQ(request.table, decoded.value().table);
  EXPECT_EQ(request.alias, decoded.value().alias);
  EXPECT_EQ(request.columns, decoded.value().columns);
  EXPECT_EQ(request.descriptor, decoded.value().descriptor);
  EXPECT_EQ(request.deadline_ms, decoded.value().deadline_ms);
}

TEST(PartialQueryCodecTest, RequestRejectsBadDescriptorHex) {
  PartialQueryRequest request = SamplePartialRequest();
  Json j = PartialQueryRequestToJson(request);
  j.Set("descriptor", Json::String("abc"));  // odd length
  EXPECT_EQ(StatusCode::kParseError,
            PartialQueryRequestFromJson(j).status().code());
  j.Set("descriptor", Json::String("zz"));  // not hex
  EXPECT_EQ(StatusCode::kParseError,
            PartialQueryRequestFromJson(j).status().code());
}

/// Gives the seven counters distinct primes, so a dropped or swapped
/// field cannot round-trip unnoticed.
void SetDistinctCounters(core::QueryCounters* c) {
  c->table_cache_lookups = 11;
  c->table_cache_hits = 13;
  c->table_cache_exact_hits = 17;
  c->table_cache_subsumption_hits = 19;
  c->table_cache_store_hits = 23;
  c->scan_pages_prefetched = 29;
  c->scan_pages_overfetched = 31;
}

void ExpectDistinctCounters(const core::QueryCounters& c, int64_t scale = 1) {
  EXPECT_EQ(11 * scale, c.table_cache_lookups);
  EXPECT_EQ(13 * scale, c.table_cache_hits);
  EXPECT_EQ(17 * scale, c.table_cache_exact_hits);
  EXPECT_EQ(19 * scale, c.table_cache_subsumption_hits);
  EXPECT_EQ(23 * scale, c.table_cache_store_hits);
  EXPECT_EQ(29 * scale, c.scan_pages_prefetched);
  EXPECT_EQ(31 * scale, c.scan_pages_overfetched);
}

TEST(PartialQueryCodecTest, ResponseRoundTrip) {
  PartialQueryResponse response;
  response.table = "country";
  response.alias = "c";
  Schema schema({Column("key", DataType::kString, "c"),
                 Column("GDP", DataType::kInt64, "c")});
  Relation rel(schema);
  rel.AddRowUnchecked({Value::String("France"), Value::Int(2780)});
  rel.AddRowUnchecked({Value::String("Japan"), Value::Int(4231)});
  response.relation = rel;
  response.cost.num_prompts = 7;
  response.cost.prompt_tokens = 120;
  response.cost.completion_tokens = 60;
  response.cost.simulated_latency_ms = 41.25;
  response.cost.by_model["gpt"].num_prompts = 7;
  response.cost.by_model["gpt"].prompt_tokens = 120;
  SetDistinctCounters(&response);
  auto parsed = Json::Parse(PartialQueryResponseToJson(response).Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto decoded = PartialQueryResponseFromJson(parsed.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(response.table, decoded.value().table);
  EXPECT_EQ(response.alias, decoded.value().alias);
  EXPECT_TRUE(response.relation.SameContents(decoded.value().relation));
  EXPECT_EQ(response.relation.ToCsv(), decoded.value().relation.ToCsv());
  EXPECT_EQ(response.cost.num_prompts, decoded.value().cost.num_prompts);
  EXPECT_EQ(response.cost.prompt_tokens, decoded.value().cost.prompt_tokens);
  EXPECT_EQ(response.cost.completion_tokens,
            decoded.value().cost.completion_tokens);
  EXPECT_DOUBLE_EQ(response.cost.simulated_latency_ms,
                   decoded.value().cost.simulated_latency_ms);
  ASSERT_EQ(1u, decoded.value().cost.by_model.size());
  EXPECT_TRUE(response.cost.by_model.at("gpt") ==
              decoded.value().cost.by_model.at("gpt"));
  ExpectDistinctCounters(decoded.value());
}

// ---------------------------------------------------------------------------
// The per-query counter block (core::QueryCounters) on every payload that
// carries it.

TEST(CounterCodecTest, PlusEqualsSumsEveryCounter) {
  core::QueryCounters c;
  SetDistinctCounters(&c);
  c += c;
  ExpectDistinctCounters(c, 2);
}

Relation SampleRelation() {
  Relation rel(Schema({Column("name", DataType::kString, "c"),
                       Column("GDP", DataType::kInt64, "c")}));
  rel.AddRowUnchecked({Value::String("France"), Value::Int(2780)});
  rel.AddRowUnchecked({Value::String("Japan"), Value::Null()});
  return rel;
}

llm::CostMeter SampleMeter() {
  llm::CostMeter meter;
  meter.num_prompts = 7;
  meter.prompt_tokens = 120;
  meter.completion_tokens = 60;
  meter.simulated_latency_ms = 41.25;
  meter.cache_hits = 2;
  meter.store_hits = 1;
  meter.num_batches = 3;
  meter.by_model["gpt"].num_prompts = 7;
  meter.by_model["gpt"].prompt_tokens = 120;
  return meter;
}

QueryResult SampleQueryResult() {
  QueryResult result;
  result.relation = SampleRelation();
  result.cost = SampleMeter();
  SetDistinctCounters(&result);
  result.physical_plan = "Project\n  Scan(country)\n";
  result.wall_ms = 3.5;
  return result;
}

PartialQueryResponse SamplePartialResponse() {
  PartialQueryResponse response;
  response.table = "country";
  response.alias = "c";
  response.relation = SampleRelation();
  response.cost = SampleMeter();
  SetDistinctCounters(&response);
  return response;
}

ServerStats SampleServerStats() {
  ServerStats stats;
  stats.uptime_ms = 4500;
  stats.uptime_s = 4;
  stats.draining = true;
  stats.connections_accepted = 3;
  stats.connections_active = 2;
  stats.active_connections = 2;
  stats.queries_started = 41;
  stats.queries_ok = 37;
  stats.queries_error = 1;
  stats.queries_rejected = 2;
  stats.responses_unsent = 1;
  stats.partials_started = 5;
  stats.partials_ok = 4;
  stats.partials_error = 1;
  stats.in_flight = 1;
  stats.queued = 0;
  stats.total_wall_ms = 96.5;
  stats.max_wall_ms = 12.25;
  stats.queries_per_sec = 8.25;
  SetDistinctCounters(&stats);
  stats.spend = SampleMeter();
  stats.store_attached = true;
  stats.store_file_bytes = 8192;
  stats.store_live_materialisations = 6;
  stats.store_live_prompts = 44;
  return stats;
}

TEST(CounterCodecTest, QueryResultRoundTrip) {
  QueryResult result = SampleQueryResult();
  auto parsed = Json::Parse(QueryResultToJson(result).Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto decoded = QueryResultFromJson(parsed.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(result.relation.ToCsv(), decoded.value().relation.ToCsv());
  EXPECT_EQ(CostMeterToJson(result.cost).Dump(),
            CostMeterToJson(decoded.value().cost).Dump());
  ExpectDistinctCounters(decoded.value());
  EXPECT_EQ(result.physical_plan, decoded.value().physical_plan);
  EXPECT_DOUBLE_EQ(result.wall_ms, decoded.value().wall_ms);
}

TEST(CounterCodecTest, ServerStatsRoundTrip) {
  ServerStats stats = SampleServerStats();
  auto parsed = Json::Parse(ServerStatsToJson(stats).Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto decoded = ServerStatsFromJson(parsed.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectDistinctCounters(decoded.value());
  // Every other field survives too: the text rendering covers them all.
  EXPECT_EQ(stats.ToString(), decoded.value().ToString());
}

// Byte pins: changing any of these literals changes the wire format (or
// the stats text CI scrapes). The counter block rides flat, under fixed
// keys, at a fixed position in each payload.
constexpr char kPinnedQueryResult[] =
    "{\"relation\":{\"columns\":[{\"name\":\"name\",\"type\":\"VARCHAR\","
    "\"table\":\"c\"},{\"name\":\"GDP\",\"type\":\"INT\",\"table\":\"c\"}],"
    "\"rows\":[[{\"t\":\"string\",\"v\":\"France\"},{\"t\":\"int\","
    "\"v\":\"2780\"}],[{\"t\":\"string\",\"v\":\"Japan\"},"
    "{\"t\":\"null\"}]]},\"cost\":{\"num_prompts\":7,\"prompt_tokens\":120,"
    "\"completion_tokens\":60,\"simulated_latency_ms\":41.25,"
    "\"cache_hits\":2,\"store_hits\":1,\"num_batches\":3,"
    "\"by_model\":{\"gpt\":{\"num_prompts\":7,\"prompt_tokens\":120,"
    "\"completion_tokens\":0,\"simulated_latency_ms\":0,\"num_batches\":0}}},"
    "\"table_cache_lookups\":11,\"table_cache_hits\":13,"
    "\"table_cache_exact_hits\":17,\"table_cache_subsumption_hits\":19,"
    "\"table_cache_store_hits\":23,\"scan_pages_prefetched\":29,"
    "\"scan_pages_overfetched\":31,\"wall_ms\":3.5,"
    "\"physical_plan\":\"Project\\n  Scan(country)\\n\"}";

constexpr char kPinnedPartialResponse[] =
    "{\"table\":\"country\",\"alias\":\"c\","
    "\"relation\":{\"columns\":[{\"name\":\"name\","
    "\"type\":\"VARCHAR\",\"table\":\"c\"},{\"name\":\"GDP\","
    "\"type\":\"INT\",\"table\":\"c\"}],\"rows\":[[{\"t\":\"string\","
    "\"v\":\"France\"},{\"t\":\"int\",\"v\":\"2780\"}],[{\"t\":\"string\","
    "\"v\":\"Japan\"},{\"t\":\"null\"}]]},\"cost\":{\"num_prompts\":7,"
    "\"prompt_tokens\":120,\"completion_tokens\":60,"
    "\"simulated_latency_ms\":41.25,\"cache_hits\":2,\"store_hits\":1,"
    "\"num_batches\":3,\"by_model\":{\"gpt\":{\"num_prompts\":7,"
    "\"prompt_tokens\":120,\"completion_tokens\":0,"
    "\"simulated_latency_ms\":0,\"num_batches\":0}}},"
    "\"table_cache_lookups\":11,\"table_cache_hits\":13,"
    "\"table_cache_exact_hits\":17,\"table_cache_subsumption_hits\":19,"
    "\"table_cache_store_hits\":23,\"scan_pages_prefetched\":29,"
    "\"scan_pages_overfetched\":31}";

constexpr char kPinnedServerStats[] =
    "{\"uptime_ms\":4500,\"uptime_s\":4,\"draining\":true,"
    "\"connections_accepted\":3,\"connections_active\":2,"
    "\"active_connections\":2,\"queries_started\":41,\"queries_ok\":37,"
    "\"queries_error\":1,\"queries_rejected\":2,\"responses_unsent\":1,"
    "\"partials_started\":5,\"partials_ok\":4,\"partials_error\":1,"
    "\"in_flight\":1,\"queued\":0,\"total_wall_ms\":96.5,"
    "\"max_wall_ms\":12.25,\"queries_per_sec\":8.25,"
    "\"table_cache_lookups\":11,\"table_cache_hits\":13,"
    "\"table_cache_exact_hits\":17,\"table_cache_subsumption_hits\":19,"
    "\"table_cache_store_hits\":23,\"scan_pages_prefetched\":29,"
    "\"scan_pages_overfetched\":31,\"spend\":{\"num_prompts\":7,"
    "\"prompt_tokens\":120,\"completion_tokens\":60,"
    "\"simulated_latency_ms\":41.25,\"cache_hits\":2,\"store_hits\":1,"
    "\"num_batches\":3,\"by_model\":{\"gpt\":{\"num_prompts\":7,"
    "\"prompt_tokens\":120,\"completion_tokens\":0,"
    "\"simulated_latency_ms\":0,\"num_batches\":0}}},\"store_attached\":true,"
    "\"store_file_bytes\":8192,\"store_live_materialisations\":6,"
    "\"store_live_prompts\":44}";

constexpr char kPinnedStatsText[] =
    "galoisd statistics:\n"
    "  uptime_ms                        4500\n"
    "  uptime_s                         4\n"
    "  draining                         1\n"
    "  connections_accepted             3\n"
    "  connections_active               2\n"
    "  active_connections               2\n"
    "  queries_started                  41\n"
    "  queries_ok                       37\n"
    "  queries_error                    1\n"
    "  queries_rejected                 2\n"
    "  responses_unsent                 1\n"
    "  partials_started                 5\n"
    "  partials_ok                      4\n"
    "  partials_error                   1\n"
    "  in_flight                        1\n"
    "  queued                           0\n"
    "  queries_per_sec                  8.25\n"
    "  total_wall_ms                    96.50\n"
    "  max_wall_ms                      12.25\n"
    "  table_cache_lookups              11\n"
    "  table_cache_hits                 13\n"
    "  table_cache_exact_hits           17\n"
    "  table_cache_subsumption_hits     19\n"
    "  table_cache_store_hits           23\n"
    "  scan_pages_prefetched            29\n"
    "  scan_pages_overfetched           31\n"
    "  llm_prompts                      7\n"
    "  llm_batches                      3\n"
    "  llm_prompt_tokens                120\n"
    "  llm_completion_tokens            60\n"
    "  llm_cache_hits                   2\n"
    "  llm_store_hits                   1\n"
    "  spend[gpt]: 7 prompts, 120+0 tokens\n"
    "  store_attached                   1\n"
    "  store_file_bytes                 8192\n"
    "  store_live_materialisations      6\n"
    "  store_live_prompts               44\n";
TEST(CounterCodecTest, PayloadBytesArePinned) {
  EXPECT_EQ(kPinnedQueryResult, QueryResultToJson(SampleQueryResult()).Dump());
  EXPECT_EQ(kPinnedPartialResponse,
            PartialQueryResponseToJson(SamplePartialResponse()).Dump());
  EXPECT_EQ(kPinnedServerStats, ServerStatsToJson(SampleServerStats()).Dump());
  EXPECT_EQ(kPinnedStatsText, SampleServerStats().ToString());
}

TEST(PartialQueryCodecTest, TruncatedPartialFrameIsIoError) {
  SocketPair pair;
  std::string payload =
      PartialQueryRequestToJson(SamplePartialRequest()).Dump();
  std::string header =
      EncodeFrameHeader(FrameType::kPartialQuery,
                        static_cast<int64_t>(payload.size()));
  // Only half the payload arrives, then the peer dies.
  ASSERT_TRUE(
      SendAll(pair.a.get(), header + payload.substr(0, payload.size() / 2),
              Soon())
          .ok());
  pair.a.reset();
  auto frame = ReadFrame(pair.b.get(), Soon());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(StatusCode::kIoError, frame.status().code());
}

TEST(PartialQueryCodecTest, OversizePartialFrameIsRejected) {
  // A hostile kPartialQuery length field is rejected at the header, before
  // any payload allocation.
  std::string header = EncodeFrameHeader(FrameType::kPartialQuery, 0);
  header[8] = '\x01';
  header[9] = '\x00';
  header[10] = '\x00';
  header[11] = '\x04';  // 0x04000001 = 64MiB + 1
  int64_t n = 0;
  EXPECT_EQ(StatusCode::kParseError,
            DecodeFrameHeader(header, &n).status().code());
}

TEST(PartialQueryCodecTest, FuzzedPayloadsNeverCrashTheCodec) {
  // Deterministic mutation fuzz: flip/truncate/extend valid payloads and
  // feed the raw bytes to the decoders. Whatever arrives, a decoder
  // returns a value or a kParseError — never crashes — and a result it
  // accepts re-encodes to bytes that decode to the same value.
  std::mt19937 rng(0xC0FFEE);
  PartialQueryResponse bare_response;
  bare_response.table = "t";
  bare_response.alias = "a";
  const std::string seeds[] = {
      PartialQueryRequestToJson(SamplePartialRequest()).Dump(),
      EncodePartialQueryResponse(bare_response),
      EncodePartialQueryResponse(SamplePartialResponse()),
      kPinnedQueryResult,
  };
  int accepted = 0;
  auto check = [&accepted](const std::string& payload, auto decode,
                           auto encode) {
    auto decoded = decode(payload);
    if (!decoded.ok()) {
      EXPECT_EQ(StatusCode::kParseError, decoded.status().code());
      return;
    }
    ++accepted;
    const std::string again = encode(decoded.value());
    auto redecoded = decode(again);
    ASSERT_TRUE(redecoded.ok()) << redecoded.status();
    EXPECT_EQ(again, encode(redecoded.value()));
  };
  for (int round = 0; round < 1600; ++round) {
    const size_t kind = static_cast<size_t>(round) % std::size(seeds);
    std::string payload = seeds[kind];
    std::uniform_int_distribution<size_t> pos(0, payload.size() - 1);
    switch (rng() % 3) {
      case 0:  // byte flip(s)
        for (int k = 0; k <= static_cast<int>(rng() % 4); ++k) {
          payload[pos(rng)] = static_cast<char>(rng() % 256);
        }
        break;
      case 1:  // truncate
        payload.resize(pos(rng));
        break;
      default:  // splice garbage into the middle
        payload.insert(pos(rng), std::string(1 + rng() % 16,
                                             static_cast<char>(rng() % 256)));
        break;
    }
    SCOPED_TRACE("round " + std::to_string(round) + ": " + payload);
    if (kind == 0) {
      // Requests keep their tree codec.
      auto parsed = Json::Parse(payload);
      Status status = parsed.ok()
                          ? PartialQueryRequestFromJson(parsed.value()).status()
                          : parsed.status();
      if (!status.ok()) EXPECT_EQ(StatusCode::kParseError, status.code());
    } else if (kind == 3) {
      check(payload, DecodeQueryResult, EncodeQueryResult);
    } else {
      check(payload, DecodePartialQueryResponse, EncodePartialQueryResponse);
    }
  }
  // The round trip above ran, not only the rejections.
  EXPECT_GT(accepted, 100);
}

// ---------------------------------------------------------------------------
// The direct result codec: the pinned bytes, and the tree decoder's rules.

TEST(ResultCodecTest, DirectCodecWritesAndReadsThePinnedBytes) {
  EXPECT_EQ(kPinnedQueryResult, EncodeQueryResult(SampleQueryResult()));
  EXPECT_EQ(kPinnedPartialResponse,
            EncodePartialQueryResponse(SamplePartialResponse()));
  auto result = DecodeQueryResult(kPinnedQueryResult);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(kPinnedQueryResult, EncodeQueryResult(result.value()));
  auto partial = DecodePartialQueryResponse(kPinnedPartialResponse);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(kPinnedPartialResponse,
            EncodePartialQueryResponse(partial.value()));
}

TEST(ResultCodecTest, KeysComeInAnyOrderAndTheLastRepeatWins) {
  // Reversed keys, an unknown key, tags after their payloads, repeated
  // keys whose first value is invalid, and whitespace between tokens.
  const std::string payload =
      "{ \"physical_plan\" : \"p\", \"extra\":[{\"x\":null}],"
      "\"wall_ms\":\"not a number\",\"table_cache_hits\":2.6,"
      "\"cost\":7,\"cost\":{\"by_model\":{\"m\":{\"num_prompts\":4}},"
      "\"num_prompts\":5},"
      "\"relation\":{\"rows\":[[{\"t\":\"int\"}]],"
      "\"columns\":[{\"type\":\"INT\",\"name\":\"a\"},"
      "{\"name\":\"b\",\"type\":\"VARCHAR\",\"table\":\"t\"}],"
      "\"rows\":[[{\"v\":\"12\",\"t\":\"int\"},"
      "{\"t\":\"int\",\"v\":\"bad\",\"t\":\"string\"}]]"
      "} }";
  auto decoded = DecodeQueryResult(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const QueryResult& r = decoded.value();
  EXPECT_EQ("p", r.physical_plan);
  EXPECT_EQ(0.0, r.wall_ms);  // a wrong-typed number reads 0
  EXPECT_EQ(3, r.table_cache_hits);  // rounded, as Json::GetInt
  EXPECT_EQ(5, r.cost.num_prompts);
  ASSERT_EQ(1u, r.cost.by_model.size());
  EXPECT_EQ(4, r.cost.by_model.at("m").num_prompts);
  ASSERT_EQ(2u, r.relation.schema().size());
  EXPECT_EQ("t", r.relation.schema().columns()[1].table);
  ASSERT_EQ(1u, r.relation.rows().size());
  EXPECT_EQ(Value::Int(12), r.relation.rows()[0][0]);
  EXPECT_EQ(Value::String("bad"), r.relation.rows()[0][1]);
  // The tree adapter agrees with the direct decoder.
  auto via_tree = QueryResultFromJson(Json::Parse(payload).value());
  ASSERT_TRUE(via_tree.ok()) << via_tree.status();
  EXPECT_EQ(EncodeQueryResult(r), EncodeQueryResult(via_tree.value()));
}

TEST(ResultCodecTest, MalformedPayloadsAreParseErrors) {
  const char* payloads[] = {
      "",
      "[]",
      "{\"cost\":{}}",                                   // no relation
      "{\"relation\":{\"columns\":[],\"rows\":[]}}",     // no cost
      "{\"relation\":{\"columns\":[],\"rows\":[]},\"cost\":[]}",
      "{\"relation\":{\"rows\":[]},\"cost\":{}}",        // no columns
      "{\"relation\":{\"columns\":[{\"type\":\"INT\"}],\"rows\":[]},"
      "\"cost\":{}}",                                    // nameless column
      "{\"relation\":{\"columns\":[{\"name\":\"a\",\"type\":\"BLOB\"}],"
      "\"rows\":[]},\"cost\":{}}",                       // unknown type
      "{\"relation\":{\"columns\":[{\"name\":\"a\",\"type\":\"INT\"}],"
      "\"rows\":[[]]},\"cost\":{}}",                     // arity
      "{\"relation\":{\"columns\":[{\"name\":\"a\",\"type\":\"INT\"}],"
      "\"rows\":[[{\"t\":\"int\",\"v\":\"1x\"}]]},\"cost\":{}}",
      "{\"relation\":{\"columns\":[],\"rows\":[]},\"cost\":{}} {}",
  };
  for (const char* payload : payloads) {
    auto decoded = DecodeQueryResult(payload);
    ASSERT_FALSE(decoded.ok()) << payload;
    EXPECT_EQ(StatusCode::kParseError, decoded.status().code()) << payload;
  }
  auto partial = DecodePartialQueryResponse(
      "{\"table\":7,\"alias\":\"a\",\"relation\":{\"columns\":[],"
      "\"rows\":[]},\"cost\":{}}");
  ASSERT_FALSE(partial.ok());
  EXPECT_EQ(StatusCode::kParseError, partial.status().code());
}

TEST(ResultCodecTest, NonFiniteDoublesTravelAsTaggedStrings) {
  QueryResult result = SampleQueryResult();
  result.relation = Relation(Schema({Column("x", DataType::kDouble)}));
  for (double v : {std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(), -0.5}) {
    result.relation.AddRowUnchecked({Value::Double(v)});
  }
  const std::string payload = EncodeQueryResult(result);
  EXPECT_NE(std::string::npos,
            payload.find("\"rows\":[[{\"t\":\"double\",\"v\":\"inf\"}],"
                         "[{\"t\":\"double\",\"v\":\"-inf\"}],"
                         "[{\"t\":\"double\",\"v\":\"nan\"}],"
                         "[{\"t\":\"double\",\"v\":-0.5}]]"))
      << payload;
  auto decoded = DecodeQueryResult(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const auto& rows = decoded.value().relation.rows();
  ASSERT_EQ(4u, rows.size());
  EXPECT_EQ(std::numeric_limits<double>::infinity(), rows[0][0].double_value());
  EXPECT_EQ(-std::numeric_limits<double>::infinity(),
            rows[1][0].double_value());
  EXPECT_TRUE(std::isnan(rows[2][0].double_value()));
  EXPECT_EQ(-0.5, rows[3][0].double_value());
  // A bare non-finite number (a meter field) writes null, which reads 0.
  result.wall_ms = std::numeric_limits<double>::infinity();
  auto wall = DecodeQueryResult(EncodeQueryResult(result));
  ASSERT_TRUE(wall.ok()) << wall.status();
  EXPECT_EQ(0.0, wall.value().wall_ms);
}

TEST(ListenerTest, ConnectToDeadPortFails) {
  // Bind + close to get a port that is (very likely) not listening.
  Listener listener;
  ASSERT_TRUE(listener.Bind("127.0.0.1", 0, 4).ok());
  int dead_port = listener.port();
  listener.Close();
  auto client = ConnectTcp("127.0.0.1", dead_port, 500);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(StatusCode::kIoError, client.status().code());
}

}  // namespace
}  // namespace galois::net
