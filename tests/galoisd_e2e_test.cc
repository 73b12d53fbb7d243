// galoisd's acceptance contract, end to end over real loopback sockets:
// the full 46-query workload run through GaloisServer + GaloisClient is
// byte-identical to the in-process facade — same relation renderings,
// same per-query CostMeters, same cache/prefetch counters — and the
// daemon honours its operational promises: transport faults behind the
// LLM backend are retried transparently, a client vanishing mid-query
// costs exactly one unsent response, graceful drain finishes in-flight
// work while rejecting queued admissions retryably, admission control
// sheds load beyond the queue, client deadlines cancel server-side, and
// a daemon restart over a persistent store re-bills nothing.
//
// Everything is hermetic: servers run in-process on ephemeral loopback
// ports; the LLM behind the daemon is the SimulatedLlm (optionally via
// FakeLlmServer for HTTP fault injection).

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "knowledge/workload.h"
#include "llm/http_llm.h"
#include "llm/simulated_llm.h"
#include "net/frame.h"
#include "net/galois_client.h"
#include "net/galois_server.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "tests/fake_llm_server.h"

namespace galois {
namespace {

using net::ClientOptions;
using net::GaloisClient;
using net::GaloisServer;
using net::ServerOptions;
using net::ServerStats;
using tests::FakeLlmServer;

const knowledge::SpiderLikeWorkload& W() {
  static const auto* w = []() {
    auto r = knowledge::SpiderLikeWorkload::Create();
    EXPECT_TRUE(r.ok());
    return new knowledge::SpiderLikeWorkload(std::move(r).value());
  }();
  return *w;
}

std::string StoreDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "galoisd_e2e_" + name;
  std::remove((dir + "/galois.store").c_str());
  std::remove((dir + "/galois.store.tmp").c_str());
  std::remove(dir.c_str());
  return dir;
}

/// A Database over the builtin simulated backend — the exact
/// configuration the in-process e2e suites use, so wire-vs-facade
/// comparisons hold query by query.
std::unique_ptr<Database> OpenSimDb(bool table_cache = true) {
  DatabaseOptions options;
  options.workload = &W();
  options.enable_materialisation_cache = table_cache;
  auto db = Database::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

/// Expects the seven per-query counters of `got` and `want` to match.
void ExpectSameCounters(const core::QueryCounters& got,
                        const core::QueryCounters& want,
                        const std::string& where) {
  EXPECT_EQ(got.table_cache_lookups, want.table_cache_lookups) << where;
  EXPECT_EQ(got.table_cache_hits, want.table_cache_hits) << where;
  EXPECT_EQ(got.table_cache_exact_hits, want.table_cache_exact_hits) << where;
  EXPECT_EQ(got.table_cache_subsumption_hits,
            want.table_cache_subsumption_hits)
      << where;
  EXPECT_EQ(got.table_cache_store_hits, want.table_cache_store_hits) << where;
  EXPECT_EQ(got.scan_pages_prefetched, want.scan_pages_prefetched) << where;
  EXPECT_EQ(got.scan_pages_overfetched, want.scan_pages_overfetched) << where;
}

GaloisClient ConnectTo(int port) {
  ClientOptions copt;
  copt.port = port;
  auto client = GaloisClient::Connect(copt);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// Spins until `pred(stats)` holds or ~5s elapse; returns the final
/// snapshot either way (asserting on it gives a readable failure).
template <typename Pred>
ServerStats AwaitStats(const GaloisServer& server, Pred pred) {
  for (int i = 0; i < 500; ++i) {
    ServerStats s = server.stats();
    if (pred(s)) return s;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return server.stats();
}

/// Delay decorator: every round trip sleeps for `delay_ms` before
/// reaching the backing model. Gives the daemon genuinely long-running
/// queries so drain/admission/disconnect windows are deterministic.
class SlowLlm : public llm::ForwardingModel {
 public:
  SlowLlm(llm::LanguageModel* inner, int64_t delay_ms)
      : llm::ForwardingModel(inner), delay_ms_(delay_ms) {}

  bool thread_safe() const override { return false; }

  Result<llm::Completion> CompleteMetered(const llm::Prompt& prompt,
                                          llm::CostMeter* usage) override {
    Nap();
    return inner_->CompleteMetered(prompt, usage);
  }
  Result<std::vector<llm::Completion>> CompleteBatchMetered(
      const std::vector<llm::Prompt>& prompts,
      llm::CostMeter* usage) override {
    Nap();
    return inner_->CompleteBatchMetered(prompts, usage);
  }

 private:
  void Nap() const {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
  }

  int64_t delay_ms_;
};

/// A Database whose single backend is a SlowLlm over a fresh
/// SimulatedLlm. The pieces are parked in `keep` so they outlive the
/// Database (external backends are borrowed).
std::unique_ptr<Database> OpenSlowDb(
    int64_t delay_ms,
    std::vector<std::shared_ptr<llm::LanguageModel>>* keep) {
  auto sim = std::make_shared<llm::SimulatedLlm>(
      &W().kb(), llm::ModelProfile::ChatGpt(), &W().catalog(), /*seed=*/7);
  auto slow = std::make_shared<SlowLlm>(sim.get(), delay_ms);
  keep->push_back(sim);
  keep->push_back(slow);
  DatabaseOptions options;
  options.workload = &W();
  BackendSpec spec;
  spec.name = "slow";
  spec.external = slow.get();
  options.backends.push_back(std::move(spec));
  options.enable_materialisation_cache = false;
  // One batched round trip per retrieval phase: the per-trip delay adds
  // up to a few hundred ms per query, not minutes.
  options.execution.batch_prompts = true;
  options.execution.max_batch_size = 0;
  auto db = Database::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// ---------------------------------------------------------------------
// The headline: byte-identical over the wire.
// ---------------------------------------------------------------------

TEST(GaloisdE2eTest, WorkloadByteIdenticalOverTheWireVsInProcess) {
  // Two Databases opened with identical options: one queried through
  // the facade, one behind a daemon. Separate instances so neither
  // run's caches can launder the other's results.
  auto local_db = OpenSimDb();
  auto wire_db = OpenSimDb();
  GaloisServer server(wire_db.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Session local = local_db->CreateSession();
  GaloisClient client = ConnectTo(server.port());

  core::QueryCounters received;  // what the client was sent, summed
  for (const knowledge::QuerySpec& query : W().queries()) {
    auto expected = local.Query(query.sql);
    ASSERT_TRUE(expected.ok()) << "q" << query.id << ": "
                               << expected.status();
    auto got = client.Query(query.sql);
    ASSERT_TRUE(got.ok()) << "q" << query.id << ": " << got.status();

    // Relations: the exact CSV rendering, not just set equality.
    EXPECT_EQ(got->relation.ToCsv(), expected->relation.ToCsv())
        << "q" << query.id << " diverged over the wire";

    // Per-query cost meters, field by field. Latency is a double sum
    // accumulated in a different order under concurrency, so compare
    // with a relative tolerance; everything else is integral.
    EXPECT_EQ(got->cost.num_prompts, expected->cost.num_prompts)
        << "q" << query.id;
    EXPECT_EQ(got->cost.num_batches, expected->cost.num_batches)
        << "q" << query.id;
    EXPECT_EQ(got->cost.prompt_tokens, expected->cost.prompt_tokens)
        << "q" << query.id;
    EXPECT_EQ(got->cost.completion_tokens, expected->cost.completion_tokens)
        << "q" << query.id;
    EXPECT_EQ(got->cost.cache_hits, expected->cost.cache_hits)
        << "q" << query.id;
    EXPECT_NEAR(got->cost.simulated_latency_ms,
                expected->cost.simulated_latency_ms,
                1e-6 * (1.0 + expected->cost.simulated_latency_ms))
        << "q" << query.id;

    // Cache and prefetch counters travel too, all seven of them.
    ExpectSameCounters(*got, *expected, "q" + std::to_string(query.id));
    received += *got;

    // The plan report and wall clock travel (values are machine-local).
    EXPECT_FALSE(got->physical_plan.empty()) << "q" << query.id;
    EXPECT_GE(got->wall_ms, 0.0) << "q" << query.id;
  }

  const size_t n = W().queries().size();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_started, static_cast<int64_t>(n));
  EXPECT_EQ(stats.queries_ok, static_cast<int64_t>(n));
  EXPECT_EQ(stats.queries_error, 0);
  EXPECT_EQ(stats.queries_rejected, 0);
  // The daemon's spend equals the facade's for the identical run.
  EXPECT_EQ(stats.spend.num_prompts,
            local_db->model()->cost().num_prompts);
  // The daemon accumulates exactly the counters it shipped, and its
  // stats frame carries the same seven values.
  EXPECT_GT(received.table_cache_hits, 0);
  ExpectSameCounters(stats, received, "server.stats()");
  auto remote = client.Stats();
  ASSERT_TRUE(remote.ok()) << remote.status();
  ExpectSameCounters(remote.value(), received, "client.Stats()");

  server.Shutdown();
}

TEST(GaloisdE2eTest, NonFiniteDoublesSurviveTheWire) {
  // Arithmetic can overflow to inf and cancel to NaN; JSON has no token
  // for either, so such cells travel as tagged strings and must arrive
  // as the same cells the facade returns.
  auto local_db = OpenSimDb();
  auto wire_db = OpenSimDb();
  GaloisServer server(wire_db.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Session local = local_db->CreateSession();
  GaloisClient client = ConnectTo(server.port());

  struct Case {
    std::string sql;
    bool (*check)(double);
  };
  const Case cases[] = {
      {"SELECT name, population * 1e308 FROM country WHERE name = 'France'",
       [](double v) { return std::isinf(v); }},
      {"SELECT name, population * 1e308 - population * 1e308 FROM country "
       "WHERE name = 'France'",
       [](double v) { return std::isnan(v); }},
  };
  for (const Case& c : cases) {
    auto expected = local.Query(c.sql);
    ASSERT_TRUE(expected.ok()) << c.sql << ": " << expected.status();
    auto got = client.Query(c.sql);
    ASSERT_TRUE(got.ok()) << c.sql << ": " << got.status();
    EXPECT_EQ(net::RelationToJson(expected->relation).Dump(),
              net::RelationToJson(got->relation).Dump())
        << c.sql;
    ASSERT_FALSE(got->relation.rows().empty()) << c.sql;
    for (const Tuple& row : got->relation.rows()) {
      ASSERT_EQ(DataType::kDouble, row[1].type()) << c.sql;
      EXPECT_TRUE(c.check(row[1].double_value())) << c.sql;
    }
  }
  server.Shutdown();
}

// ---------------------------------------------------------------------
// Failures travel as their original Status; the connection survives.
// ---------------------------------------------------------------------

TEST(GaloisdE2eTest, QueryErrorTravelsAndConnectionStaysUsable) {
  auto db = OpenSimDb();
  GaloisServer server(db.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  GaloisClient client = ConnectTo(server.port());

  auto bad = client.Query("THIS IS NOT SQL");
  ASSERT_FALSE(bad.ok());
  EXPECT_FALSE(llm::IsRetryableLlmError(bad.status()))
      << "a deterministic parse failure must not invite retries: "
      << bad.status();

  // Same connection, next query: fine.
  EXPECT_TRUE(client.Ping().ok());
  auto good = client.Query(W().queries()[0].sql);
  EXPECT_TRUE(good.ok()) << good.status();

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_error, 1);
  EXPECT_EQ(stats.queries_ok, 1);
  server.Shutdown();
}

// ---------------------------------------------------------------------
// Transport faults behind the daemon are retried transparently.
// ---------------------------------------------------------------------

TEST(GaloisdE2eTest, TruncatedLlmResponseIsRetriedTransparently) {
  // The daemon's backend is an HttpLlm pointed at a FakeLlmServer that
  // truncates every 5th response body mid-flight (Content-Length lies).
  // The resilience decorator must classify those as retryable transport
  // faults and re-issue them — the client of the *daemon* never sees
  // any of it.
  llm::SimulatedLlm backing(&W().kb(), llm::ModelProfile::ChatGpt(),
                            &W().catalog(), /*seed=*/7);
  FakeLlmServer::Options fake_options;
  fake_options.fault_every_n = 5;
  fake_options.periodic_fault.kind = FakeLlmServer::FaultKind::kTruncatedBody;
  FakeLlmServer fake(&backing, fake_options);
  ASSERT_TRUE(fake.Start().ok());

  DatabaseOptions options;
  options.workload = &W();
  BackendSpec spec;
  spec.name = "http";
  spec.http = fake.ClientOptions();
  llm::ResilienceOptions resilience;
  resilience.max_retries = 5;
  resilience.initial_backoff_ms = 2;
  resilience.max_backoff_ms = 50;
  spec.resilience = resilience;
  options.backends.push_back(std::move(spec));
  options.enable_materialisation_cache = false;
  auto db = Database::Open(std::move(options));
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  GaloisServer server(db.value().get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  GaloisClient client = ConnectTo(server.port());

  // Baseline: the same queries against the facade's simulated backend.
  auto baseline_db = OpenSimDb(/*table_cache=*/false);
  Session baseline = baseline_db->CreateSession();

  for (size_t i = 0; i < 8 && i < W().queries().size(); ++i) {
    const knowledge::QuerySpec& query = W().queries()[i];
    auto expected = baseline.Query(query.sql);
    ASSERT_TRUE(expected.ok()) << "q" << query.id;
    auto got = client.Query(query.sql);
    ASSERT_TRUE(got.ok()) << "q" << query.id
                          << " should have been retried transparently: "
                          << got.status();
    EXPECT_EQ(got->relation.ToCsv(), expected->relation.ToCsv())
        << "q" << query.id;
  }
  EXPECT_GT(fake.faults_injected(), 0)
      << "the fault schedule never fired — the test proved nothing";
  EXPECT_EQ(server.stats().queries_error, 0);

  server.Shutdown();
  fake.Stop();
}

// ---------------------------------------------------------------------
// A client vanishing mid-query costs one unsent response, nothing more.
// ---------------------------------------------------------------------

TEST(GaloisdE2eTest, MidFlightClientDisconnectLeavesDaemonServing) {
  std::vector<std::shared_ptr<llm::LanguageModel>> keep;
  auto db = OpenSlowDb(/*delay_ms=*/300, &keep);
  GaloisServer server(db.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());

  // Raw protocol client: send one query, then reset the connection
  // while the server is still executing it. SO_LINGER(0) turns close()
  // into an immediate RST, so by the time the (slow) query finishes the
  // server's response write deterministically fails.
  {
    auto fd = net::ConnectTcp("127.0.0.1", server.port(), 2000);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    net::QueryRequest request;
    request.sql = W().queries()[0].sql;
    ASSERT_TRUE(net::WriteFrame(fd.value().get(), net::FrameType::kQuery,
                                net::QueryRequestToJson(request).Dump(),
                                net::NowMs() + 2000)
                    .ok());
    // Give the server time to read the frame and start the query (the
    // query itself takes >= 300ms), then reset.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    struct linger hard_close;
    hard_close.l_onoff = 1;
    hard_close.l_linger = 0;
    ASSERT_EQ(::setsockopt(fd.value().get(), SOL_SOCKET, SO_LINGER,
                           &hard_close, sizeof(hard_close)),
              0);
  }  // fd closes here -> RST

  // The abandoned query still runs to completion and its unsendable
  // response is counted — and the daemon keeps serving everyone else.
  ServerStats stats =
      AwaitStats(server, [](const ServerStats& s) {
        return s.responses_unsent >= 1;
      });
  EXPECT_EQ(stats.responses_unsent, 1);

  GaloisClient client = ConnectTo(server.port());
  EXPECT_TRUE(client.Ping().ok());
  auto result = client.Query(W().queries()[1].sql);
  EXPECT_TRUE(result.ok()) << result.status();

  server.Shutdown();
}

// ---------------------------------------------------------------------
// Graceful drain: in-flight queries finish, queued ones are rejected
// retryably, new connections are refused.
// ---------------------------------------------------------------------

TEST(GaloisdE2eTest, DrainFinishesInFlightAndRejectsQueued) {
  std::vector<std::shared_ptr<llm::LanguageModel>> keep;
  auto db = OpenSlowDb(/*delay_ms=*/400, &keep);
  ServerOptions server_options;
  server_options.max_in_flight = 1;
  server_options.queue_capacity = 8;
  GaloisServer server(db.get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  // A: occupies the single execution slot for >= 400ms.
  Result<QueryResult> result_a = Status::ExecutionError("never ran");
  std::thread thread_a([&] {
    GaloisClient client = ConnectTo(port);
    result_a = client.Query(W().queries()[0].sql);
  });
  AwaitStats(server, [](const ServerStats& s) { return s.in_flight == 1; });

  // B: waits in the admission queue behind A.
  Result<QueryResult> result_b = Status::ExecutionError("never ran");
  std::thread thread_b([&] {
    GaloisClient client = ConnectTo(port);
    result_b = client.Query(W().queries()[1].sql);
  });
  ServerStats queued_stats =
      AwaitStats(server, [](const ServerStats& s) { return s.queued == 1; });
  ASSERT_EQ(queued_stats.queued, 1) << "B never queued";

  // Drain: A must finish cleanly, B must be rejected with a retryable
  // error (it never started — safe to replay elsewhere).
  server.Shutdown();
  thread_a.join();
  thread_b.join();

  EXPECT_TRUE(result_a.ok())
      << "in-flight query killed by drain: " << result_a.status();
  ASSERT_FALSE(result_b.ok()) << "queued query should have been rejected";
  EXPECT_TRUE(llm::IsRetryableLlmError(result_b.status()))
      << "drain rejection must be marked retryable: " << result_b.status();

  // Drained daemon accepts no new connections.
  ClientOptions copt;
  copt.port = port;
  copt.connect_timeout_ms = 200;
  EXPECT_FALSE(GaloisClient::Connect(copt).ok());

  ServerStats stats = server.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.queries_ok, 1);
  EXPECT_GE(stats.queries_rejected, 1);
}

// ---------------------------------------------------------------------
// Admission control beyond the queue sheds load retryably.
// ---------------------------------------------------------------------

TEST(GaloisdE2eTest, AdmissionRejectsBeyondQueueCapacity) {
  std::vector<std::shared_ptr<llm::LanguageModel>> keep;
  auto db = OpenSlowDb(/*delay_ms=*/400, &keep);
  ServerOptions server_options;
  server_options.max_in_flight = 1;
  server_options.queue_capacity = 0;  // reject the instant the slot is taken
  GaloisServer server(db.get(), server_options);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  Result<QueryResult> result_a = Status::ExecutionError("never ran");
  std::thread thread_a([&] {
    GaloisClient client = ConnectTo(port);
    result_a = client.Query(W().queries()[0].sql);
  });
  AwaitStats(server, [](const ServerStats& s) { return s.in_flight == 1; });

  GaloisClient client = ConnectTo(port);
  auto rejected = client.Query(W().queries()[1].sql);
  ASSERT_FALSE(rejected.ok()) << "should have been shed, queue_capacity=0";
  EXPECT_TRUE(llm::IsRetryableLlmError(rejected.status()))
      << rejected.status();
  // The connection survives rejection; the client may simply retry later.
  EXPECT_TRUE(client.Ping().ok());

  thread_a.join();
  EXPECT_TRUE(result_a.ok()) << result_a.status();
  EXPECT_GE(server.stats().queries_rejected, 1);
  server.Shutdown();
}

// ---------------------------------------------------------------------
// Client deadlines are armed server-side, where the work is.
// ---------------------------------------------------------------------

TEST(GaloisdE2eTest, ClientDeadlineCancelsQueryServerSide) {
  std::vector<std::shared_ptr<llm::LanguageModel>> keep;
  auto db = OpenSlowDb(/*delay_ms=*/400, &keep);
  GaloisServer server(db.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  GaloisClient client = ConnectTo(server.port());

  auto result = client.Query(W().queries()[0].sql, /*deadline_ms=*/50);
  ASSERT_FALSE(result.ok()) << "a 50ms deadline cannot fit a 400ms backend";
  // The server answered with an error frame (the transport stayed
  // healthy), carrying the cancellation outcome.
  EXPECT_NE(result.status().code(), StatusCode::kIoError)
      << result.status();
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.Ping().ok());

  server.Shutdown();
}

// ---------------------------------------------------------------------
// Restarting the daemon over a persistent store re-bills nothing.
// ---------------------------------------------------------------------

TEST(GaloisdE2eTest, DaemonRestartOverStoreIsByteIdenticalWithZeroRespend) {
  const std::string dir = StoreDir("restart");

  auto open_store_db = [&](llm::LanguageModel* transport) {
    DatabaseOptions options;
    options.workload = &W();
    BackendSpec spec;
    spec.name = "sim";
    spec.external = transport;
    spec.prompt_cache = true;  // completions must be captured to persist
    options.backends.push_back(std::move(spec));
    options.enable_materialisation_cache = true;
    options.store.path = dir;
    options.store.background_vacuum = false;  // deterministic
    auto db = Database::Open(std::move(options));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  };
  auto make_transport = [] {
    return llm::SimulatedLlm(&W().kb(), llm::ModelProfile::ChatGpt(),
                             &W().catalog(), /*seed=*/7);
  };

  // --- daemon incarnation 1: the paying run ---------------------------
  std::vector<std::string> cold_csv;
  {
    llm::SimulatedLlm transport = make_transport();
    auto db = open_store_db(&transport);
    GaloisServer server(db.get(), ServerOptions());
    ASSERT_TRUE(server.Start().ok());
    GaloisClient client = ConnectTo(server.port());
    for (const knowledge::QuerySpec& query : W().queries()) {
      auto result = client.Query(query.sql);
      ASSERT_TRUE(result.ok()) << "q" << query.id << ": " << result.status();
      cold_csv.push_back(result->relation.ToCsv());
    }
    EXPECT_GT(transport.cost().num_prompts, 0);
    // Graceful shutdown flushes the store (SIGTERM path in galoisd).
    server.Shutdown();
  }  // Database destroyed = daemon process exit.

  // --- daemon incarnation 2: warm start over the same directory -------
  llm::SimulatedLlm transport = make_transport();
  auto db = open_store_db(&transport);
  GaloisServer server(db.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  GaloisClient client = ConnectTo(server.port());
  size_t i = 0;
  for (const knowledge::QuerySpec& query : W().queries()) {
    auto result = client.Query(query.sql);
    ASSERT_TRUE(result.ok()) << "q" << query.id << ": " << result.status();
    EXPECT_EQ(result->relation.ToCsv(), cold_csv[i])
        << "q" << query.id << " diverged after daemon restart";
    EXPECT_EQ(result->cost.num_prompts, 0)
        << "q" << query.id << " paid the LLM again";
    ++i;
  }
  // The transport-level meter no cache can fake: zero round trips, for
  // the entire workload, across the wire.
  EXPECT_EQ(transport.cost().num_prompts, 0);

  ServerStats stats = server.stats();
  EXPECT_TRUE(stats.store_attached);
  EXPECT_GT(stats.table_cache_store_hits, 0);
  server.Shutdown();
}

// ---------------------------------------------------------------------
// The stats endpoint and liveness probe.
// ---------------------------------------------------------------------

TEST(GaloisdE2eTest, StatsEndpointReportsTheCounterBlock) {
  auto db = OpenSimDb();
  GaloisServer server(db.get(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  GaloisClient client = ConnectTo(server.port());

  ASSERT_TRUE(client.Ping().ok());
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Query(W().queries()[i].sql).ok());
  }

  // Over the wire — the same snapshot BuildStats() serves in-process.
  auto remote = client.Stats();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(remote->queries_started, 3);
  EXPECT_EQ(remote->queries_ok, 3);
  EXPECT_EQ(remote->queries_error, 0);
  EXPECT_GE(remote->connections_accepted, 1);
  EXPECT_GE(remote->uptime_ms, 0);
  EXPECT_FALSE(remote->draining);
  EXPECT_FALSE(remote->store_attached);
  EXPECT_GT(remote->spend.num_prompts, 0);
  EXPECT_GT(remote->total_wall_ms, 0.0);
  EXPECT_GE(remote->max_wall_ms, 0.0);
  // The human rendering CI scrapes carries the headline counters.
  const std::string rendered = remote->ToString();
  EXPECT_NE(rendered.find("queries_ok"), std::string::npos);
  EXPECT_NE(rendered.find("galoisd statistics"), std::string::npos);

  server.Shutdown();
}

}  // namespace
}  // namespace galois
