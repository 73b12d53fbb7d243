// The cluster layer's acceptance contract, end to end over real loopback
// sockets: the full 46-query workload scattered across a two-node
// galoisd cluster is byte-identical to the single-Database facade —
// same relation renderings, same per-query CostMeters (by-model slices
// included), same cache/prefetch counters — and stays byte-identical
// when one node is killed mid-query: the lost shard re-dispatches to the
// survivor with exactly the re-dispatched round trips re-billed (the
// dead node answers nothing, so meter equality with the facade IS the
// proof), and the dead node's breaker is recorded open in cluster stats.
//
// Everything is hermetic: node servers run in-process on ephemeral
// loopback ports over same-seed simulated backends; the "killed" node is
// a raw TCP harness that accepts the shard request and then hard-resets
// the connection (SO_LINGER 0) — the coordinator-visible signature of a
// SIGKILLed daemon.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "cluster/cluster_coordinator.h"
#include "knowledge/workload.h"
#include "net/frame.h"
#include "net/galois_server.h"
#include "net/socket.h"

namespace galois {
namespace {

using cluster::ClusterStats;
using net::GaloisServer;
using net::ServerOptions;

const knowledge::SpiderLikeWorkload& W() {
  static const auto* w = []() {
    auto r = knowledge::SpiderLikeWorkload::Create();
    EXPECT_TRUE(r.ok());
    return new knowledge::SpiderLikeWorkload(std::move(r).value());
  }();
  return *w;
}

/// A Database over the builtin simulated backend — identical options on
/// every arm (facade, nodes, coordinator) so comparisons hold query by
/// query. All arms share DatabaseOptions' default llm_seed.
std::unique_ptr<Database> OpenSimDb() {
  DatabaseOptions options;
  options.workload = &W();
  options.enable_materialisation_cache = true;
  auto db = Database::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

/// One in-process cluster node: its own Database + GaloisServer on an
/// ephemeral loopback port.
struct Node {
  Node() : db(OpenSimDb()), server(db.get(), ServerOptions()) {
    EXPECT_TRUE(server.Start().ok());
  }
  ~Node() { server.Shutdown(); }
  std::unique_ptr<Database> db;
  GaloisServer server;
};

std::unique_ptr<Database> OpenClusterDb(const std::vector<int>& ports,
                                        cluster::ClusterOptions base = {}) {
  DatabaseOptions options;
  options.workload = &W();
  options.enable_materialisation_cache = true;
  options.cluster = std::move(base);
  for (int port : ports) {
    cluster::NodeSpec spec;
    spec.port = port;
    options.cluster.nodes.push_back(spec);
  }
  auto db = Database::Open(std::move(options));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(db).value() : nullptr;
}

/// Asserts one query's cluster result byte-identical to the facade's:
/// relation CSV, the full cost meter (latency with FP-reassociation
/// tolerance — shard meters sum in a different order than the facade's
/// sequential accumulation), and every cache/prefetch counter.
void ExpectIdentical(const QueryResult& got, const QueryResult& expected,
                     int query_id) {
  EXPECT_EQ(got.relation.ToCsv(), expected.relation.ToCsv())
      << "q" << query_id << " diverged through the cluster";
  EXPECT_EQ(got.cost.num_prompts, expected.cost.num_prompts) << "q" << query_id;
  EXPECT_EQ(got.cost.num_batches, expected.cost.num_batches) << "q" << query_id;
  EXPECT_EQ(got.cost.prompt_tokens, expected.cost.prompt_tokens)
      << "q" << query_id;
  EXPECT_EQ(got.cost.completion_tokens, expected.cost.completion_tokens)
      << "q" << query_id;
  EXPECT_EQ(got.cost.cache_hits, expected.cost.cache_hits) << "q" << query_id;
  EXPECT_NEAR(got.cost.simulated_latency_ms, expected.cost.simulated_latency_ms,
              1e-6 * (1.0 + expected.cost.simulated_latency_ms))
      << "q" << query_id;
  ASSERT_EQ(got.cost.by_model.size(), expected.cost.by_model.size())
      << "q" << query_id;
  for (const auto& [model, usage] : expected.cost.by_model) {
    ASSERT_TRUE(got.cost.by_model.count(model)) << "q" << query_id;
    const llm::ModelUsage& got_usage = got.cost.by_model.at(model);
    EXPECT_EQ(got_usage.num_prompts, usage.num_prompts)
        << "q" << query_id << " " << model;
    EXPECT_EQ(got_usage.prompt_tokens, usage.prompt_tokens)
        << "q" << query_id << " " << model;
    EXPECT_EQ(got_usage.completion_tokens, usage.completion_tokens)
        << "q" << query_id << " " << model;
    EXPECT_EQ(got_usage.num_batches, usage.num_batches)
        << "q" << query_id << " " << model;
    EXPECT_NEAR(got_usage.simulated_latency_ms, usage.simulated_latency_ms,
                1e-6 * (1.0 + usage.simulated_latency_ms))
        << "q" << query_id << " " << model;
  }
  EXPECT_EQ(got.table_cache_lookups, expected.table_cache_lookups)
      << "q" << query_id;
  EXPECT_EQ(got.table_cache_hits, expected.table_cache_hits)
      << "q" << query_id;
  EXPECT_EQ(got.table_cache_exact_hits, expected.table_cache_exact_hits)
      << "q" << query_id;
  EXPECT_EQ(got.table_cache_subsumption_hits,
            expected.table_cache_subsumption_hits)
      << "q" << query_id;
  EXPECT_EQ(got.table_cache_store_hits, expected.table_cache_store_hits)
      << "q" << query_id;
  EXPECT_EQ(got.scan_pages_prefetched, expected.scan_pages_prefetched)
      << "q" << query_id;
  EXPECT_EQ(got.scan_pages_overfetched, expected.scan_pages_overfetched)
      << "q" << query_id;
  EXPECT_FALSE(got.physical_plan.empty()) << "q" << query_id;
  EXPECT_GE(got.wall_ms, 0.0) << "q" << query_id;
}

/// A node that dies mid-query, as the coordinator sees it: accepts the
/// connection, reads the shard request (so the query is in flight), then
/// hard-resets via SO_LINGER(0) + close — a SIGKILLed daemon's RST, not
/// an orderly FIN.
class DeadNode {
 public:
  DeadNode() {
    EXPECT_TRUE(listener_.Bind("127.0.0.1", 0, 8).ok());
    thread_ = std::thread([this] { Loop(); });
  }
  ~DeadNode() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    listener_.Close();
  }
  int port() const { return listener_.port(); }

 private:
  void Loop() {
    while (!stop_.load()) {
      auto fd = listener_.Accept(50);
      if (!fd.ok()) return;  // listener broke (test teardown)
      if (!fd.value().valid()) continue;  // timeout; re-check stop flag
      // Read whatever request arrives so the kill lands mid-query...
      net::ReadFrame(fd.value().get(), net::NowMs() + 1000).status();
      // ...then RST instead of FIN: closing with SO_LINGER(0) discards
      // the socket abortively, exactly like process death.
      struct linger lg;
      lg.l_onoff = 1;
      lg.l_linger = 0;
      ::setsockopt(fd.value().get(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
  }

  net::Listener listener_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------
// The headline: byte-identical through a healthy two-node cluster.
// ---------------------------------------------------------------------

TEST(ClusterE2eTest, WorkloadByteIdenticalThroughTwoNodeCluster) {
  // Facade arm and cluster arm open separate Databases with identical
  // options, so neither run's caches can launder the other's results.
  auto facade_db = OpenSimDb();
  Session facade = facade_db->CreateSession();

  Node node_a;
  Node node_b;
  auto cluster_db =
      OpenClusterDb({node_a.server.port(), node_b.server.port()});
  ASSERT_NE(nullptr, cluster_db);
  ASSERT_NE(nullptr, cluster_db->cluster());
  Session clustered = cluster_db->CreateSession();

  for (const knowledge::QuerySpec& query : W().queries()) {
    auto expected = facade.Query(query.sql);
    ASSERT_TRUE(expected.ok()) << "q" << query.id << ": " << expected.status();
    auto got = clustered.Query(query.sql);
    ASSERT_TRUE(got.ok()) << "q" << query.id << ": " << got.status();
    ExpectIdentical(got.value(), expected.value(), query.id);
  }

  // Both nodes took traffic (table affinity splits the workload's
  // tables across them) and nothing ever faulted or re-dispatched.
  ClusterStats stats = cluster_db->cluster()->stats();
  EXPECT_GT(stats.queries, 0);
  EXPECT_EQ(stats.redispatches, 0);
  ASSERT_EQ(2u, stats.nodes.size());
  for (const auto& node : stats.nodes) {
    EXPECT_GT(node.shards_dispatched, 0) << node.endpoint;
    EXPECT_EQ(node.shards_dispatched, node.shards_ok) << node.endpoint;
    EXPECT_EQ(0, node.faults) << node.endpoint;
    EXPECT_FALSE(node.breaker_open) << node.endpoint;
  }
  EXPECT_FALSE(stats.ToString().empty());
  // The daemon side served the shards as partials.
  EXPECT_GT(node_a.server.stats().partials_ok, 0);
  EXPECT_GT(node_b.server.stats().partials_ok, 0);
}

// ---------------------------------------------------------------------
// Failover: a node killed mid-query costs nothing but re-dispatches.
// ---------------------------------------------------------------------

TEST(ClusterE2eTest, NodeKilledMidQueryStaysByteIdenticalViaRedispatch) {
  auto facade_db = OpenSimDb();
  Session facade = facade_db->CreateSession();

  // Node A is real; node B accepts shard requests and then dies
  // mid-query (RST after reading the request). Cooldown is set long so
  // the opened breaker is still observable after the workload.
  Node node_a;
  DeadNode node_b;
  cluster::ClusterOptions copts;
  copts.failure_threshold = 3;
  copts.cooldown_ms = 60 * 1000;
  auto cluster_db =
      OpenClusterDb({node_a.server.port(), node_b.port()}, copts);
  ASSERT_NE(nullptr, cluster_db);
  Session clustered = cluster_db->CreateSession();

  for (const knowledge::QuerySpec& query : W().queries()) {
    auto expected = facade.Query(query.sql);
    ASSERT_TRUE(expected.ok()) << "q" << query.id << ": " << expected.status();
    auto got = clustered.Query(query.sql);
    ASSERT_TRUE(got.ok()) << "q" << query.id << ": " << got.status();
    // Byte-identical relations AND meters: the dead node never answered,
    // so the survivor's re-run is the only billing — exactly the
    // re-dispatched round trips, nothing double-counted.
    ExpectIdentical(got.value(), expected.value(), query.id);
  }

  ClusterStats stats = cluster_db->cluster()->stats();
  // Shards whose affinity pointed at the dead node were re-dispatched to
  // the survivor...
  EXPECT_GT(stats.redispatches, 0);
  ASSERT_EQ(2u, stats.nodes.size());
  const auto& survivor = stats.nodes[0];
  const auto& dead = stats.nodes[1];
  // ...the dead node's consecutive faults opened its breaker (recorded
  // open in cluster stats, with the faults that tripped it)...
  EXPECT_TRUE(dead.breaker_open) << stats.ToString();
  EXPECT_EQ("open", dead.breaker);
  EXPECT_GE(dead.faults, 3);
  EXPECT_EQ(0, dead.shards_ok);
  // ...and the survivor absorbed every shard without a single fault.
  EXPECT_EQ(0, survivor.faults);
  EXPECT_GT(survivor.shards_ok, 0);
  EXPECT_FALSE(survivor.breaker_open);
}

// ---------------------------------------------------------------------
// Every breaker open: the query fails fast, with nothing dispatched.
// ---------------------------------------------------------------------

TEST(ClusterE2eTest, EveryBreakerOpenFailsWithoutDispatching) {
  // Node A answers Open's ping and then shuts down; node B dies on every
  // request. Cooldown is long, so a breaker once open stays open.
  Node node_a;
  DeadNode node_b;
  cluster::ClusterOptions copts;
  copts.cooldown_ms = 60 * 1000;
  auto cluster_db =
      OpenClusterDb({node_a.server.port(), node_b.port()}, copts);
  ASSERT_NE(nullptr, cluster_db);
  node_a.server.Shutdown();
  Session session = cluster_db->CreateSession();
  const std::string sql = W().queries().front().sql;

  auto every_breaker_open = [&cluster_db] {
    for (const auto& node : cluster_db->cluster()->stats().nodes) {
      if (!node.breaker_open) return false;
    }
    return true;
  };
  for (int attempt = 0; attempt < 20 && !every_breaker_open(); ++attempt) {
    EXPECT_FALSE(session.Query(sql).ok());
  }
  ASSERT_TRUE(every_breaker_open())
      << cluster_db->cluster()->stats().ToString();

  const int64_t dispatched = cluster_db->cluster()->stats().shards_dispatched;
  auto result = session.Query(sql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(StatusCode::kIoError, result.status().code()) << result.status();
  EXPECT_EQ(dispatched, cluster_db->cluster()->stats().shards_dispatched);
}

// ---------------------------------------------------------------------
// Routing edges.
// ---------------------------------------------------------------------

TEST(ClusterE2eTest, QueriesWithoutLlmTablesRunLocally) {
  Node node_a;
  auto cluster_db = OpenClusterDb({node_a.server.port()});
  ASSERT_NE(nullptr, cluster_db);
  Session session = cluster_db->CreateSession();

  auto result =
      session.Query("SELECT e.name FROM DB.Employees e WHERE e.salary > 50000");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(0, result->cost.num_prompts);

  ClusterStats stats = cluster_db->cluster()->stats();
  EXPECT_EQ(1, stats.queries_local);
  EXPECT_EQ(0, stats.queries);
  EXPECT_EQ(0, node_a.server.stats().partials_started);
}

TEST(ClusterE2eTest, ProvenanceQueriesRunLocallyWithTraces) {
  Node node_a;
  auto cluster_db = OpenClusterDb({node_a.server.port()});
  ASSERT_NE(nullptr, cluster_db);
  core::ExecutionOptions options = cluster_db->default_options();
  options.record_provenance = true;
  Session session = cluster_db->CreateSession(options);

  auto result = session.Query(W().queries().front().sql);
  ASSERT_TRUE(result.ok()) << result.status();
  // Traces do not travel the wire; the provenance run stayed local and
  // produced one (the scan record at minimum — key-only queries retrieve
  // no cells).
  EXPECT_FALSE(result->trace.scans.empty() && result->trace.cells.empty());
  EXPECT_EQ(0, cluster_db->cluster()->stats().queries);
  EXPECT_EQ(0, node_a.server.stats().partials_started);
}

TEST(ClusterE2eTest, OpenFailsWhenNoNodeIsReachable) {
  // Bind + close to get a port that is (very likely) not listening.
  net::Listener listener;
  ASSERT_TRUE(listener.Bind("127.0.0.1", 0, 4).ok());
  int dead_port = listener.port();
  listener.Close();

  DatabaseOptions options;
  options.workload = &W();
  cluster::NodeSpec spec;
  spec.port = dead_port;
  options.cluster.nodes.push_back(spec);
  options.cluster.connect_timeout_ms = 300;
  auto db = Database::Open(std::move(options));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(StatusCode::kIoError, db.status().code());
}

}  // namespace
}  // namespace galois
