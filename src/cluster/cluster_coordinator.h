#ifndef GALOIS_CLUSTER_CLUSTER_COORDINATOR_H_
#define GALOIS_CLUSTER_CLUSTER_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/database.h"
#include "cluster/cluster_options.h"
#include "common/result.h"
#include "net/galois_client.h"
#include "net/protocol.h"

namespace galois::cluster {

/// Health and traffic of one cluster node, as reported by
/// ClusterCoordinator::stats().
struct ClusterNodeStats {
  std::string endpoint;  // "host:port"
  /// Breaker state name ("closed" / "open" / "half-open",
  /// llm::CircuitStateName): consecutive shard faults past
  /// ClusterOptions::failure_threshold open the breaker, cooldown_ms
  /// later it half-opens for a probe dispatch.
  std::string breaker;
  bool breaker_open = false;
  int64_t shards_dispatched = 0;
  int64_t shards_ok = 0;
  /// Transport faults + retryable server errors attributed to the node.
  int64_t faults = 0;
  /// Pooled-client auto-reconnect counters (summed over idle clients;
  /// clients checked out at snapshot time are not included).
  int64_t reconnects = 0;
  int64_t reconnect_failures = 0;
};

/// Aggregate scatter-gather statistics.
struct ClusterStats {
  /// Queries routed through the cluster (at least one LLM shard).
  int64_t queries = 0;
  /// Queries executed locally on the coordinator (no LLM table).
  int64_t queries_local = 0;
  /// Shard dispatches attempted, including failover re-dispatches.
  int64_t shards_dispatched = 0;
  /// Failover re-dispatches: attempts made after a previous node failed
  /// the same shard mid-query.
  int64_t redispatches = 0;
  std::vector<ClusterNodeStats> nodes;

  /// Human-readable one-per-line rendering (ServerStats::ToString's
  /// sibling).
  std::string ToString() const;
};

/// Scatter-gather execution across N galoisd nodes, behind the
/// Database/Session facade (Database::Open constructs one when
/// DatabaseOptions::cluster.nodes is non-empty; Session routes through
/// it transparently).
///
/// Per query: the coordinator compiles the query locally and lists its
/// LLM tables as shard specs (GaloisExecutor::PlanShards); each shard is
/// dispatched as a kPartialQuery frame to a node chosen by stable table
/// affinity (FNV-1a of the table name — so a table's materialisation
/// cache history lives on one node, and per-query meters stay
/// byte-identical to the single-Database facade); partial relations come
/// back with per-shard CostMeter slices, are injected as table overlays
/// into a local merge run (zero LLM spend — every prompt was billed on
/// the nodes), and the shard meters sum into the query's meter in FROM
/// order. Queries with no LLM table, and provenance-recording queries
/// (traces do not travel; see net/protocol.h), run locally.
///
/// Failover: a transport fault or retryable server error (admission
/// rejection, drain) re-dispatches the lost shard to the next healthy
/// node — the re-run's round trips are re-billed, relations stay
/// byte-identical (the shard either never executed or its result was
/// lost with the node). Deterministic errors (plan errors, version-skew
/// shard mismatches) propagate immediately, first-in-FROM-order, exactly
/// like the facade. Consecutive faults past failure_threshold open a
/// node-level breaker: the node is skipped at dispatch until cooldown_ms
/// passes, then probed half-open.
///
/// Thread-safe: Query may be called from any number of sessions
/// concurrently. Connections are pooled per node (GaloisClient is
/// single-threaded; a client is checked out per dispatch).
class ClusterCoordinator {
 public:
  /// Verifies at least one node answers a ping (unreachable nodes start
  /// with one recorded fault), then returns the coordinator. `db` is
  /// borrowed and must outlive it.
  static Result<std::unique_ptr<ClusterCoordinator>> Connect(
      const Database* db, ClusterOptions options);

  ClusterCoordinator(const ClusterCoordinator&) = delete;
  ClusterCoordinator& operator=(const ClusterCoordinator&) = delete;

  /// Executes `sql` under the session's options snapshot. The snapshot
  /// must match the nodes' default execution options — shards execute
  /// remotely under node defaults, and the partial-query protocol
  /// rejects descriptor mismatches as version skew.
  Result<QueryResult> Query(const std::string& sql,
                            const core::ExecutionOptions& snapshot) const;

  /// Consistent snapshot of per-node health and aggregate counters.
  ClusterStats stats() const;

 private:
  /// One node: its endpoint, a checkout pool of single-threaded clients,
  /// and breaker health. Pool under its own mutex; health and counters
  /// under the coordinator-wide mu_.
  struct NodeState {
    NodeSpec spec;
    std::mutex pool_mu;
    std::vector<std::unique_ptr<net::GaloisClient>> pool;  // idle clients
    // Guarded by ClusterCoordinator::mu_:
    int64_t consecutive_faults = 0;
    int64_t last_fault_ms = 0;
    int64_t dispatches = 0;
    int64_t ok = 0;
    int64_t faults = 0;
  };

  ClusterCoordinator(const Database* db, ClusterOptions options);

  /// Stable shard-to-node affinity (FNV-1a of the table name).
  size_t PreferredNode(const std::string& table) const;
  /// Breaker gate: closed, or open with the cooldown expired (half-open
  /// probe). Caller holds mu_.
  bool BreakerAllowsLocked(const NodeState& node, int64_t now_ms) const;

  Result<std::unique_ptr<net::GaloisClient>> AcquireClient(
      NodeState* node) const;
  void ReleaseClient(NodeState* node,
                     std::unique_ptr<net::GaloisClient> client) const;

  /// Dispatches one shard starting at `preferred`, re-dispatching to the
  /// next healthy node on node faults; deterministic errors return
  /// immediately. kIoError, with nothing dispatched, when every node's
  /// breaker is open.
  Result<net::PartialQueryResponse> DispatchShard(
      const net::PartialQueryRequest& request, size_t preferred) const;

  /// The facade-identical local path for queries with no LLM shard.
  Result<QueryResult> RunLocal(const std::string& sql,
                               const core::ExecutionOptions& snapshot) const;

  const Database* db_;
  ClusterOptions options_;
  std::vector<std::unique_ptr<NodeState>> nodes_;

  mutable std::mutex mu_;  // health + aggregate counters
  mutable int64_t queries_ = 0;
  mutable int64_t queries_local_ = 0;
  mutable int64_t shards_dispatched_ = 0;
  mutable int64_t redispatches_ = 0;
};

}  // namespace galois::cluster

#endif  // GALOIS_CLUSTER_CLUSTER_COORDINATOR_H_
