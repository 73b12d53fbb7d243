#ifndef GALOIS_CLUSTER_CLUSTER_OPTIONS_H_
#define GALOIS_CLUSTER_CLUSTER_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace galois::cluster {

/// One galoisd endpoint the coordinator scatters shards to.
struct NodeSpec {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Configuration of a ClusterCoordinator, embedded in DatabaseOptions
/// (dependency-free on purpose: api/database.h includes this header, and
/// the coordinator proper includes api/database.h).
///
/// Every node must serve the same catalog, workload and model
/// configuration (same seed for simulated backends) as the coordinator's
/// own Database — the coordinator plans locally and dispatches shards on
/// the assumption that a node re-planning the same SQL lands on the same
/// shard, which the partial-query protocol verifies per dispatch
/// (descriptor match) but cannot repair. A shard is one LLM table of the
/// query, materialised whole on one node; width inside a table is the
/// node's own (ExecutionOptions::parallel_batches), not the cluster's.
struct ClusterOptions {
  /// Empty = no cluster; Database::Open runs everything locally.
  std::vector<NodeSpec> nodes;

  /// Transport knobs for the per-node GaloisClient pools.
  int64_t connect_timeout_ms = 2000;
  int64_t io_timeout_ms = 10000;
  /// Per-shard deadline sent to nodes (0 = none).
  int64_t shard_deadline_ms = 0;
  /// Bounded auto-reconnect of a pooled client whose connection was
  /// poisoned by an earlier fault (GaloisClient's entry-only reconnect).
  int reconnect_attempts = 2;
  int64_t reconnect_backoff_ms = 50;

  /// Node-level circuit breaker: this many consecutive shard faults
  /// (transport faults or retryable server errors) open the breaker —
  /// the node is skipped at dispatch until cooldown_ms has passed, then
  /// probed again half-open.
  int failure_threshold = 3;
  int64_t cooldown_ms = 2000;
};

}  // namespace galois::cluster

#endif  // GALOIS_CLUSTER_CLUSTER_OPTIONS_H_
