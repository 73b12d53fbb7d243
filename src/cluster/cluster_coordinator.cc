#include "cluster/cluster_coordinator.h"

#include <chrono>
#include <thread>
#include <utility>

#include "core/galois_executor.h"
#include "llm/http_llm.h"
#include "llm/resilience.h"
#include "net/socket.h"

namespace galois::cluster {

namespace {

std::string EndpointName(const NodeSpec& spec) {
  return spec.host + ":" + std::to_string(spec.port);
}

}  // namespace

std::string ClusterStats::ToString() const {
  std::string out;
  out += "queries            " + std::to_string(queries) + "\n";
  out += "queries_local      " + std::to_string(queries_local) + "\n";
  out += "shards_dispatched  " + std::to_string(shards_dispatched) + "\n";
  out += "redispatches       " + std::to_string(redispatches) + "\n";
  for (const ClusterNodeStats& n : nodes) {
    out += "node " + n.endpoint + ": breaker=" + n.breaker +
           " dispatched=" + std::to_string(n.shards_dispatched) +
           " ok=" + std::to_string(n.shards_ok) +
           " faults=" + std::to_string(n.faults) +
           " reconnects=" + std::to_string(n.reconnects) +
           " reconnect_failures=" + std::to_string(n.reconnect_failures) +
           "\n";
  }
  return out;
}

ClusterCoordinator::ClusterCoordinator(const Database* db,
                                       ClusterOptions options)
    : db_(db), options_(std::move(options)) {
  nodes_.reserve(options_.nodes.size());
  for (const NodeSpec& spec : options_.nodes) {
    auto node = std::make_unique<NodeState>();
    node->spec = spec;
    nodes_.push_back(std::move(node));
  }
}

Result<std::unique_ptr<ClusterCoordinator>> ClusterCoordinator::Connect(
    const Database* db, ClusterOptions options) {
  if (db == nullptr) {
    return Status::InvalidArgument("cluster: null database");
  }
  if (options.nodes.empty()) {
    return Status::InvalidArgument("cluster: no nodes configured");
  }
  std::unique_ptr<ClusterCoordinator> coord(
      new ClusterCoordinator(db, std::move(options)));
  int reachable = 0;
  std::string last_error;
  for (size_t i = 0; i < coord->nodes_.size(); ++i) {
    NodeState* node = coord->nodes_[i].get();
    Result<std::unique_ptr<net::GaloisClient>> client =
        coord->AcquireClient(node);
    Status ping = client.ok() ? client.value()->Ping() : client.status();
    if (ping.ok()) {
      ++reachable;
      std::lock_guard<std::mutex> lock(coord->mu_);
      node->consecutive_faults = 0;
      coord->ReleaseClient(node, std::move(client).value());
    } else {
      // The node starts with one recorded fault; dispatch will probe it
      // again (well short of opening its breaker).
      last_error = EndpointName(node->spec) + ": " + ping.message();
      std::lock_guard<std::mutex> lock(coord->mu_);
      ++node->faults;
      ++node->consecutive_faults;
      node->last_fault_ms = net::NowMs();
    }
  }
  if (reachable == 0) {
    return Status::IoError("cluster: no node reachable (last: " + last_error +
                           ")");
  }
  return coord;
}

size_t ClusterCoordinator::PreferredNode(const std::string& table) const {
  // FNV-1a: stable across runs and processes, so a table's shards always
  // land on the same node and that node's materialisation-cache history
  // for the table matches what a single local Database would have built.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : table) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h % nodes_.size());
}

bool ClusterCoordinator::BreakerAllowsLocked(const NodeState& node,
                                             int64_t now_ms) const {
  if (options_.failure_threshold <= 0) return true;  // breaker disabled
  if (node.consecutive_faults < options_.failure_threshold) return true;
  // Open; allow one probe dispatch once the cooldown has passed
  // (half-open). A failed probe refreshes last_fault_ms.
  return now_ms - node.last_fault_ms >= options_.cooldown_ms;
}

Result<std::unique_ptr<net::GaloisClient>> ClusterCoordinator::AcquireClient(
    NodeState* node) const {
  {
    std::lock_guard<std::mutex> lock(node->pool_mu);
    if (!node->pool.empty()) {
      std::unique_ptr<net::GaloisClient> client = std::move(node->pool.back());
      node->pool.pop_back();
      return client;
    }
  }
  net::ClientOptions copts;
  copts.host = node->spec.host;
  copts.port = node->spec.port;
  copts.connect_timeout_ms = options_.connect_timeout_ms;
  copts.io_timeout_ms = options_.io_timeout_ms;
  copts.reconnect_attempts = options_.reconnect_attempts;
  copts.reconnect_backoff_ms = options_.reconnect_backoff_ms;
  GALOIS_ASSIGN_OR_RETURN(net::GaloisClient client,
                          net::GaloisClient::Connect(std::move(copts)));
  return std::make_unique<net::GaloisClient>(std::move(client));
}

void ClusterCoordinator::ReleaseClient(
    NodeState* node, std::unique_ptr<net::GaloisClient> client) const {
  std::lock_guard<std::mutex> lock(node->pool_mu);
  node->pool.push_back(std::move(client));
}

Result<net::PartialQueryResponse> ClusterCoordinator::DispatchShard(
    const net::PartialQueryRequest& request, size_t preferred) const {
  Status last =
      Status::IoError("cluster: every node's breaker is open for shard '" +
                      request.alias + "'");
  bool attempted = false;
  for (size_t k = 0; k < nodes_.size(); ++k) {
    const size_t idx = (preferred + k) % nodes_.size();
    NodeState* node = nodes_[idx].get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!BreakerAllowsLocked(*node, net::NowMs())) continue;
      ++node->dispatches;
      ++shards_dispatched_;
      if (attempted) ++redispatches_;
    }
    attempted = true;
    Result<std::unique_ptr<net::GaloisClient>> client = AcquireClient(node);
    Result<net::PartialQueryResponse> response =
        client.ok() ? client.value()->PartialQuery(request)
                    : Result<net::PartialQueryResponse>(client.status());
    if (response.ok()) {
      ReleaseClient(node, std::move(client).value());
      if (response.value().table != request.table ||
          response.value().alias != request.alias) {
        // Deterministic: the node answered a different shard than asked.
        return Status::ParseError("cluster: node " + EndpointName(node->spec) +
                                  " answered the wrong shard");
      }
      std::lock_guard<std::mutex> lock(mu_);
      ++node->ok;
      node->consecutive_faults = 0;
      return response;
    }
    if (client.ok()) ReleaseClient(node, std::move(client).value());
    const Status& s = response.status();
    const bool node_fault = s.code() == StatusCode::kIoError ||
                            llm::IsRetryableLlmError(s);
    if (!node_fault) {
      // Deterministic failure (plan error, version skew, exceeded
      // deadline): every node would answer the same — propagate, exactly
      // like the facade, and leave the node's health alone.
      return s;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++node->faults;
      ++node->consecutive_faults;
      node->last_fault_ms = net::NowMs();
    }
    last = s;
  }
  return last;
}

Result<QueryResult> ClusterCoordinator::RunLocal(
    const std::string& sql, const core::ExecutionOptions& snapshot) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++queries_local_;
  }
  GALOIS_ASSIGN_OR_RETURN(core::QueryOutput out,
                          db_->Executor(snapshot).RunSql(sql));
  return QueryResult{std::move(out)};
}

Result<QueryResult> ClusterCoordinator::Query(
    const std::string& sql, const core::ExecutionOptions& snapshot) const {
  const auto started = std::chrono::steady_clock::now();
  auto finish = [&started](QueryResult result) {
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - started)
                         .count();
    return result;
  };

  // Scatter plan: parse/plan errors surface here, facade-identically,
  // before anything touches the network.
  GALOIS_ASSIGN_OR_RETURN(std::vector<core::ShardSpec> shards,
                          db_->Executor(snapshot).PlanShards(sql));
  if (shards.empty()) {
    GALOIS_ASSIGN_OR_RETURN(QueryResult local, RunLocal(sql, snapshot));
    return finish(std::move(local));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++queries_;
  }

  const int64_t deadline_ms = snapshot.query_deadline_ms > 0
                                  ? snapshot.query_deadline_ms
                                  : options_.shard_deadline_ms;

  // One dispatch per shard, in FROM order, each starting at its table's
  // affinity node (cache-history parity with the facade).
  std::vector<net::PartialQueryRequest> requests(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    static_cast<core::ShardSpec&>(requests[i]) = std::move(shards[i]);
    requests[i].sql = sql;
    requests[i].deadline_ms = deadline_ms;
  }

  // Scatter on dedicated threads, one per shard, not on the shared
  // pool: a dispatch holds its thread for a whole remote shard (a
  // blocking RPC). On the pool it would park a worker that local phase
  // tasks could use, and claim-on-join cannot run it inline without
  // serialising the scatter, so a saturated pool would send the shards
  // out one after another.
  std::vector<Result<net::PartialQueryResponse>> responses(
      requests.size(), Status::Internal("cluster: shard not dispatched"));
  {
    std::vector<std::thread> threads;
    threads.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      threads.emplace_back([this, &requests, &responses, i]() {
        responses[i] =
            DispatchShard(requests[i], PreferredNode(requests[i].table));
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // First failure in FROM order wins — the order the facade's sequential
  // executor would have hit it.
  for (const Result<net::PartialQueryResponse>& r : responses) {
    if (!r.ok()) return r.status();
  }

  // Gather: sum the shard meters in FROM order, overlay the partial
  // relations into a local merge run (which spends zero prompts — every
  // materialisation was billed on the nodes).
  llm::CostMeter cost;
  core::QueryCounters counters;
  std::vector<core::TableOverlay> overlays;
  overlays.reserve(responses.size());
  for (Result<net::PartialQueryResponse>& r : responses) {
    cost += r.value().cost;
    counters += r.value();
    overlays.push_back({r.value().alias, std::move(r.value().relation)});
  }

  GALOIS_ASSIGN_OR_RETURN(
      core::QueryOutput out,
      db_->Executor(snapshot).RunSqlWithOverlays(sql, std::move(overlays)));
  cost += out.cost;  // non-LLM residue of the merge run (normally zero)

  QueryResult result{std::move(out)};
  result.cost = std::move(cost);
  result += counters;
  return finish(std::move(result));
}

ClusterStats ClusterCoordinator::stats() const {
  ClusterStats s;
  std::vector<ClusterNodeStats> nodes(nodes_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queries = queries_;
    s.queries_local = queries_local_;
    s.shards_dispatched = shards_dispatched_;
    s.redispatches = redispatches_;
    const int64_t now = net::NowMs();
    for (size_t i = 0; i < nodes_.size(); ++i) {
      const NodeState& node = *nodes_[i];
      ClusterNodeStats& n = nodes[i];
      n.endpoint = EndpointName(node.spec);
      llm::CircuitState state = llm::CircuitState::kClosed;
      if (options_.failure_threshold > 0 &&
          node.consecutive_faults >= options_.failure_threshold) {
        state = (now - node.last_fault_ms >= options_.cooldown_ms)
                    ? llm::CircuitState::kHalfOpen
                    : llm::CircuitState::kOpen;
      }
      n.breaker = llm::CircuitStateName(state);
      n.breaker_open = state != llm::CircuitState::kClosed;
      n.shards_dispatched = node.dispatches;
      n.shards_ok = node.ok;
      n.faults = node.faults;
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    NodeState* node = nodes_[i].get();
    std::lock_guard<std::mutex> lock(node->pool_mu);
    for (const std::unique_ptr<net::GaloisClient>& client : node->pool) {
      nodes[i].reconnects += client->client_stats().reconnects;
      nodes[i].reconnect_failures += client->client_stats().reconnect_failures;
    }
  }
  s.nodes = std::move(nodes);
  return s;
}

}  // namespace galois::cluster
