#ifndef GALOIS_API_DATABASE_H_
#define GALOIS_API_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "cluster/cluster_options.h"
#include "common/cancel.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/galois_executor.h"
#include "core/llm_operators.h"
#include "core/materialisation_cache.h"
#include "core/options.h"
#include "knowledge/workload.h"
#include "llm/http_llm.h"
#include "llm/language_model.h"
#include "llm/model_profile.h"
#include "llm/resilience.h"
#include "store/result_store.h"

namespace galois {

namespace llm {
class ModelRouter;
}

namespace cluster {
class ClusterCoordinator;
}

/// The result of one query, as one self-contained value: the engine's
/// core::QueryOutput (relation, this query's own cost meter, provenance
/// trace, physical-plan report and core::QueryCounters) plus the measured
/// wall clock. Nothing here aliases shared state, so results from
/// concurrent sessions never interfere — the replacement for the old
/// per-executor `last_cost()/last_trace()/last_table_cache_*`
/// side-channels, which allowed one in-flight query per executor and no
/// safe sharing. The trace is populated only when the session's options
/// set record_provenance.
struct QueryResult : core::QueryOutput {
  /// Measured wall-clock time of the query.
  double wall_ms = 0.0;
};

/// A query dispatched with Session::QueryAsync: a joinable handle plus
/// the query's cancellation token. Join at most once; an abandoned
/// handle is safe (the query still runs to completion, its result is
/// dropped). Cancel() requests cooperative cancellation — the scheduler
/// stops issuing LLM round trips at the next dispatch boundary and Join
/// returns StatusCode::kCancelled.
struct AsyncQuery {
  CancelToken control;
  TaskHandle<Result<QueryResult>> handle;

  Result<QueryResult> Join() { return handle.Join(); }
  void Cancel() {
    if (control != nullptr) control->RequestCancel();
  }
};

/// One named model backend of a Database. Exactly one of `simulated`,
/// `http` or `external` must be set:
///  * simulated — the Database owns a SimulatedLlm with this profile over
///    its workload's world (requires the Database to have a workload);
///  * http      — the Database owns an HttpLlm transport;
///  * external  — a caller-owned LanguageModel (or stack) registered
///    as-is; it must outlive the Database.
/// The optional decorators wrap the transport in the recommended order
/// (resilience outside, prompt cache inside — the router, when routing
/// is configured, sits above all backends):
///   router -> resilience -> prompt cache -> transport.
struct BackendSpec {
  std::string name;
  std::optional<llm::ModelProfile> simulated;
  std::optional<llm::HttpLlmOptions> http;
  llm::LanguageModel* external = nullptr;

  /// Wrap the transport in a ResilientLlm with these knobs.
  std::optional<llm::ResilienceOptions> resilience;
  /// Wrap in a PromptCache (memoised completions shared by every query
  /// routed to this backend).
  bool prompt_cache = false;
};

/// Everything needed to open a Database — the one place that subsumes
/// the wiring every consumer used to hand-roll (model + catalog + caches
/// + router).
struct DatabaseOptions {
  /// The world + catalog + ground-truth instances. Borrowed when set
  /// (must outlive the Database); when null, the Database creates and
  /// owns the builtin SpiderLikeWorkload.
  const knowledge::SpiderLikeWorkload* workload = nullptr;

  /// Catalog override (borrowed): queries bind against this catalog
  /// instead of the workload's — e.g. a catalog with extra virtual
  /// tables. Simulated backends still ground on the workload.
  const catalog::Catalog* catalog = nullptr;

  /// Seed shared by every simulated backend.
  uint64_t llm_seed = 7;

  /// The model backends. Empty means one simulated backend with the
  /// ChatGpt profile. The first entry is the default backend unless
  /// `default_backend` names another.
  std::vector<BackendSpec> backends;
  std::string default_backend;

  /// Session defaults; every CreateSession() starts from this snapshot.
  /// `execution.phase_models` configures per-phase routing across the
  /// named backends (a ModelRouter is assembled iff routes exist or more
  /// than one backend is registered).
  core::ExecutionOptions execution;

  /// Cross-query materialisation cache: borrowed when
  /// `materialisation_cache` is set, owned when `enable_materialisation_
  /// cache` is true, absent otherwise. Setting BOTH is rejected by Open
  /// (kInvalidArgument) — the intent is ambiguous, and the old behaviour
  /// of silently preferring the borrowed pointer hid misconfigurations.
  ///
  /// Borrowed-cache contract: the cache must outlive every Database (and
  /// Session) using it. The cache is internally synchronised, so any
  /// number of Databases may share one — but when a persistent store is
  /// configured (`store.path`), this Database attaches its persistence
  /// sink to the borrowed cache for its lifetime, and at most one sink
  /// can be attached at a time: give at most one store-backed Database
  /// to a shared cache.
  core::MaterialisationCache* materialisation_cache = nullptr;
  bool enable_materialisation_cache = false;
  size_t materialisation_cache_entries = 64;

  /// Persistent on-disk result store (store::ResultStore): journals
  /// materialised tables and prompt completions so a process restart
  /// warm-starts both caches instead of re-billing the workload. An
  /// empty `store.path` disables persistence (the default). When set,
  /// Database::Open recovers the journal, preloads the materialisation
  /// cache (when one is configured) and every backend's PromptCache,
  /// and journals their traffic from then on. `store.env` injects a
  /// fault-scheduled filesystem in the crash tests.
  store::StoreOptions store;

  /// Scatter-gather execution across galoisd nodes: when `cluster.nodes`
  /// is non-empty, Open connects a cluster::ClusterCoordinator and every
  /// Session transparently scatters LLM-table materialisation across the
  /// nodes (src/cluster/). The nodes must serve the same catalog,
  /// workload and model configuration as this Database. Provenance-
  /// recording queries and queries with no LLM table still run locally.
  cluster::ClusterOptions cluster;

  /// Whether a backend named `name` is already declared (builders adding
  /// route targets use this to skip duplicates).
  bool HasBackend(const std::string& name) const {
    for (const BackendSpec& spec : backends) {
      if (spec.name == name) return true;
    }
    return false;
  }
};

class Session;

/// The top-level entry point: a process-wide handle that owns (or
/// borrows) the catalog, the LanguageModel stack and the shared caches,
/// and mints Sessions. One Database serves any number of concurrent
/// sessions; everything it exposes is immutable after Open, so no
/// locking is needed above the (internally synchronised) caches, learned
/// key-scan lengths and models.
///
/// Ownership/lifetime (see docs/ARCHITECTURE.md, "API layer"):
///
///   Database ──owns──> backends (transport + decorators), router,
///   │                  materialisation cache, key-scan lengths,
///   │                  workload (when builtin)
///   └─mints──> Session (borrows the Database; must not outlive it)
///        └─returns──> QueryResult (self-contained value, no aliasing)
class Database {
 public:
  /// Validates and wires everything up. kInvalidArgument on misconfigured
  /// backends (duplicate names, simulated backend without a workload,
  /// none-or-several of simulated/http/external set), kNotFound on routes
  /// or default_backend naming an unknown backend.
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// A new session with the Database's default execution options, or
  /// with session-specific options.
  Session CreateSession() const;
  Session CreateSession(core::ExecutionOptions options) const;

  /// The catalog queries bind against.
  const catalog::Catalog& catalog() const { return *catalog_; }

  /// The workload backing simulated backends; null for a Database opened
  /// over external backends with a bare catalog.
  const knowledge::SpiderLikeWorkload* workload() const {
    return workload_;
  }

  /// The top of the model stack (the router when one was assembled, else
  /// the single backend chain). Its cost() is the stack-wide meter over
  /// all sessions; per-query meters come from QueryResult::cost. Useful
  /// for the freeform QA baselines and spend dashboards.
  llm::LanguageModel* model() const { return model_; }

  /// The chain registered under `name` (for per-backend spend displays);
  /// null when unknown.
  llm::LanguageModel* backend(const std::string& name) const;

  /// An executor over this Database's model stack and catalog under
  /// `options`, with the materialisation cache and the learned key-scan
  /// lengths attached: the one way a Session, galoisd and the cluster
  /// coordinator run a query against this Database.
  core::GaloisExecutor Executor(core::ExecutionOptions options) const;

  /// The shared cross-query cache; null when disabled.
  core::MaterialisationCache* materialisation_cache() const {
    return table_cache_;
  }

  /// The persistent result store; null when DatabaseOptions::store.path
  /// was empty. Exposed for stats displays (`.store stats`) and explicit
  /// Vacuum()/Sync() calls; Put/Touch traffic flows through the cache
  /// hooks automatically.
  store::ResultStore* store() const { return store_.get(); }

  const core::ExecutionOptions& default_options() const {
    return execution_defaults_;
  }

  /// The scatter-gather coordinator; null unless DatabaseOptions::cluster
  /// named nodes. Exposed for stats displays (ClusterCoordinator::stats).
  cluster::ClusterCoordinator* cluster() const { return cluster_.get(); }

 private:
  friend class Session;

  Database() = default;

  const knowledge::SpiderLikeWorkload* workload_ = nullptr;
  const catalog::Catalog* catalog_ = nullptr;
  std::unique_ptr<knowledge::SpiderLikeWorkload> owned_workload_;

  /// Transports and decorators, in construction order (inner before
  /// outer, so destruction unwinds outer-first).
  std::vector<std::unique_ptr<llm::LanguageModel>> owned_models_;
  /// name -> top of that backend's decorator chain.
  std::vector<std::pair<std::string, llm::LanguageModel*>> backends_;
  std::unique_ptr<llm::ModelRouter> router_;
  llm::LanguageModel* model_ = nullptr;

  std::unique_ptr<core::MaterialisationCache> owned_table_cache_;
  core::MaterialisationCache* table_cache_ = nullptr;

  /// The lengths of the batched key scans this Database's queries ran
  /// (core::LlmKeyScan); internally synchronised, like the cache.
  mutable core::KeyScanLengths scan_lengths_;

  /// The persistent store and the sink adapter bridging the cache's
  /// mutation callbacks to it. The ~Database body detaches the sink
  /// (crucial for a *borrowed* cache, which outlives this Database) and
  /// closes the store before any member destructs, so no hook can ever
  /// call into a dead store.
  std::unique_ptr<store::ResultStore> store_;
  std::unique_ptr<core::MaterialisationSink> store_sink_;

  /// Non-null iff DatabaseOptions::cluster named nodes; Sessions route
  /// eligible queries through it (Session::RunSnapshot).
  std::unique_ptr<cluster::ClusterCoordinator> cluster_;

  core::ExecutionOptions execution_defaults_;
};

/// A per-client handle on a Database: a bundle of execution options plus
/// the Query entry points. Sessions are cheap values — create one per
/// client, per tenant, per experiment arm; all of them share the
/// Database's model stack and caches, and each query gets its own
/// exactly-attributed QueryResult.
///
/// Options rule (the `set_options` foot-gun, fixed): a session's options
/// are snapshotted at Query()/QueryAsync() entry, on the calling thread.
/// set_options between queries affects subsequent queries only; a query
/// already dispatched is never affected. A Session itself is not
/// thread-safe (set_options vs Query race on options_) — share the
/// Database across threads and give each thread its own Session, which
/// is the intended shape anyway.
class Session {
 public:
  /// Executes `sql` synchronously. `control` optionally carries a
  /// caller-held cancellation token; options().query_deadline_ms, when
  /// set, arms the deadline on it (or on an internal token).
  Result<QueryResult> Query(const std::string& sql,
                            CancelToken control = nullptr) const;

  /// Dispatches `sql` on the shared thread pool and returns immediately;
  /// many async queries — from one session or many — run concurrently
  /// against the same Database with byte-identical results and exact
  /// per-query cost meters. The options snapshot is taken *now*, on the
  /// calling thread, so a subsequent set_options cannot leak into the
  /// dispatched query.
  AsyncQuery QueryAsync(const std::string& sql,
                        CancelToken control = nullptr) const;

  const core::ExecutionOptions& options() const { return options_; }

  /// Replaces the options used by *subsequent* queries (see class
  /// comment for the snapshot rule).
  void set_options(core::ExecutionOptions options) {
    options_ = std::move(options);
  }

  /// The physical-plan report of this session's most recent successful
  /// query (QueryResult::physical_plan, kept so interactive callers can
  /// ask "what did that query just do?" after the fact — the shell's
  /// bare `.explain`). Empty before the first query. Guarded by a mutex
  /// shared across copies of the session: an async query completing on a
  /// pool thread publishes here safely.
  std::string Explain() const;

  const Database& database() const { return *db_; }

 private:
  friend class Database;

  /// Last-explain slot, shared (and synchronised) across session copies
  /// and async query tasks.
  struct ExplainState {
    std::mutex mu;
    std::string text;
  };

  Session(const Database* db, core::ExecutionOptions options)
      : db_(db),
        options_(std::move(options)),
        explain_(std::make_shared<ExplainState>()) {}

  /// Runs one query under an already-snapshotted options value,
  /// publishing the physical-plan report into `explain` on success.
  static Result<QueryResult> RunSnapshot(
      const Database* db, core::ExecutionOptions snapshot,
      const std::string& sql, std::shared_ptr<ExplainState> explain);

  const Database* db_;
  core::ExecutionOptions options_;
  std::shared_ptr<ExplainState> explain_;
};

}  // namespace galois

#endif  // GALOIS_API_DATABASE_H_
