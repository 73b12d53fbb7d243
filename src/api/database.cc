#include "api/database.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cluster/cluster_coordinator.h"
#include "llm/model_router.h"
#include "llm/prompt_cache.h"
#include "llm/resilience.h"
#include "llm/simulated_llm.h"

namespace galois {

namespace {

/// The implicit single-backend configuration of a DatabaseOptions with no
/// backends: the ChatGpt profile, undecorated.
BackendSpec DefaultBackend() {
  BackendSpec spec;
  spec.simulated = llm::ModelProfile::ChatGpt();
  spec.name = spec.simulated->name;
  return spec;
}

/// Bridges MaterialisationCache mutations into the journal. Append
/// failures are swallowed by design: the store marks itself dead on the
/// first error and the query proceeds uncached (failure policy in
/// store/result_store.h).
class StoreMaterialisationSink : public core::MaterialisationSink {
 public:
  explicit StoreMaterialisationSink(store::ResultStore* store)
      : store_(store) {}

  void OnInsert(const std::string& base_key, const std::string& descriptor,
                const std::vector<std::string>& columns,
                const std::vector<Tuple>& rows) override {
    store_
        ->PutMaterialisation(
            core::MaterialisationStoreKey(base_key, descriptor), columns,
            rows, base_key, descriptor)
        .IgnoreError();
  }
  void OnHit(const std::string& base_key,
             const std::string& descriptor) override {
    store_->TouchMaterialisation(
        core::MaterialisationStoreKey(base_key, descriptor));
  }
  void OnClear() override { store_->ClearMaterialisations().IgnoreError(); }

 private:
  store::ResultStore* store_;
};

}  // namespace

Database::~Database() {
  // Detach every persistence hook before anything is torn down: the
  // table cache may be *borrowed* (it outlives this Database), and no
  // callback may reach the store once it is closed.
  if (store_ != nullptr) {
    if (table_cache_ != nullptr) table_cache_->SetSink(nullptr);
    store_sink_.reset();
    store_.reset();  // syncs per durability mode
  }
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  // unique_ptr from the start: backends capture pointers into the
  // Database (workload KB, inner chains), so its address must be final
  // before any of them is constructed.
  std::unique_ptr<Database> db(new Database());

  if (options.materialisation_cache != nullptr &&
      options.enable_materialisation_cache) {
    return Status::InvalidArgument(
        "DatabaseOptions sets both materialisation_cache (borrow) and "
        "enable_materialisation_cache (own); pick one");
  }

  std::vector<BackendSpec> specs = std::move(options.backends);
  if (specs.empty()) specs.push_back(DefaultBackend());

  // --- world + catalog ------------------------------------------------
  // The builtin workload is only built when something needs it: a
  // simulated backend grounds on its world, and queries need its
  // catalog unless the caller supplied one. A Database over external/
  // HTTP backends with its own catalog keeps workload() null.
  bool needs_workload = options.catalog == nullptr;
  for (const BackendSpec& spec : specs) {
    if (spec.simulated.has_value()) needs_workload = true;
  }
  if (options.workload != nullptr) {
    db->workload_ = options.workload;
  } else if (needs_workload) {
    GALOIS_ASSIGN_OR_RETURN(knowledge::SpiderLikeWorkload workload,
                            knowledge::SpiderLikeWorkload::Create());
    db->owned_workload_ = std::make_unique<knowledge::SpiderLikeWorkload>(
        std::move(workload));
    db->workload_ = db->owned_workload_.get();
  }
  db->catalog_ = options.catalog != nullptr ? options.catalog
                                            : &db->workload_->catalog();

  // --- backends: transport + per-backend decorators --------------------
  // Every PromptCache built below is remembered so a configured store
  // can preload it and attach its persistence hooks.
  std::vector<llm::PromptCache*> prompt_caches;
  for (const BackendSpec& spec : specs) {
    if (spec.name.empty()) {
      return Status::InvalidArgument("backend with empty name");
    }
    for (const auto& [existing, chain] : db->backends_) {
      (void)chain;
      if (existing == spec.name) {
        return Status::InvalidArgument("duplicate backend name '" +
                                       spec.name + "'");
      }
    }
    const int sources = (spec.simulated.has_value() ? 1 : 0) +
                        (spec.http.has_value() ? 1 : 0) +
                        (spec.external != nullptr ? 1 : 0);
    if (sources != 1) {
      return Status::InvalidArgument(
          "backend '" + spec.name +
          "' must set exactly one of simulated/http/external");
    }
    llm::LanguageModel* chain = nullptr;
    if (spec.simulated.has_value()) {
      db->owned_models_.push_back(std::make_unique<llm::SimulatedLlm>(
          &db->workload_->kb(), *spec.simulated, &db->workload_->catalog(),
          options.llm_seed));
      chain = db->owned_models_.back().get();
    } else if (spec.http.has_value()) {
      db->owned_models_.push_back(
          std::make_unique<llm::HttpLlm>(*spec.http));
      chain = db->owned_models_.back().get();
    } else {
      chain = spec.external;
    }
    if (spec.prompt_cache) {
      auto cache = std::make_unique<llm::PromptCache>(chain);
      prompt_caches.push_back(cache.get());
      db->owned_models_.push_back(std::move(cache));
      chain = db->owned_models_.back().get();
    }
    if (spec.resilience.has_value()) {
      db->owned_models_.push_back(
          std::make_unique<llm::ResilientLlm>(chain, *spec.resilience));
      chain = db->owned_models_.back().get();
    }
    db->backends_.emplace_back(spec.name, chain);
  }

  // --- default backend + router ----------------------------------------
  std::string default_name = options.default_backend.empty()
                                 ? db->backends_.front().first
                                 : options.default_backend;
  if (db->backend(default_name) == nullptr) {
    return Status::NotFound("default_backend '" + default_name +
                            "' is not a registered backend");
  }
  const bool need_router = db->backends_.size() > 1 ||
                           !options.execution.phase_models.empty();
  if (need_router) {
    auto router = std::make_unique<llm::ModelRouter>();
    for (const auto& [name, chain] : db->backends_) {
      GALOIS_RETURN_IF_ERROR(router->AddBackend(name, chain));
    }
    GALOIS_RETURN_IF_ERROR(router->SetDefaultBackend(default_name));
    GALOIS_RETURN_IF_ERROR(
        router->ConfigureRoutes(options.execution.phase_models));
    db->router_ = std::move(router);
    db->model_ = db->router_.get();
  } else {
    db->model_ = db->backends_.front().second;
  }

  // --- shared caches + session defaults --------------------------------
  if (options.materialisation_cache != nullptr) {
    db->table_cache_ = options.materialisation_cache;
  } else if (options.enable_materialisation_cache) {
    db->owned_table_cache_ = std::make_unique<core::MaterialisationCache>(
        options.materialisation_cache_entries);
    db->table_cache_ = db->owned_table_cache_.get();
  }
  db->execution_defaults_ = std::move(options.execution);

  // --- persistent store: recover, warm-start, attach hooks -------------
  if (!options.store.path.empty()) {
    GALOIS_ASSIGN_OR_RETURN(db->store_,
                            store::ResultStore::Open(options.store));
    store::ResultStore* st = db->store_.get();
    // Warm-start strictly before attaching hooks, so recovered entries
    // are never re-journaled as fresh inserts.
    if (db->table_cache_ != nullptr) {
      st->ForEachMaterialisation(
          [cache = db->table_cache_](const std::string& store_key,
                                     const std::string& base_key,
                                     const std::string& descriptor,
                                     const std::vector<std::string>& columns,
                                     const std::vector<Tuple>& rows) {
            // Records from before predicate subsumption carry no
            // structured key halves; without them the entry cannot
            // participate in lookups, so it is skipped (a one-time cache
            // miss — the re-bought entry is journaled in the new form).
            (void)store_key;
            if (base_key.empty()) return;
            cache->WarmStart(base_key, descriptor, columns, rows);
          });
      db->store_sink_ = std::make_unique<StoreMaterialisationSink>(st);
      db->table_cache_->SetSink(db->store_sink_.get());
    }
    if (!prompt_caches.empty()) {
      // A prompt record belongs to the backend whose (inner) model name
      // matches — a PromptCache reports its transport's name, so cached
      // completions can never cross models with the same backend label.
      st->ForEachPrompt([&prompt_caches](const std::string& model,
                                         const std::string& text,
                                         const std::string& completion) {
        for (llm::PromptCache* cache : prompt_caches) {
          if (cache->name() == model) cache->Preload(text, completion);
        }
      });
      for (llm::PromptCache* cache : prompt_caches) {
        const std::string model = cache->name();
        llm::PromptCacheHooks hooks;
        hooks.on_insert = [st, model](const std::string& text,
                                      const std::string& completion) {
          st->PutPrompt(model, text, completion).IgnoreError();
        };
        hooks.on_hit = [st, model](const std::string& text) {
          st->TouchPrompt(model, text);
        };
        hooks.on_clear = [st] { st->ClearPrompts().IgnoreError(); };
        cache->SetHooks(std::move(hooks));
      }
    }
  }

  // Cluster coordinator last: it needs the fully-wired Database (model
  // stack, catalog, cache) to plan shards and run local/merge stages.
  if (!options.cluster.nodes.empty()) {
    Result<std::unique_ptr<cluster::ClusterCoordinator>> coord =
        cluster::ClusterCoordinator::Connect(db.get(),
                                             std::move(options.cluster));
    if (!coord.ok()) return coord.status();
    db->cluster_ = std::move(coord).value();
  }

  return db;
}

llm::LanguageModel* Database::backend(const std::string& name) const {
  for (const auto& [backend_name, chain] : backends_) {
    if (backend_name == name) return chain;
  }
  return nullptr;
}

core::GaloisExecutor Database::Executor(
    core::ExecutionOptions options) const {
  core::GaloisExecutor executor(model_, catalog_, std::move(options));
  executor.set_materialisation_cache(table_cache_);
  executor.set_scan_lengths(&scan_lengths_);
  return executor;
}

Session Database::CreateSession() const {
  return Session(this, execution_defaults_);
}

Session Database::CreateSession(core::ExecutionOptions options) const {
  return Session(this, std::move(options));
}

Result<QueryResult> Session::RunSnapshot(
    const Database* db, core::ExecutionOptions snapshot,
    const std::string& sql, std::shared_ptr<ExplainState> explain) {
  // Cluster deployments scatter the query's LLM-table materialisation
  // across the nodes (provenance-recording queries excepted: per-cell
  // prompt traces do not travel, so they run locally for fidelity). The
  // coordinator measures wall_ms itself.
  if (db->cluster_ != nullptr && !snapshot.record_provenance) {
    Result<QueryResult> result = db->cluster_->Query(sql, snapshot);
    if (result.ok() && explain != nullptr) {
      std::lock_guard<std::mutex> lock(explain->mu);
      explain->text = result.value().physical_plan;
    }
    return result;
  }

  const auto start = std::chrono::steady_clock::now();
  GALOIS_ASSIGN_OR_RETURN(core::QueryOutput out,
                          db->Executor(std::move(snapshot)).RunSql(sql));
  QueryResult result{std::move(out)};
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (explain != nullptr) {
    std::lock_guard<std::mutex> lock(explain->mu);
    explain->text = result.physical_plan;
  }
  return result;
}

std::string Session::Explain() const {
  std::lock_guard<std::mutex> lock(explain_->mu);
  return explain_->text;
}

Result<QueryResult> Session::Query(const std::string& sql,
                                   CancelToken control) const {
  core::ExecutionOptions snapshot = options_;  // per-query immutability
  if (snapshot.query_deadline_ms > 0) {
    // The deadline is armed on a fresh token chained onto the caller's
    // (if any): a caller-supplied token may already be shared with
    // other in-flight queries, so it is never mutated here.
    auto armed = std::make_shared<CancelState>(std::move(control));
    armed->ArmDeadline(snapshot.query_deadline_ms);
    control = std::move(armed);
  }
  if (control != nullptr) snapshot.control = control;
  return RunSnapshot(db_, std::move(snapshot), sql, explain_);
}

AsyncQuery Session::QueryAsync(const std::string& sql,
                               CancelToken control) const {
  // Snapshot options and arm the token on the *calling* thread: whatever
  // the caller does to the session afterwards, this query's behaviour is
  // sealed here.
  core::ExecutionOptions snapshot = options_;
  if (control == nullptr) control = std::make_shared<CancelState>();
  if (snapshot.query_deadline_ms > 0) {
    // As in Query: arm a private chained token, never the caller's.
    auto armed = std::make_shared<CancelState>(std::move(control));
    armed->ArmDeadline(snapshot.query_deadline_ms);
    control = std::move(armed);
  }
  snapshot.control = control;

  AsyncQuery pending;
  pending.control = control;
  // The shared pool hosts the query task; its nested fan-out (table and
  // column tasks, chunk pullers) is deadlock-free by
  // TaskHandle's claim-on-join, so arbitrarily many queries may be in
  // flight against the bounded pool.
  pending.handle = TaskHandle<Result<QueryResult>>::Launch(
      ThreadPool::Shared(),
      [db = db_, snapshot = std::move(snapshot), sql,
       explain = explain_]() mutable {
        return RunSnapshot(db, std::move(snapshot), sql,
                           std::move(explain));
      });
  return pending;
}

}  // namespace galois
