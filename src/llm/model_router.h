#ifndef GALOIS_LLM_MODEL_ROUTER_H_
#define GALOIS_LLM_MODEL_ROUTER_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "llm/language_model.h"

namespace galois::llm {

/// Canonical routing phase of a prompt, derived from its structured
/// intent. These names line up with the BatchScheduler phase-label
/// prefixes the executor already emits ("key-scan:city",
/// "filter-check:population", "attribute:mayor", "verify:gdp"), so an
/// error message, a route and a cost line all speak the same vocabulary.
/// Returns one of: "key-scan", "filter-check", "attribute", "verify",
/// "freeform".
const std::string& PhaseOfIntent(const PromptIntent& intent);

/// The five routable phase names, in plan order.
const std::vector<std::string>& RoutablePhases();

/// Per-phase routing decorator: the top of the recommended backend stack
/// (router -> resilience -> cache -> transport). GaloisExecutor keeps
/// talking to one LanguageModel; the router sends each prompt to the
/// backend registered for its phase — the paper's cost-model lever made
/// operational: key scans, filter checks and attribute completion go to a
/// cheap model while critic verification ("verification is easier than
/// generation") goes to a strong one. ExecutionOptions::phase_models is
/// the configuration surface; eval/shell/examples feed it to
/// ConfigureRoutes.
///
/// CompleteBatchMetered partitions a mixed batch by target backend,
/// issues one inner batch call per backend involved, and reassembles
/// completions in input order; executor phases are intent-homogeneous, so
/// in practice a chunk rides exactly one inner round trip. Any backend
/// failure fails the whole call with no partial completions and no usage
/// reported (the batch contract).
///
/// cost() sums the meters of all distinct backends (deduped by pointer,
/// so two aliases of one model are not double-counted), prompt-store
/// hits included; the per-backend by_model slices land in eval's
/// FormatCostStats breakdown.
///
/// Thread-safety: routing-table mutations are mutex-guarded, and the
/// completion calls only read it, so routing is safe under
/// parallel_batches; reconfigure between queries, not mid-flight (an
/// in-flight phase may use either route). Whether the backends tolerate
/// concurrent calls is theirs to declare: thread_safe() is their AND.
class ModelRouter : public LanguageModel {
 public:
  ModelRouter();

  /// Registers `model` (non-owning; must outlive the router) under
  /// `backend`. The first registered backend becomes the default.
  /// kAlreadyExists on duplicate names.
  Status AddBackend(const std::string& backend, LanguageModel* model);

  /// kNotFound unless `backend` is registered.
  Status SetDefaultBackend(const std::string& backend);

  /// Routes `phase` ("critic" is accepted as an alias of "verify") to
  /// `backend`. kInvalidArgument for unknown phases, kNotFound for
  /// unknown backends.
  Status SetRoute(const std::string& phase, const std::string& backend);

  /// Applies ExecutionOptions::phase_models wholesale (clears existing
  /// routes first). On error the previous routes are restored.
  Status ConfigureRoutes(const std::map<std::string, std::string>& routes);

  /// Current routes as phase -> backend name (unrouted phases use the
  /// default and are absent).
  std::map<std::string, std::string> routes() const;

  /// The backend a prompt with `intent` would be sent to (nullptr before
  /// any backend is registered).
  LanguageModel* BackendFor(const PromptIntent& intent) const;

  // --- LanguageModel -------------------------------------------------------

  /// "router(default)" — display-only; per-backend attribution uses the
  /// backends' own names via by_model. Like the routing table, the name
  /// must not be read concurrently with AddBackend/SetDefaultBackend
  /// (configure before issuing traffic).
  const std::string& name() const override;

  /// True only when every registered backend is: one serial backend
  /// makes the whole router serial.
  bool thread_safe() const override;

  /// Forward the usage pointer to the routed backend(s); a mixed batch
  /// accumulates one slice per backend involved, so a per-query meter
  /// shows the same per-backend breakdown as cost().
  Result<Completion> CompleteMetered(const Prompt& prompt,
                                     CostMeter* usage) override;
  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override;

  CostMeter cost() const override;
  void ResetCost() override;

 private:
  struct Backend {
    std::string backend_name;
    LanguageModel* model = nullptr;
  };

  LanguageModel* BackendForLocked(const PromptIntent& intent) const;

  mutable std::mutex mu_;
  std::vector<Backend> backends_;                 // registration order
  std::map<std::string, size_t> routes_;          // phase -> backends_ index
  size_t default_index_ = 0;
  std::string name_;  // recomputed on registration/default changes
  bool thread_safe_ = true;  // AND over the registered backends
};

}  // namespace galois::llm

#endif  // GALOIS_LLM_MODEL_ROUTER_H_
