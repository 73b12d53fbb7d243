#ifndef GALOIS_LLM_SIMULATED_LLM_H_
#define GALOIS_LLM_SIMULATED_LLM_H_

#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/rng.h"
#include "knowledge/world_kb.h"
#include "llm/language_model.h"
#include "llm/model_profile.h"

namespace galois::llm {

/// Deterministic simulated language model.
///
/// Stands in for the OpenAI / HuggingFace models of the paper (see
/// DESIGN.md, substitutions). It answers prompts by reading the synthetic
/// WorldKb through a *noisy view* controlled by a ModelProfile:
///
///  * coverage — an entity is "known" iff a per-(model, entity) hash draw
///    falls under coverage_floor + coverage_gain * popularity; unknown
///    entities never appear in scans and yield "Unknown" on lookups;
///  * factuality — attribute values are recalled correctly with
///    probability fact_accuracy, otherwise a stable hallucinated
///    perturbation is returned (the same wrong value on every prompt);
///  * surface forms — reference attributes may be systematically rendered
///    in non-canonical forms per (model, concept_name, attribute) ("ITA" for
///    "Italy"), the paper's join-failure mechanism; numeric/date values may
///    be formatted noisily ("1k", "3 million", "08/04/1962");
///  * paging — key scans page through known entities by popularity and
///    stop early with probability paging_fatigue per page, and may inject
///    hallucinated keys.
///
/// Every draw is a pure function of (seed, model name, entity, attribute,
/// purpose), so runs are reproducible and answers are self-consistent
/// across prompts. Simulated latency is likewise a pure function of the
/// prompt text, so the CostMeter is identical however round trips are
/// ordered or overlapped.
///
/// Thread-safety: the completion calls and cost() may be called
/// concurrently (the batch scheduler overlaps round trips when
/// parallel_batches > 1); the cost meter is updated atomically per round
/// trip under an internal mutex and cost() returns a consistent
/// by-value snapshot.
class SimulatedLlm : public LanguageModel {
 public:
  /// `kb` must outlive the model. `ground_catalog` is optional and only
  /// needed for free-form QA prompts (the baselines), which ground their
  /// answers by executing the underlying SQL; pass the workload catalog.
  SimulatedLlm(const knowledge::WorldKb* kb, ModelProfile profile,
               const catalog::Catalog* ground_catalog = nullptr,
               uint64_t seed = 7);

  const std::string& name() const override { return profile_.name; }
  bool thread_safe() const override { return true; }

  /// One round trip for one prompt. Safe to call concurrently. The
  /// billing is computed per round trip anyway, so the delta handed to
  /// `usage` is the one applied to the meter, with the by_model slice.
  Result<Completion> CompleteMetered(const Prompt& prompt,
                                     CostMeter* usage) override;

  /// Batched execution: prompts in one batch share a single round-trip
  /// overhead and their decode latencies overlap (the max, not the sum,
  /// dominates), mirroring how API batching amortises cost. One billing
  /// update per call, so concurrent batches never interleave partial
  /// meters.
  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override;

  /// Consistent snapshot of the accumulated usage; safe to call from any
  /// thread.
  CostMeter cost() const override;
  void ResetCost() override;

  const ModelProfile& profile() const { return profile_; }

  /// Makes every round trip (one completion or batch call) block
  /// the calling thread for `ms` wall-clock milliseconds, so concurrency
  /// benchmarks measure a real, deterministic per-round-trip latency
  /// instead of the sub-microsecond simulated answer path. 0 (default)
  /// disables the sleep. Does not affect the simulated_latency_ms meter.
  void set_wall_latency_ms(double ms) { wall_latency_ms_ = ms; }
  double wall_latency_ms() const { return wall_latency_ms_; }

  // --- noisy world view (used by the QA baseline and by tests) -----------

  /// Whether this model knows the entity at all.
  bool KnowsEntity(const std::string& concept_name, const std::string& key) const;

  /// Known entities of a concept_name, most popular first.
  std::vector<const knowledge::Entity*> KnownEntities(
      const std::string& concept_name) const;

  /// The value this model believes for (concept_name, key, attribute): the true
  /// value with probability fact_accuracy, else a stable perturbation.
  /// Returns NULL Value when the model would answer "Unknown".
  Result<Value> NoisyAttribute(const std::string& concept_name,
                               const std::string& key,
                               const std::string& attribute) const;

  /// Renders `v` as the model would print it, applying surface-form style
  /// (for reference attributes) and format noise. `key` seeds the
  /// per-value format draw.
  std::string RenderValue(const std::string& concept_name,
                          const std::string& attribute, const Value& v,
                          const std::string& key) const;

  /// Whether this model systematically uses a non-canonical surface form
  /// for the given reference attribute (decided once per (model, concept_name,
  /// attribute)).
  bool UsesNonCanonicalStyle(const std::string& concept_name,
                             const std::string& attribute) const;

  /// The page index (1-based) at which a key scan of `concept_name` stops
  /// producing results; pages >= this return "No more results".
  int ScanStopPage(const std::string& concept_name) const;

 private:
  /// Uniform [0,1) draw, pure in the labels.
  double Draw(const std::string& purpose, const std::string& a,
              const std::string& b = "", const std::string& c = "") const;

  /// Computes the completion text for `prompt` without billing. Pure in
  /// the prompt (plus the fixed seed/profile), hence safe to run from any
  /// thread.
  Result<Completion> Answer(const Prompt& prompt) const;

  Result<Completion> CompleteKeyScan(const KeyScanIntent& intent) const;
  Result<Completion> CompleteAttributeGet(
      const AttributeGetIntent& intent) const;
  Result<Completion> CompleteFilterCheck(
      const FilterCheckIntent& intent) const;
  Result<Completion> CompleteFreeform(const FreeformIntent& intent) const;
  Result<Completion> CompleteVerify(const VerifyIntent& intent) const;

  /// Applies filter semantics on the model's noisy value. Returns 1 (holds),
  /// 0 (does not hold) or -1 (model would answer "Unknown").
  Result<int> NoisyFilterHolds(const std::string& concept_name,
                               const std::string& key,
                               const PromptFilter& filter,
                               double extra_error,
                               const std::string& purpose) const;

  /// Per-prompt simulated latency (base + decode, with deterministic
  /// jitter seeded by the prompt text only, so it is order-independent).
  double PromptLatencyMs(const Prompt& prompt,
                         const std::string& completion_text) const;

  /// Blocks for wall_latency_ms_ when the knob is set (one call per round
  /// trip). Never holds cost_mu_.
  void SimulateRoundTripWait() const;

  /// Applies `delta` to the meter in one locked update and, when `usage`
  /// is non-null, reports it (with the by_model slice) to the caller.
  void Bill(const CostMeter& delta, CostMeter* usage);

  const knowledge::WorldKb* kb_;
  ModelProfile profile_;
  const catalog::Catalog* ground_catalog_;
  uint64_t seed_;
  double wall_latency_ms_ = 0.0;

  mutable std::mutex cost_mu_;
  CostMeter cost_;  // guarded by cost_mu_
};

}  // namespace galois::llm

#endif  // GALOIS_LLM_SIMULATED_LLM_H_
