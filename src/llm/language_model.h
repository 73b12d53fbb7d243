#ifndef GALOIS_LLM_LANGUAGE_MODEL_H_
#define GALOIS_LLM_LANGUAGE_MODEL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "llm/prompt.h"

namespace galois::llm {

/// Per-model slice of a CostMeter: the usage one named backend accrued.
/// Cascade configurations (ModelRouter sending critic prompts to a strong
/// model and everything else to a cheap one) report cheap-vs-strong spend
/// through these slices; a single-model run has exactly one.
struct ModelUsage {
  int64_t num_prompts = 0;
  int64_t prompt_tokens = 0;
  int64_t completion_tokens = 0;
  double simulated_latency_ms = 0.0;
  int64_t num_batches = 0;

  ModelUsage& operator+=(const ModelUsage& other) {
    num_prompts += other.num_prompts;
    prompt_tokens += other.prompt_tokens;
    completion_tokens += other.completion_tokens;
    simulated_latency_ms += other.simulated_latency_ms;
    num_batches += other.num_batches;
    return *this;
  }

  ModelUsage& operator-=(const ModelUsage& other) {
    num_prompts -= other.num_prompts;
    prompt_tokens -= other.prompt_tokens;
    completion_tokens -= other.completion_tokens;
    simulated_latency_ms -= other.simulated_latency_ms;
    num_batches -= other.num_batches;
    return *this;
  }

  bool IsZero() const {
    return num_prompts == 0 && prompt_tokens == 0 &&
           completion_tokens == 0 && simulated_latency_ms == 0.0 &&
           num_batches == 0;
  }

  bool operator==(const ModelUsage& other) const {
    return num_prompts == other.num_prompts &&
           prompt_tokens == other.prompt_tokens &&
           completion_tokens == other.completion_tokens &&
           simulated_latency_ms == other.simulated_latency_ms &&
           num_batches == other.num_batches;
  }
  bool operator!=(const ModelUsage& other) const {
    return !(*this == other);
  }
};

/// Accumulated usage statistics for a model (Section 5 reports ~110
/// batched prompts and ~20 s per query; the cost meter regenerates those
/// numbers). Latency is simulated deterministically from token counts.
///
/// A CostMeter value is plain data with no internal synchronisation;
/// implementations that bill from several threads (SimulatedLlm under
/// parallel_batches, PromptCache) guard their meter internally and apply
/// one atomic update per round trip, so a meter snapshot never shows a
/// half-billed batch.
struct CostMeter {
  int64_t num_prompts = 0;
  int64_t prompt_tokens = 0;
  int64_t completion_tokens = 0;
  double simulated_latency_ms = 0.0;
  int64_t cache_hits = 0;    // filled by PromptCache
  int64_t store_hits = 0;    // cache_hits served by entries the prompt
                             // cache warm-started from the persistent
                             // store (a subset of cache_hits)
  int64_t num_batches = 0;   // batched round trips (CompleteBatch calls)

  /// Per-backend breakdown, keyed by model display name. Every shipped
  /// LanguageModel fills its own slice; aggregators (ModelRouter) merge
  /// the slices of their backends, so the aggregate fields above equal
  /// the sum over by_model — except cache-level attribution (cache_hits,
  /// and batch round trips a PromptCache answered entirely from cache),
  /// which belongs to no backend. Ordered map: report lines and equality
  /// checks are deterministic.
  std::map<std::string, ModelUsage> by_model;

  void Reset() { *this = CostMeter(); }

  /// Copies the aggregate transport fields into by_model[name] — the
  /// self-slice a concrete transport (SimulatedLlm, HttpLlm) reports
  /// for its own spend, both in cost() snapshots and in per-call usage
  /// deltas. Cache-level attribution (cache_hits) belongs to no backend
  /// and is deliberately excluded. No-op on an all-zero meter, so an
  /// idle backend lists no slice.
  void FillSelfSlice(const std::string& name) {
    if (num_prompts == 0 && num_batches == 0) return;
    ModelUsage& mine = by_model[name];
    mine.num_prompts = num_prompts;
    mine.prompt_tokens = prompt_tokens;
    mine.completion_tokens = completion_tokens;
    mine.simulated_latency_ms = simulated_latency_ms;
    mine.num_batches = num_batches;
  }

  /// Merge of two meters, including the per-backend slices. This is how
  /// per-call usage reports (CompleteMetered / CompleteBatchMetered)
  /// accumulate into a per-query meter.
  CostMeter& operator+=(const CostMeter& other) {
    num_prompts += other.num_prompts;
    prompt_tokens += other.prompt_tokens;
    completion_tokens += other.completion_tokens;
    simulated_latency_ms += other.simulated_latency_ms;
    cache_hits += other.cache_hits;
    store_hits += other.store_hits;
    num_batches += other.num_batches;
    for (const auto& [name, usage] : other.by_model) {
      by_model[name] += usage;
    }
    return *this;
  }

  /// Difference of two meters, including the per-backend slices (a
  /// caller may snapshot cost() before a run and subtract after, so the
  /// breakdown must subtract too or a cascade run would report the whole
  /// session's spend on every query). Slices that cancel to zero are
  /// dropped, so a query that never touched a backend does not list it.
  CostMeter operator-(const CostMeter& other) const {
    CostMeter out = *this;
    out.num_prompts -= other.num_prompts;
    out.prompt_tokens -= other.prompt_tokens;
    out.completion_tokens -= other.completion_tokens;
    out.simulated_latency_ms -= other.simulated_latency_ms;
    out.cache_hits -= other.cache_hits;
    out.store_hits -= other.store_hits;
    out.num_batches -= other.num_batches;
    for (const auto& [name, usage] : other.by_model) {
      out.by_model[name] -= usage;
    }
    for (auto it = out.by_model.begin(); it != out.by_model.end();) {
      if (it->second.IsZero()) {
        it = out.by_model.erase(it);
      } else {
        ++it;
      }
    }
    return out;
  }
};

/// Whitespace token count (our stand-in tokenizer for cost accounting).
int64_t CountTokens(const std::string& text);

/// Abstract language model client. Implementations: SimulatedLlm (the four
/// paper profiles over the synthetic world), HttpLlm (an OpenAI-compatible
/// chat-completions transport over blocking sockets), and the decorators
/// CostTap (per-query attribution), PromptCache (caching), ResilientLlm
/// (retry / rate limit / deadline / circuit breaker) and ModelRouter
/// (per-phase backend routing). The recommended production stack composes
/// them as router -> resilience -> cache -> transport
/// (docs/ARCHITECTURE.md, "Backends & routing").
///
/// Writing a model: implement name(), CompleteMetered, cost() and
/// ResetCost(). CompleteMetered bills the model's own meter and adds the
/// same delta to `*usage` when `usage` is non-null, so a caller's meter
/// and cost() never disagree. Override CompleteBatchMetered only when the
/// backend has a real batched round trip. Return true from thread_safe()
/// only when every member the calls touch is guarded.
///
/// Writing a decorator over one model: derive from ForwardingModel and
/// override the completion calls it changes; a decorator that only adds
/// behaviour forwards `usage` to its inner model untouched. One that
/// does not override CompleteBatchMetered sends a batch to its inner
/// model one prompt at a time.
class LanguageModel {
 public:
  virtual ~LanguageModel() = default;

  /// Human-readable model name ("GPT-3.5-turbo").
  virtual const std::string& name() const = 0;

  /// The concurrency contract, declared by the type: true when the model
  /// tolerates concurrent completion and cost calls from several threads.
  /// False by default, so a custom model is serial unless it says
  /// otherwise. SimulatedLlm and HttpLlm return true; a ForwardingModel
  /// forwards its inner model's answer, and ModelRouter returns the AND
  /// over its backends.
  ///
  /// The model only declares; core::PhysicalPlan, where a query's options
  /// meet its model, alone decides what to overlap. Over a stack that is
  /// not thread-safe it runs the query at parallel_batches 1 — one call
  /// at a time, from the calling thread, in the paper prototype's ladder
  /// order.
  virtual bool thread_safe() const { return false; }

  /// Executes one prompt in one round trip and *accumulates* into
  /// `*usage` (when non-null) exactly what this call billed into cost(),
  /// the model's by_model slice included. Per-call reports are how a
  /// caller attributes spend to one logical query while many queries
  /// share one model stack: diffing cost() around a call is wrong the
  /// moment another thread bills in between. Decorators pass the pointer
  /// down the stack, adding their own attribution (PromptCache adds
  /// cache_hits, ModelRouter merges per-backend slices).
  ///
  /// Errors use StatusCode::kLlmError for model-side failures. On error
  /// nothing is added to `*usage`; a failed round trip that the stack
  /// billed anyway (SimulatedLlm bills per answered prompt, HTTP retries
  /// bill server-side) shows up only in the stack-wide cost().
  virtual Result<Completion> CompleteMetered(const Prompt& prompt,
                                             CostMeter* usage) = 0;

  /// Executes a batch of independent prompts in one round trip (the
  /// paper's "~110 *batched* prompts per query"), returning exactly one
  /// completion per prompt, in input order, and metering like
  /// CompleteMetered. On error nothing is returned (no partial
  /// completions) and nothing is added to `*usage`, but the failed round
  /// trip may already have been billed into cost(). SimulatedLlm bills
  /// one shared round-trip overhead per batch. The default loops over
  /// CompleteMetered into a local meter, stops at the first failed
  /// prompt, and adds the meter to `*usage` only when every prompt
  /// succeeded; it counts no batch round trip.
  virtual Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage);

  /// The unmetered calls: CompleteMetered / CompleteBatchMetered with no
  /// meter. Models implement the metered pair only; these stay virtual
  /// just for the end-to-end benchmark's wrappers (perfbench/), which
  /// still override them.
  virtual Result<Completion> Complete(const Prompt& prompt) {
    return CompleteMetered(prompt, nullptr);
  }
  virtual Result<std::vector<Completion>> CompleteBatch(
      const std::vector<Prompt>& prompts) {
    return CompleteBatchMetered(prompts, nullptr);
  }

  /// Usage since construction / last reset, returned as a consistent
  /// snapshot. Safe to call concurrently with in-flight round trips (the
  /// shipped implementations synchronise internally and never expose a
  /// half-billed batch).
  virtual CostMeter cost() const = 0;
  virtual void ResetCost() = 0;
};

/// Base of a decorator over one inner model: forwards name(),
/// thread_safe(), cost() and ResetCost() to `inner_`, and leaves the
/// completion calls to the decorator. A decorator whose own state is not
/// guarded for concurrent calls must override thread_safe() to return
/// false; forwarding the inner model's answer would let a query overlap
/// calls into it.
class ForwardingModel : public LanguageModel {
 public:
  const std::string& name() const override { return inner_->name(); }
  bool thread_safe() const override { return inner_->thread_safe(); }
  CostMeter cost() const override { return inner_->cost(); }
  void ResetCost() override { inner_->ResetCost(); }

 protected:
  /// `inner` must outlive the decorator.
  explicit ForwardingModel(LanguageModel* inner) : inner_(inner) {}

  LanguageModel* inner_;
};

}  // namespace galois::llm

#endif  // GALOIS_LLM_LANGUAGE_MODEL_H_
