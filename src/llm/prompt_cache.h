#ifndef GALOIS_LLM_PROMPT_CACHE_H_
#define GALOIS_LLM_PROMPT_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "llm/language_model.h"

namespace galois::llm {

/// Persistence hooks: the API layer binds these to a store::ResultStore
/// so memoised completions survive the process (llm stays independent of
/// the store). Any member may be empty. They are invoked OUTSIDE the
/// shard mutexes (after the completion is already memoised), so a hook
/// may block on I/O without stalling concurrent lookups of other
/// prompts; on_hit fires only for entries loaded via Preload (the
/// recency signal the store's LRU eviction wants).
struct PromptCacheHooks {
  std::function<void(const std::string& text, const std::string& completion)>
      on_insert;
  std::function<void(const std::string& text)> on_hit;
  std::function<void()> on_clear;
};

/// Caching decorator: memoises completions by exact prompt text.
///
/// Nearly every prompt opens with the same few-shot preamble
/// (FewShotPreamble(), about 90% of a per-key prompt's bytes), so an
/// entry keeps only the text after it and a flag saying it was there.
/// Lookups still compare whole texts exactly: a text that opens with the
/// preamble matches only a flagged entry with the same rest, and any
/// other text (a proper prefix of the preamble, a question without it)
/// only an unflagged entry holding all of it.
///
/// Query plans re-issue identical sub-prompts (e.g. the same attribute
/// retrieval appearing under a selection and a projection); caching them is
/// one of the physical-plan optimisations discussed in Section 6. The cache
/// is sound for SimulatedLlm because its completions are deterministic.
///
/// The cache is batch-aware: a batch call partitions hits from misses,
/// dedupes repeated prompt texts within the batch, forwards all distinct
/// misses to the inner model as ONE batch, and merges the answers back in
/// input order — so a cached configuration still exercises the inner
/// model's batched path instead of degrading to N sequential calls.
///
/// The map is sharded into buckets, each guarded by its own mutex, so the
/// batch scheduler can fan chunks out across threads (parallel_batches >
/// 1) with hits and misses resolving concurrently. Thread-safety scope:
/// concurrent completion and cost calls are safe, but two threads that
/// miss the same prompt simultaneously may each dispatch it to the inner
/// model (a benign cache stampede for deterministic models: last
/// insert wins, both callers get the same answer; the scheduler's
/// in-flush dedupe keeps concurrent chunks of one phase disjoint, so the
/// stampede can only happen across independent flushes). thread_safe()
/// forwards the inner model's answer: the cache adds no serial state, and
/// cannot make a serial model concurrent.
class PromptCache : public ForwardingModel {
 public:
  /// `inner` must outlive the cache. name() reports the inner model's
  /// name — the cache is invisible to identification.
  explicit PromptCache(LanguageModel* inner) : ForwardingModel(inner) {}

  /// Serves `prompt` from cache or forwards it to the inner model and
  /// memoises the answer. Errors from the inner model pass through
  /// unchanged and are never cached. The usage pointer goes to the inner
  /// model on a miss; a hit adds its cache hit (and store hit) instead,
  /// so a per-query meter attributes hits exactly like the combined
  /// cost().
  Result<Completion> CompleteMetered(const Prompt& prompt,
                                     CostMeter* usage) override;

  /// Hit/miss-partitioned batched execution (see class comment). A batch
  /// answered entirely from cache performs no inner round trip but is
  /// still counted in num_batches, in cost() and in `usage`, so warm
  /// reruns keep their batch attribution (the round trip was *saved*, not
  /// never-planned).
  Result<std::vector<Completion>> CompleteBatchMetered(
      const std::vector<Prompt>& prompts, CostMeter* usage) override;

  /// Combined meter: inner usage, plus our cache hit count, plus the batch
  /// calls served entirely from cache. Returned by value, so concurrent
  /// cost() readers are safe.
  CostMeter cost() const override;
  void ResetCost() override;

  /// Number of distinct memoised prompts (sums the shards; safe to call
  /// concurrently but only a point-in-time figure under writes).
  size_t size() const;

  /// Drops every memoised completion; cost attribution is untouched.
  void Clear();

  /// Seeds one completion recovered from the persistent store, marked
  /// from_store (hits on it count into cost().store_hits and fire
  /// hooks.on_hit). Never overwrites an existing entry and never fires
  /// hooks.on_insert — the record is already on disk.
  void Preload(const std::string& text, const std::string& completion);

  /// Attaches the persistence hooks (replacing any previous set). Attach
  /// after Preload and before serving traffic; captured state must
  /// outlive the cache.
  void SetHooks(PromptCacheHooks hooks);

 private:
  static constexpr size_t kNumShards = 16;

  /// A prompt text split at FewShotPreamble(): whether it opens with the
  /// preamble, and the rest of it (all of it when it does not). Views
  /// the text it was made from.
  struct Key {
    bool preamble = false;
    std::string_view rest;
  };
  static Key KeyOf(const std::string& text);

  struct CacheEntry {
    std::string rest;  // the text after the preamble, or all of it
    std::string completion;
    bool preamble = false;    // the text opened with FewShotPreamble()
    bool from_store = false;  // seeded by Preload, not earned this process

    bool Matches(const Key& key) const {
      return preamble == key.preamble && rest == key.rest;
    }
  };

  /// Entries bucket by the *precomputed* full hash of the prompt text:
  /// the hash is taken exactly once per operation and reused for both
  /// shard selection and bucket lookup (hashing a size_t key is
  /// identity-cheap), instead of hashing the — often multi-hundred-byte —
  /// prompt twice. Same-hash collisions chain in a small vector and are
  /// resolved by full text comparison.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<size_t, std::vector<CacheEntry>> map;
  };

  static size_t HashOf(const std::string& text) {
    return std::hash<std::string>{}(text);
  }
  const Shard& ShardFor(size_t hash) const {
    return shards_[hash % kNumShards];
  }
  Shard& ShardFor(size_t hash) { return shards_[hash % kNumShards]; }

  /// Copies the cached completion for `text` (with `hash == HashOf(text)`)
  /// into `*completion`; false on miss. `from_store` (optional) reports
  /// whether the entry was Preloaded. Fires hooks_.on_hit for preloaded
  /// entries.
  bool Lookup(const std::string& text, size_t hash, std::string* completion,
              bool* from_store = nullptr) const;
  /// Memoises and fires hooks_.on_insert when this call actually added
  /// the entry (first insert wins).
  void Insert(const std::string& text, size_t hash,
              const std::string& completion);

  std::array<Shard, kNumShards> shards_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> store_hits_{0};
  std::atomic<int64_t> batches_from_cache_{0};
  /// Set once at wiring time (SetHooks), read by every operation; not
  /// guarded — the attach-before-traffic contract makes it effectively
  /// immutable.
  PromptCacheHooks hooks_;
};

}  // namespace galois::llm

#endif  // GALOIS_LLM_PROMPT_CACHE_H_
