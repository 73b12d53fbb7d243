#include "llm/prompt_cache.h"

#include <utility>

#include "llm/prompt_templates.h"

namespace galois::llm {

PromptCache::Key PromptCache::KeyOf(const std::string& text) {
  const std::string& preamble = FewShotPreamble();
  if (text.size() >= preamble.size() &&
      text.compare(0, preamble.size(), preamble) == 0) {
    return Key{true, std::string_view(text).substr(preamble.size())};
  }
  return Key{false, text};
}

bool PromptCache::Lookup(const std::string& text, size_t hash,
                         std::string* completion, bool* from_store) const {
  if (from_store != nullptr) *from_store = false;
  const Key key = KeyOf(text);
  bool hit = false;
  bool preloaded = false;
  {
    const Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(hash);
    if (it != shard.map.end()) {
      for (const CacheEntry& entry : it->second) {
        if (entry.Matches(key)) {
          *completion = entry.completion;
          hit = true;
          preloaded = entry.from_store;
          break;
        }
      }
    }
  }
  if (!hit) return false;
  if (preloaded) {
    if (from_store != nullptr) *from_store = true;
    if (hooks_.on_hit) hooks_.on_hit(text);
  }
  return true;
}

void PromptCache::Insert(const std::string& text, size_t hash,
                         const std::string& completion) {
  const Key key = KeyOf(text);
  bool inserted = false;
  {
    Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto& chain = shard.map[hash];
    bool exists = false;
    for (const CacheEntry& entry : chain) {
      if (entry.Matches(key)) {
        exists = true;  // first insert wins, like emplace did
        break;
      }
    }
    if (!exists) {
      chain.push_back(
          CacheEntry{std::string(key.rest), completion, key.preamble, false});
      inserted = true;
    }
  }
  if (inserted && hooks_.on_insert) hooks_.on_insert(text, completion);
}

void PromptCache::Preload(const std::string& text,
                          const std::string& completion) {
  const size_t hash = HashOf(text);
  const Key key = KeyOf(text);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto& chain = shard.map[hash];
  for (const CacheEntry& entry : chain) {
    if (entry.Matches(key)) return;
  }
  chain.push_back(
      CacheEntry{std::string(key.rest), completion, key.preamble, true});
}

void PromptCache::SetHooks(PromptCacheHooks hooks) {
  hooks_ = std::move(hooks);
}

Result<Completion> PromptCache::CompleteMetered(const Prompt& prompt,
                                                CostMeter* usage) {
  const size_t hash = HashOf(prompt.text);
  std::string cached;
  bool from_store = false;
  if (Lookup(prompt.text, hash, &cached, &from_store)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (from_store) store_hits_.fetch_add(1, std::memory_order_relaxed);
    if (usage != nullptr) {
      ++usage->cache_hits;
      if (from_store) ++usage->store_hits;
    }
    return Completion{std::move(cached)};
  }
  GALOIS_ASSIGN_OR_RETURN(Completion c,
                          inner_->CompleteMetered(prompt, usage));
  Insert(prompt.text, hash, c.text);
  return c;
}

Result<std::vector<Completion>> PromptCache::CompleteBatchMetered(
    const std::vector<Prompt>& prompts, CostMeter* usage) {
  if (prompts.empty()) return std::vector<Completion>{};

  // Partition hits from misses; repeated miss texts within the batch map
  // onto one forwarded prompt (and count as hits: they cost no extra
  // completion).
  std::vector<Completion> out(prompts.size());
  std::vector<Prompt> miss_prompts;
  std::unordered_map<std::string, size_t> miss_slot;
  std::vector<std::vector<size_t>> miss_positions;
  std::vector<size_t> miss_hashes;
  int64_t hits = 0;
  int64_t store_hits = 0;
  for (size_t i = 0; i < prompts.size(); ++i) {
    const size_t hash = HashOf(prompts[i].text);
    std::string cached;
    bool from_store = false;
    if (Lookup(prompts[i].text, hash, &cached, &from_store)) {
      out[i].text = std::move(cached);
      ++hits;
      if (from_store) ++store_hits;
      continue;
    }
    auto [it, inserted] =
        miss_slot.try_emplace(prompts[i].text, miss_prompts.size());
    if (inserted) {
      miss_prompts.push_back(prompts[i]);
      miss_hashes.push_back(hash);
      miss_positions.emplace_back();
    } else {
      ++hits;  // in-batch duplicate: billed once
    }
    miss_positions[it->second].push_back(i);
  }
  hits_.fetch_add(hits, std::memory_order_relaxed);
  store_hits_.fetch_add(store_hits, std::memory_order_relaxed);

  if (miss_prompts.empty()) {
    // Entirely served from cache: no inner round trip, but keep the batch
    // attribution (see header).
    batches_from_cache_.fetch_add(1, std::memory_order_relaxed);
    if (usage != nullptr) {
      usage->cache_hits += hits;
      usage->store_hits += store_hits;
      ++usage->num_batches;
    }
    return out;
  }

  // The inner usage and the hits are reported only once the whole call
  // succeeded, so a short inner answer reports nothing either (the
  // nothing-on-error contract of the metered API).
  CostMeter billed;
  GALOIS_ASSIGN_OR_RETURN(std::vector<Completion> completions,
                          inner_->CompleteBatchMetered(miss_prompts, &billed));
  if (completions.size() != miss_prompts.size()) {
    return Status::LlmError("inner CompleteBatch returned " +
                            std::to_string(completions.size()) +
                            " completions for " +
                            std::to_string(miss_prompts.size()) +
                            " prompts");
  }
  if (usage != nullptr) {
    billed.cache_hits += hits;
    billed.store_hits += store_hits;
    *usage += billed;
  }
  for (size_t m = 0; m < miss_prompts.size(); ++m) {
    Insert(miss_prompts[m].text, miss_hashes[m], completions[m].text);
    for (size_t pos : miss_positions[m]) out[pos] = completions[m];
  }
  return out;
}

CostMeter PromptCache::cost() const {
  CostMeter merged = inner_->cost();
  merged.cache_hits = hits_.load(std::memory_order_relaxed);
  merged.store_hits = store_hits_.load(std::memory_order_relaxed);
  merged.num_batches +=
      batches_from_cache_.load(std::memory_order_relaxed);
  return merged;
}

void PromptCache::ResetCost() {
  inner_->ResetCost();
  hits_.store(0, std::memory_order_relaxed);
  store_hits_.store(0, std::memory_order_relaxed);
  batches_from_cache_.store(0, std::memory_order_relaxed);
}

size_t PromptCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [hash, chain] : shard.map) total += chain.size();
  }
  return total;
}

void PromptCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
  if (hooks_.on_clear) hooks_.on_clear();
}

}  // namespace galois::llm
