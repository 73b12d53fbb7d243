// The compact prompt keys. A PromptCache entry keeps only the text after
// the few-shot preamble, plus a flag, and still hits and misses exactly
// as whole-text keys would. The store's index keeps no prompt text: a
// reopened store returns every full text byte for byte, TouchPrompt
// still orders the vacuum's LRU, and a vacuum that streams its rewrite
// in pieces keeps every surviving frame.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "llm/prompt_cache.h"
#include "llm/prompt_templates.h"
#include "store/result_store.h"
#include "store/store_format.h"

namespace galois {
namespace {

/// Answers "echo:<text>" and counts the calls that reached it, so a
/// cache that matched the wrong entry would return another text.
class EchoModel : public llm::LanguageModel {
 public:
  const std::string& name() const override { return name_; }
  // Bills nothing, so it adds nothing to a caller's meter.
  Result<llm::Completion> CompleteMetered(const llm::Prompt& prompt,
                                          llm::CostMeter*) override {
    ++calls;
    return llm::Completion{"echo:" + prompt.text};
  }
  llm::CostMeter cost() const override { return llm::CostMeter(); }
  void ResetCost() override {}

  int calls = 0;

 private:
  std::string name_ = "echo";
};

llm::Prompt MakePrompt(const std::string& text) {
  llm::Prompt p;
  p.text = text;
  p.intent = llm::FreeformIntent{};
  return p;
}

const std::string& Preamble() { return llm::FewShotPreamble(); }

/// Texts that split at the preamble in every way a key can: the preamble
/// alone, proper prefixes of it, one question with and without it, and
/// texts that never had it.
std::vector<std::string> EdgeTexts() {
  const std::string question = "Q: What is the capital of Italy?\nA:";
  return {Preamble(),
          Preamble().substr(0, Preamble().size() - 1),
          Preamble().substr(0, 10),
          "",
          Preamble() + question,
          question,
          Preamble() + Preamble(),
          "Q: Has country Italy population greater than 1000000?",
          "x" + Preamble()};
}

TEST(PromptCacheKeyTest, EveryTextHitsOnlyItself) {
  EchoModel inner;
  llm::PromptCache cache(&inner);
  const std::vector<std::string> texts = EdgeTexts();
  for (size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE("text " + std::to_string(i));
    // Nothing cached so far answers this text: it misses.
    auto cold = cache.Complete(MakePrompt(texts[i]));
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold->text, "echo:" + texts[i]);
    EXPECT_EQ(inner.calls, static_cast<int>(i + 1));
    // Every text cached so far hits, with its own completion.
    for (size_t j = 0; j <= i; ++j) {
      auto warm = cache.Complete(MakePrompt(texts[j]));
      ASSERT_TRUE(warm.ok());
      EXPECT_EQ(warm->text, "echo:" + texts[j]) << j;
    }
    EXPECT_EQ(inner.calls, static_cast<int>(i + 1));
  }
  EXPECT_EQ(cache.size(), texts.size());
}

TEST(PromptCacheKeyTest, PreloadedEntriesHitExactly) {
  EchoModel inner;
  llm::PromptCache cache(&inner);
  const std::string question = "Q: What is the capital of Italy?\nA:";
  cache.Preload(Preamble() + question, "Rome");
  cache.Preload(Preamble(), "preamble only");
  // First insert wins: a second Preload of the same text is ignored.
  cache.Preload(Preamble() + question, "Milan");

  auto hit = cache.Complete(MakePrompt(Preamble() + question));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->text, "Rome");
  auto alone = cache.Complete(MakePrompt(Preamble()));
  ASSERT_TRUE(alone.ok());
  EXPECT_EQ(alone->text, "preamble only");
  EXPECT_EQ(inner.calls, 0);
  EXPECT_EQ(cache.cost().store_hits, 2);

  // The question without the preamble, and a prefix of the preamble, are
  // other texts: they miss.
  auto bare = cache.Complete(MakePrompt(question));
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->text, "echo:" + question);
  auto prefix = cache.Complete(MakePrompt(Preamble().substr(1)));
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(prefix->text, "echo:" + Preamble().substr(1));
  EXPECT_EQ(inner.calls, 2);
  EXPECT_EQ(cache.cost().store_hits, 2);
}

TEST(PromptCacheKeyTest, HooksSeeTheWholeText) {
  EchoModel inner;
  llm::PromptCache cache(&inner);
  const std::string text = Preamble() + "Q: Who is the mayor of Rome?\nA:";
  cache.Preload(Preamble() + "Q: old\nA:", "old");
  std::vector<std::string> inserted;
  std::vector<std::string> hit;
  llm::PromptCacheHooks hooks;
  hooks.on_insert = [&inserted](const std::string& t, const std::string&) {
    inserted.push_back(t);
  };
  hooks.on_hit = [&hit](const std::string& t) { hit.push_back(t); };
  cache.SetHooks(std::move(hooks));
  ASSERT_TRUE(cache.Complete(MakePrompt(text)).ok());
  ASSERT_TRUE(cache.Complete(MakePrompt(Preamble() + "Q: old\nA:")).ok());
  EXPECT_EQ(inserted, std::vector<std::string>{text});
  EXPECT_EQ(hit, std::vector<std::string>{Preamble() + "Q: old\nA:"});
}

/// A fresh store directory under the test temp dir.
std::string StoreDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "galois_prompt_key_" + name;
  std::remove((dir + "/galois.store").c_str());
  std::remove((dir + "/galois.store.tmp").c_str());
  std::remove(dir.c_str());
  return dir;
}

store::StoreOptions Opts(const std::string& dir) {
  store::StoreOptions options;
  options.path = dir;
  options.background_vacuum = false;  // deterministic: vacuum inline
  return options;
}

std::unique_ptr<store::ResultStore> MustOpen(
    const store::StoreOptions& options) {
  auto opened = store::ResultStore::Open(options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

/// Live prompts in ForEachPrompt order (LRU first) as (model, text,
/// completion).
std::vector<std::vector<std::string>> Prompts(store::ResultStore* store) {
  std::vector<std::vector<std::string>> out;
  store->ForEachPrompt([&out](const std::string& model,
                              const std::string& text,
                              const std::string& completion) {
    out.push_back({model, text, completion});
  });
  return out;
}

TEST(PromptStoreKeyTest, ReopenedStoreReturnsEveryFullText) {
  const std::string dir = StoreDir("reopen");
  std::map<std::pair<std::string, std::string>, std::string> want;
  {
    auto store = MustOpen(Opts(dir));
    int n = 0;
    for (const std::string& model : {"chatgpt", "flan"}) {
      for (const std::string& text : EdgeTexts()) {
        // A text with the record-key separator in it stays whole too.
        for (const std::string& t : {text, text + "\x1f" + "tail"}) {
          const std::string completion = "c" + std::to_string(n++);
          ASSERT_TRUE(store->PutPrompt(model, t, completion).ok());
          want[{model, t}] = completion;
        }
      }
    }
    // Replacing a prompt keeps one live entry, with the new completion.
    ASSERT_TRUE(store->PutPrompt("flan", Preamble(), "replaced").ok());
    want[{"flan", Preamble()}] = "replaced";
  }
  auto store = MustOpen(Opts(dir));
  EXPECT_EQ(store->stats().prompts_recovered,
            static_cast<int64_t>(want.size()));
  std::map<std::pair<std::string, std::string>, std::string> got;
  for (const auto& p : Prompts(store.get())) got[{p[0], p[1]}] = p[2];
  EXPECT_EQ(got, want);
}

TEST(PromptStoreKeyTest, TouchOrdersTheVacuumsLru) {
  const std::string dir = StoreDir("lru");
  store::StoreOptions options = Opts(dir);
  // A few prompts fit, the rest are evicted least recently used first by
  // the threshold vacuum.
  options.max_bytes = 16 * 1024;
  auto store = MustOpen(options);
  const std::string hot = Preamble() + "Q: hot\nA:";
  ASSERT_TRUE(store->PutPrompt("m", hot, "kept").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store
                    ->PutPrompt("m", Preamble() + "Q: " + std::to_string(i),
                                "c" + std::to_string(i))
                    .ok());
    store->TouchPrompt("m", hot);
  }
  const store::StoreStats stats = store->stats();
  EXPECT_GT(stats.vacuums, 0);
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.file_bytes, options.max_bytes);

  // The touched prompt survived every eviction wave and, as the most
  // recently used, comes last; the newest untouched prompt survived too.
  auto prompts = Prompts(store.get());
  ASSERT_GE(prompts.size(), 2u);
  EXPECT_LT(prompts.size(), 201u);
  EXPECT_EQ(prompts.back(),
            (std::vector<std::string>{"m", hot, "kept"}));
  EXPECT_EQ(prompts[prompts.size() - 2],
            (std::vector<std::string>{"m", Preamble() + "Q: 199", "c199"}));
  // Touching the oldest survivor makes it the most recent.
  const std::vector<std::string> oldest = prompts.front();
  store->TouchPrompt(oldest[0], oldest[1]);
  EXPECT_EQ(Prompts(store.get()).back(), oldest);

  store.reset();
  auto reopened = MustOpen(Opts(dir));
  EXPECT_EQ(Prompts(reopened.get()).size(), prompts.size());
}

TEST(PromptStoreKeyTest, VacuumOverManyPiecesKeepsEveryFrame) {
  // More than a few MiB of live prompts, so the vacuum writes its
  // rewrite in several pieces; half the records are dead replacements.
  const std::string dir = StoreDir("pieces");
  auto store = MustOpen(Opts(dir));
  std::map<std::string, std::string> want;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4000; ++i) {
      const std::string text =
          Preamble() + "Q: prompt " + std::to_string(i) + "\nA:";
      const std::string completion =
          "answer " + std::to_string(round) + "/" + std::to_string(i);
      ASSERT_TRUE(store->PutPrompt("m", text, completion).ok());
      want[text] = completion;
    }
  }
  const int64_t before = store->stats().file_bytes;
  ASSERT_GT(before, int64_t{5} << 20);
  ASSERT_TRUE(store->Vacuum().ok());
  const store::StoreStats stats = store->stats();
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.live_prompts, 4000);
  EXPECT_LT(stats.file_bytes, before / 2 + 4096);
  EXPECT_EQ(stats.file_bytes,
            stats.live_bytes + static_cast<int64_t>(store::kFileHeaderSize));

  auto check = [&want](store::ResultStore* s) {
    std::map<std::string, std::string> got;
    for (const auto& p : Prompts(s)) got[p[1]] = p[2];
    EXPECT_EQ(got, want);
  };
  check(store.get());
  // Appends after the vacuum land after the rewrite.
  ASSERT_TRUE(store->PutPrompt("m", "after", "vacuum").ok());
  want["after"] = "vacuum";
  store.reset();
  auto reopened = MustOpen(Opts(dir));
  EXPECT_EQ(reopened->stats().records_dropped, 0);
  check(reopened.get());
}

}  // namespace
}  // namespace galois
