#include "core/llm_operators.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "clean/normalize.h"
#include "llm/prompt_templates.h"

namespace galois::core {

llm::BatchPolicy BatchPolicyFor(const ExecutionOptions& options) {
  llm::BatchPolicy policy;
  policy.batch = options.batch_prompts;
  policy.max_batch_size = options.max_batch_size;
  policy.parallel_batches =
      options.parallel_batches < 1 ? 1 : options.parallel_batches;
  policy.control = options.control;
  return policy;
}

namespace {

/// Parses yes/no/Unknown completions into the 1/0/-1 verdicts shared by
/// the filter-check and critic phases.
std::vector<int> ParseVerdicts(
    const std::vector<llm::Completion>& completions) {
  std::vector<int> verdicts;
  verdicts.reserve(completions.size());
  for (const llm::Completion& c : completions) {
    if (clean::IsUnknown(c.text)) {
      verdicts.push_back(-1);
      continue;
    }
    auto b = clean::ParseBool(c.text);
    verdicts.push_back(!b.ok() ? -1 : b.value() ? 1 : 0);
  }
  return verdicts;
}

/// Builds the page-k scan prompt.
llm::Prompt BuildScanPagePrompt(const catalog::TableDef& table,
                                const std::optional<llm::PromptFilter>& filter,
                                int page) {
  llm::KeyScanIntent intent;
  intent.concept_name = table.entity_type;
  intent.key_attribute = table.key_column;
  intent.page = page;
  intent.filter = filter;
  return llm::BuildKeyScanPrompt(intent);
}

/// Folds one page's completion into the deduplicated key list. Returns
/// true when the scan should keep paging (new keys appeared and the
/// model did not signal the end of its enumeration).
bool ConsumeScanPage(const llm::Completion& completion,
                     std::vector<std::string>* keys,
                     std::unordered_set<std::string>* seen) {
  if (clean::IsNoMoreResults(completion.text)) return false;
  std::vector<std::string> page_keys = clean::SplitList(completion.text);
  size_t new_keys = 0;
  for (std::string& k : page_keys) {
    if (seen->insert(k).second) {
      keys->push_back(std::move(k));
      ++new_keys;
    }
  }
  // Termination condition: "we keep asking for more names ... until we
  // stop getting new results".
  return new_keys > 0;
}

}  // namespace

Result<std::vector<std::string>> LlmKeyScan(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const ExecutionOptions& options,
    const std::optional<llm::PromptFilter>& filter, KeyScanStats* stats,
    int64_t key_limit) {
  if (stats != nullptr) *stats = KeyScanStats{};
  std::vector<std::string> keys;
  std::unordered_set<std::string> seen;
  llm::BatchScheduler scheduler(model, BatchPolicyFor(options),
                                "key-scan:" + table.entity_type);

  // Page prompts are independent texts, so pages k+1..k+window-1 may be
  // bought while page k's answer is parsed. Pages are joined strictly in
  // page order, so the termination decision (and the key set) is the
  // window-1 scan's. A LIMIT-bounded scan keeps a window of 1: the bound
  // promises that no round trip past the satisfying page is issued.
  const int window =
      key_limit >= 0 ? 1 : 1 + std::max(0, options.prefetch_pages);
  std::deque<TaskHandle<Result<llm::Completion>>> inflight;  // page order
  int next_page = 0;
  for (;;) {
    // LIMIT-bounded paging stops buying pages once enough keys are
    // scanned for the downstream Limit operator to be satisfiable.
    while (static_cast<int>(inflight.size()) < window &&
           next_page < options.max_scan_pages &&
           (key_limit < 0 || static_cast<int64_t>(keys.size()) < key_limit)) {
      // A page issued while no other is in flight runs on this thread at
      // its Join; one issued behind others is launched on the pool before
      // the pages ahead of it are consumed, and so counts as prefetched.
      const bool launched = !inflight.empty();
      inflight.push_back(StartPhaseTask<Result<llm::Completion>>(
          window > 1, inflight.size(),
          [&scheduler,
           prompt = BuildScanPagePrompt(table, filter, next_page)] {
            return scheduler.CompleteOne(prompt);
          }));
      ++next_page;
      if (stats != nullptr) {
        ++stats->pages;
        if (launched) ++stats->prefetched;
      }
    }
    if (inflight.empty()) return keys;
    Result<llm::Completion> page = inflight.front().Join();
    inflight.pop_front();
    if (page.ok() && ConsumeScanPage(*page, &keys, &seen)) continue;
    // The scan ends here. Every page still in flight was launched and
    // bills whether or not the scan wants its answer: join the stragglers
    // so their completions settle into any prompt-cache decorator
    // instead of being abandoned mid-flight.
    if (stats != nullptr) {
      stats->overfetched += static_cast<int>(inflight.size());
    }
    for (TaskHandle<Result<llm::Completion>>& straggler : inflight) {
      (void)straggler.Join();
    }
    if (!page.ok()) return page.status();
    return keys;
  }
}

Result<std::vector<Value>> LlmGetAttributeBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys,
    const catalog::ColumnDef& column, const ExecutionOptions& options,
    std::vector<CellProvenance>* provenances) {
  std::vector<llm::Prompt> prompts;
  prompts.reserve(keys.size());
  for (const std::string& key : keys) {
    llm::AttributeGetIntent intent;
    intent.concept_name = table.entity_type;
    intent.key = key;
    intent.attribute = column.name;
    intent.attribute_description = column.description;
    intent.expected_type = column.type;
    prompts.push_back(llm::BuildAttributePrompt(intent));
  }
  // Only provenance reads the prompt texts; don't keep one long string
  // per key on ordinary runs.
  std::vector<std::string> prompt_texts;
  if (provenances != nullptr) {
    prompt_texts.reserve(prompts.size());
    for (const llm::Prompt& p : prompts) prompt_texts.push_back(p.text);
  }
  llm::BatchScheduler scheduler(model, BatchPolicyFor(options),
                                "attribute:" + column.name);
  GALOIS_ASSIGN_OR_RETURN(std::vector<llm::Completion> completions,
                          scheduler.Run(std::move(prompts)));

  clean::DomainConstraint domain = clean::DefaultDomainForColumn(column.name);
  std::vector<Value> values;
  values.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string& completion = completions[i].text;
    Value v;
    if (!options.enable_cleaning) {
      // Ablation: store the raw completion (still mapping "Unknown" to
      // NULL so the relation stays well-formed).
      v = clean::IsUnknown(completion) ? Value::Null()
                                       : Value::String(completion);
    } else {
      GALOIS_ASSIGN_OR_RETURN(
          v, clean::NormalizeCell(completion, column.type,
                                  options.enforce_domains ? &domain
                                                          : nullptr));
    }
    if (provenances != nullptr) {
      CellProvenance p;
      p.table_alias = table.name;
      p.key = keys[i];
      p.column = column.name;
      p.prompt = std::move(prompt_texts[i]);
      p.completion = completion;
      p.value = v;
      provenances->push_back(std::move(p));
    }
    values.push_back(std::move(v));
  }
  return values;
}

Result<std::vector<int>> LlmFilterCheckBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys, const llm::PromptFilter& filter,
    const ExecutionOptions& options) {
  std::vector<llm::Prompt> prompts;
  prompts.reserve(keys.size());
  for (const std::string& key : keys) {
    llm::FilterCheckIntent intent;
    intent.concept_name = table.entity_type;
    intent.key = key;
    intent.filter = filter;
    prompts.push_back(llm::BuildFilterPrompt(intent));
  }
  llm::BatchScheduler scheduler(model, BatchPolicyFor(options),
                                "filter-check:" + filter.attribute);
  GALOIS_ASSIGN_OR_RETURN(std::vector<llm::Completion> completions,
                          scheduler.Run(std::move(prompts)));
  return ParseVerdicts(completions);
}

Result<std::vector<int>> LlmVerifyCellBatch(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const std::vector<std::string>& keys,
    const catalog::ColumnDef& column, const std::vector<Value>& claimed,
    const ExecutionOptions& options) {
  if (keys.size() != claimed.size()) {
    return Status::InvalidArgument(
        "LlmVerifyCellBatch: keys/claimed size mismatch");
  }
  std::vector<llm::Prompt> prompts;
  prompts.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    llm::VerifyIntent intent;
    intent.concept_name = table.entity_type;
    intent.key = keys[i];
    intent.attribute = column.name;
    intent.attribute_description = column.description;
    intent.claimed = claimed[i];
    prompts.push_back(llm::BuildVerifyPrompt(intent));
  }
  llm::BatchScheduler scheduler(model, BatchPolicyFor(options),
                                "verify:" + column.name);
  GALOIS_ASSIGN_OR_RETURN(std::vector<llm::Completion> completions,
                          scheduler.Run(std::move(prompts)));
  return ParseVerdicts(completions);
}

}  // namespace galois::core
