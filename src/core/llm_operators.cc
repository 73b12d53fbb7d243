#include "core/llm_operators.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

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
  policy.budget = options.budget;
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

/// Sends scan pages `first` .. `last` in one Flush and returns their
/// completions in page order, or none when the flush failed. A failed
/// flush counts the pages `model`'s meter billed for it (a serial
/// dispatch stops at its first failed chunk, the default
/// CompleteBatchMetered at its first failed prompt), all of them
/// overfetched.
std::vector<llm::Completion> FlushScanPages(llm::BatchScheduler* scheduler,
                                            llm::LanguageModel* model,
                                            const catalog::TableDef& table,
                                            int first, int last,
                                            KeyScanStats* stats) {
  for (int page = first; page <= last; ++page) {
    scheduler->Add(BuildScanPagePrompt(table, std::nullopt, page));
  }
  const int batches_before = scheduler->batches_dispatched();
  const int64_t billed_before = model->cost().num_prompts;
  Result<std::vector<llm::Completion>> batch = scheduler->Flush();
  stats->batches += scheduler->batches_dispatched() - batches_before;
  const int pages =
      batch.ok() ? last - first + 1
                 : static_cast<int>(model->cost().num_prompts - billed_before);
  stats->pages += pages;
  stats->flushed += pages;
  if (batch.ok()) return std::move(batch).value();
  stats->overfetched += pages;
  return {};
}

}  // namespace

Result<std::vector<std::string>> LlmKeyScan(
    llm::LanguageModel* model, const catalog::TableDef& table,
    const ExecutionOptions& options,
    const std::optional<llm::PromptFilter>& filter, KeyScanStats* stats,
    int64_t key_limit) {
  KeyScanStats unused;
  KeyScanStats& s = stats != nullptr ? *stats : unused;
  s = KeyScanStats{};
  std::vector<std::string> keys;
  std::unordered_set<std::string> seen;
  llm::BatchScheduler scheduler(model, BatchPolicyFor(options),
                                "key-scan:" + table.entity_type);
  // A filtered scan has no row estimate to size it by (expected_rows
  // counts the whole table), and a LIMIT-bounded one promises no round
  // trip past the satisfying page.
  const bool sized = options.batch_prompts && !filter.has_value() &&
                     key_limit < 0 && table.expected_rows > 0;
  // A sized scan predicts pages 0 .. predicted - 1, capped by
  // max_scan_pages: pages 0-1 until page 0 shows the page size (the
  // ladder buys page 1 whenever page 0 brings a new key), then the pages
  // that hold the catalog's count and the page that ends the scan.
  // Whenever the pages sent run out inside the prediction, the next ones
  // go out in one flush, one more than the scan has consumed (pages 0-1,
  // then 2-4, then 5-10, ...), so a model that ends its scan before the
  // catalog's count buys fewer pages past the end than it consumed, or
  // one when page 0 ends the scan. A failed flush is not the scan's
  // error: the scan goes on demand, unsized, from the failed flush's
  // first page to its end.
  int predicted = sized ? std::min(2, options.max_scan_pages) : 0;
  std::vector<llm::Completion> ahead;  // from the last flush
  size_t next = 0;                     // ahead[next] answers `page`
  for (int page = 0; page < options.max_scan_pages; ++page) {
    // LIMIT-bounded paging stops buying pages once enough keys are
    // scanned for the downstream Limit operator to be satisfiable.
    if (key_limit >= 0 && static_cast<int64_t>(keys.size()) >= key_limit) {
      break;
    }
    const int last = std::min(std::max(2 * page, 1), predicted - 1);
    if (next == ahead.size() && last > page) {
      ahead = FlushScanPages(&scheduler, model, table, page, last, &s);
      next = 0;
      if (ahead.empty()) predicted = 0;  // the flush failed
    }
    llm::Completion completion;
    if (next < ahead.size()) {
      completion = std::move(ahead[next++]);
    } else {
      ++s.pages;
      GALOIS_ASSIGN_OR_RETURN(
          completion,
          scheduler.CompleteOne(BuildScanPagePrompt(table, filter, page)));
    }
    if (!ConsumeScanPage(completion, &keys, &seen)) {
      s.overfetched += static_cast<int>(ahead.size() - next);
      break;
    }
    if (page == 0 && predicted > 0) {
      predicted = static_cast<int>(std::min<size_t>(
          (table.expected_rows + keys.size() - 1) / keys.size() + 1,
          static_cast<size_t>(options.max_scan_pages)));
    }
  }
  return keys;
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
