#include "llm/language_model.h"

#include <sstream>

namespace galois::llm {

Result<std::vector<Completion>> LanguageModel::CompleteBatchMetered(
    const std::vector<Prompt>& prompts, CostMeter* usage) {
  std::vector<Completion> out;
  out.reserve(prompts.size());
  CostMeter billed;
  for (const Prompt& p : prompts) {
    GALOIS_ASSIGN_OR_RETURN(Completion c, CompleteMetered(p, &billed));
    out.push_back(std::move(c));
  }
  if (usage != nullptr) *usage += billed;
  return out;
}

int64_t CountTokens(const std::string& text) {
  std::istringstream is(text);
  std::string word;
  int64_t count = 0;
  while (is >> word) ++count;
  return count;
}

}  // namespace galois::llm
