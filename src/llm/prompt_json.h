#ifndef GALOIS_LLM_PROMPT_JSON_H_
#define GALOIS_LLM_PROMPT_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "llm/prompt.h"

namespace galois::llm {

/// JSON codec for the LLM wire protocol, shared by HttpLlm (client side)
/// and tests/FakeLlmServer (server side) so the two cannot drift.
///
/// The request shape is OpenAI-chat-completions compatible — `model` +
/// `messages:[{role,content}]` — with one extension: the structured
/// PromptIntent travels alongside the text under `galois_intent`. The
/// intent is what lets a *simulated* backend behind real HTTP ground its
/// answer exactly like the in-process SimulatedLlm does (the text-only
/// path is what a real provider would use; it ignores unknown fields).
/// Values inside intents serialise int64/date payloads as strings, so
/// populations and packed dates survive the double-typed JSON number
/// space losslessly.

/// Tagged scalars, {"t":"int","v":"1234"}: the one writer and reader of
/// a Value on any wire. A double travels as a JSON number, except that a
/// non-finite one, which JSON cannot spell, travels as the string "inf",
/// "-inf" or "nan". The reader takes the tag and the payload in either
/// order; the last of a repeated key wins, unknown keys are skipped, and
/// a missing or wrong-typed bool, double or string payload reads
/// false, 0 or "".
void AppendTaggedValue(std::string* out, const Value& v);
Result<Value> ReadTaggedValue(JsonReader* reader);

/// DOM adapters over the two above, for the intent codec.
Json ValueToJson(const Value& v);
Result<Value> ValueFromJson(const Json& j);

/// PromptIntent <-> JSON (tagged by "kind": key_scan, attribute_get,
/// filter_check, freeform, verify).
Json IntentToJson(const PromptIntent& intent);
Result<PromptIntent> IntentFromJson(const Json& j);

/// Token usage + modelled latency reported by the server. latency_ms
/// carries the backend's simulated per-round-trip latency so a loopback
/// run bills the same CostMeter as an in-process run.
struct WireUsage {
  int64_t prompt_tokens = 0;
  int64_t completion_tokens = 0;
  double latency_ms = 0.0;
};

/// One decoded single-completion response.
struct WireCompletion {
  Completion completion;
  WireUsage usage;
};

// --- single round trip (POST /v1/chat/completions) -----------------------

Json BuildChatRequest(const std::string& model, const Prompt& prompt);
Result<Prompt> ParseChatRequest(const Json& body);
Json BuildChatResponse(const std::string& model, const Completion& completion,
                       const WireUsage& usage);
Result<WireCompletion> ParseChatResponse(const Json& body);

// --- batched round trip (POST /v1/batch_completions) ----------------------
// One request carries every prompt of a chunk with its position under
// `index`; the response echoes the indices and may arrive in ANY order
// (the fake server scripts shuffled replies) — the client reassembles by
// index and rejects missing or duplicate entries, so a malformed batch
// yields an error with no partial completions.

Json BuildBatchRequest(const std::string& model,
                       const std::vector<Prompt>& prompts);
Result<std::vector<Prompt>> ParseBatchRequest(const Json& body);
Json BuildBatchResponse(const std::string& model,
                        const std::vector<Completion>& completions,
                        const std::vector<WireUsage>& per_prompt,
                        double round_trip_latency_ms,
                        const std::vector<size_t>& emit_order);
/// Returns the completions in index order (0..expected-1) plus the
/// aggregate usage; kLlmError on missing/duplicate/out-of-range indices.
Result<std::pair<std::vector<Completion>, WireUsage>> ParseBatchResponse(
    const Json& body, size_t expected);

}  // namespace galois::llm

#endif  // GALOIS_LLM_PROMPT_JSON_H_
