#include "llm/prompt_json.h"

#include <cmath>
#include <cstdlib>
#include <limits>

namespace galois::llm {

namespace {

Result<int64_t> ParseInt64(const std::string& s) {
  if (s.empty()) return Status::ParseError("wire value: empty int");
  char* end = nullptr;
  long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return Status::ParseError("wire value: bad int '" + s + "'");
  }
  return static_cast<int64_t>(v);
}

const char* DataTypeTag(DataType t) {
  switch (t) {
    case DataType::kNull: return "null";
    case DataType::kBool: return "bool";
    case DataType::kInt64: return "int";
    case DataType::kDouble: return "double";
    case DataType::kString: return "string";
    case DataType::kDate: return "date";
  }
  return "null";
}

Result<DataType> DataTypeFromTag(std::string_view tag) {
  if (tag == "null") return DataType::kNull;
  if (tag == "bool") return DataType::kBool;
  if (tag == "int") return DataType::kInt64;
  if (tag == "double") return DataType::kDouble;
  if (tag == "string") return DataType::kString;
  if (tag == "date") return DataType::kDate;
  return Status::ParseError("wire value: unknown type tag '" +
                            std::string(tag) + "'");
}

Json FilterToJson(const PromptFilter& f) {
  Json j = Json::Object();
  j.Set("attribute", Json::String(f.attribute));
  j.Set("attribute_description", Json::String(f.attribute_description));
  j.Set("op", Json::String(f.op));
  j.Set("value", ValueToJson(f.value));
  return j;
}

Result<PromptFilter> FilterFromJson(const Json& j) {
  if (!j.is_object()) return Status::ParseError("wire filter: not an object");
  PromptFilter f;
  f.attribute = j.GetString("attribute");
  f.attribute_description = j.GetString("attribute_description");
  f.op = j.GetString("op");
  GALOIS_ASSIGN_OR_RETURN(f.value, ValueFromJson(j["value"]));
  return f;
}

}  // namespace

void AppendTaggedValue(std::string* out, const Value& v) {
  out->append("{\"t\":\"");
  out->append(DataTypeTag(v.type()));
  out->push_back('"');
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      out->append(v.bool_value() ? ",\"v\":true" : ",\"v\":false");
      break;
    case DataType::kInt64:
      // int64 as string: JSON numbers are doubles on the wire and would
      // corrupt values above 2^53.
      out->append(",\"v\":\"");
      out->append(std::to_string(v.int_value()));
      out->push_back('"');
      break;
    case DataType::kDouble: {
      const double d = v.double_value();
      out->append(",\"v\":");
      if (std::isnan(d)) {
        out->append("\"nan\"");
      } else if (std::isinf(d)) {
        out->append(d > 0 ? "\"inf\"" : "\"-inf\"");
      } else {
        AppendJsonNumber(out, d);
      }
      break;
    }
    case DataType::kString:
      out->append(",\"v\":");
      AppendJsonString(out, v.string_value());
      break;
    case DataType::kDate:
      out->append(",\"v\":\"");
      out->append(std::to_string(v.date_packed()));
      out->push_back('"');
      break;
  }
  out->push_back('}');
}

namespace {

/// Reads the "v" member of a value tagged `type`.
Result<Value> ReadPayload(JsonReader* reader, DataType type) {
  switch (type) {
    case DataType::kNull:
      GALOIS_RETURN_IF_ERROR(reader->Skip());
      return Value::Null();
    case DataType::kBool: {
      GALOIS_ASSIGN_OR_RETURN(bool v, reader->ReadBoolOr(false));
      return Value::Bool(v);
    }
    case DataType::kInt64: {
      GALOIS_ASSIGN_OR_RETURN(std::string_view text, reader->ReadStringOr(""));
      GALOIS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(std::string(text)));
      return Value::Int(v);
    }
    case DataType::kDouble: {
      GALOIS_ASSIGN_OR_RETURN(Json::Type kind, reader->Peek());
      if (kind != Json::Type::kString) {
        GALOIS_ASSIGN_OR_RETURN(double v, reader->ReadNumberOr(0.0));
        return Value::Double(v);
      }
      GALOIS_ASSIGN_OR_RETURN(std::string_view text, reader->ReadString());
      if (text == "inf") {
        return Value::Double(std::numeric_limits<double>::infinity());
      }
      if (text == "-inf") {
        return Value::Double(-std::numeric_limits<double>::infinity());
      }
      if (text == "nan") {
        return Value::Double(std::numeric_limits<double>::quiet_NaN());
      }
      return Value::Double(0.0);
    }
    case DataType::kString: {
      GALOIS_ASSIGN_OR_RETURN(std::string_view v, reader->ReadStringOr(""));
      return Value::String(std::string(v));
    }
    case DataType::kDate: {
      GALOIS_ASSIGN_OR_RETURN(std::string_view text, reader->ReadStringOr(""));
      GALOIS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(std::string(text)));
      return Value::DatePacked(v);
    }
  }
  return Status::ParseError("wire value: unhandled type");
}

}  // namespace

Result<Value> ReadTaggedValue(JsonReader* reader) {
  GALOIS_ASSIGN_OR_RETURN(Json::Type kind, reader->Peek());
  if (kind != Json::Type::kObject) {
    return Status::ParseError("wire value: not an object");
  }
  bool tagged = false;
  Result<DataType> type = DataType::kNull;
  // The payload is read as soon as it arrives under a known tag; one that
  // came first, or under a tag a later "t" replaced, is read again from
  // its mark once the tag is final.
  bool has_payload = false;
  bool payload_read = false;
  JsonReader::Mark payload_at;
  Result<Value> value = Value::Null();
  GALOIS_RETURN_IF_ERROR(
      reader->ReadObject([&](std::string_view key) -> Status {
        if (key == "t") {
          GALOIS_ASSIGN_OR_RETURN(std::string_view tag,
                                  reader->ReadStringOr(""));
          tagged = true;
          type = DataTypeFromTag(tag);
          payload_read = false;
          return Status::OK();
        }
        if (key != "v") return reader->Skip();
        has_payload = true;
        payload_at = reader->mark();
        payload_read = false;
        if (tagged && type.ok()) {
          value = ReadPayload(reader, *type);
          payload_read = value.ok();
        }
        if (payload_read) return Status::OK();
        reader->Reset(payload_at);
        return reader->Skip();
      }));
  if (!tagged) return DataTypeFromTag("").status();
  if (!type.ok()) return type.status();
  if (*type == DataType::kNull) return Value::Null();
  if (payload_read) return value;
  if (!has_payload) {
    // An absent payload reads as a null one: false, 0, "" or a bad int.
    JsonReader absent("null");
    return ReadPayload(&absent, *type);
  }
  const JsonReader::Mark end = reader->mark();
  reader->Reset(payload_at);
  value = ReadPayload(reader, *type);
  reader->Reset(end);
  return value;
}

Json ValueToJson(const Value& v) {
  std::string text;
  AppendTaggedValue(&text, v);
  return Json::Parse(text).value();
}

Result<Value> ValueFromJson(const Json& j) {
  const std::string text = j.Dump();
  JsonReader reader(text);
  return ReadTaggedValue(&reader);
}

Json IntentToJson(const PromptIntent& intent) {
  Json j = Json::Object();
  if (const auto* scan = std::get_if<KeyScanIntent>(&intent)) {
    j.Set("kind", Json::String("key_scan"));
    j.Set("concept", Json::String(scan->concept_name));
    j.Set("key_attribute", Json::String(scan->key_attribute));
    j.Set("page", Json::Number(static_cast<int64_t>(scan->page)));
    if (scan->filter.has_value()) {
      j.Set("filter", FilterToJson(*scan->filter));
    }
  } else if (const auto* get = std::get_if<AttributeGetIntent>(&intent)) {
    j.Set("kind", Json::String("attribute_get"));
    j.Set("concept", Json::String(get->concept_name));
    j.Set("key", Json::String(get->key));
    j.Set("attribute", Json::String(get->attribute));
    j.Set("attribute_description", Json::String(get->attribute_description));
    j.Set("expected_type", Json::String(DataTypeTag(get->expected_type)));
  } else if (const auto* check = std::get_if<FilterCheckIntent>(&intent)) {
    j.Set("kind", Json::String("filter_check"));
    j.Set("concept", Json::String(check->concept_name));
    j.Set("key", Json::String(check->key));
    j.Set("filter", FilterToJson(check->filter));
  } else if (const auto* freeform = std::get_if<FreeformIntent>(&intent)) {
    j.Set("kind", Json::String("freeform"));
    j.Set("question", Json::String(freeform->question));
    j.Set("sql", Json::String(freeform->sql));
    j.Set("chain_of_thought", Json::Bool(freeform->chain_of_thought));
  } else if (const auto* verify = std::get_if<VerifyIntent>(&intent)) {
    j.Set("kind", Json::String("verify"));
    j.Set("concept", Json::String(verify->concept_name));
    j.Set("key", Json::String(verify->key));
    j.Set("attribute", Json::String(verify->attribute));
    j.Set("attribute_description",
          Json::String(verify->attribute_description));
    j.Set("claimed", ValueToJson(verify->claimed));
  }
  return j;
}

Result<PromptIntent> IntentFromJson(const Json& j) {
  if (!j.is_object()) return Status::ParseError("wire intent: not an object");
  const std::string kind = j.GetString("kind");
  if (kind == "key_scan") {
    KeyScanIntent intent;
    intent.concept_name = j.GetString("concept");
    intent.key_attribute = j.GetString("key_attribute");
    intent.page = static_cast<int>(j.GetInt("page"));
    if (j.Has("filter")) {
      GALOIS_ASSIGN_OR_RETURN(PromptFilter f, FilterFromJson(j["filter"]));
      intent.filter = std::move(f);
    }
    return PromptIntent(std::move(intent));
  }
  if (kind == "attribute_get") {
    AttributeGetIntent intent;
    intent.concept_name = j.GetString("concept");
    intent.key = j.GetString("key");
    intent.attribute = j.GetString("attribute");
    intent.attribute_description = j.GetString("attribute_description");
    GALOIS_ASSIGN_OR_RETURN(intent.expected_type,
                            DataTypeFromTag(j.GetString("expected_type")));
    return PromptIntent(std::move(intent));
  }
  if (kind == "filter_check") {
    FilterCheckIntent intent;
    intent.concept_name = j.GetString("concept");
    intent.key = j.GetString("key");
    GALOIS_ASSIGN_OR_RETURN(intent.filter, FilterFromJson(j["filter"]));
    return PromptIntent(std::move(intent));
  }
  if (kind == "freeform") {
    FreeformIntent intent;
    intent.question = j.GetString("question");
    intent.sql = j.GetString("sql");
    intent.chain_of_thought = j.GetBool("chain_of_thought");
    return PromptIntent(std::move(intent));
  }
  if (kind == "verify") {
    VerifyIntent intent;
    intent.concept_name = j.GetString("concept");
    intent.key = j.GetString("key");
    intent.attribute = j.GetString("attribute");
    intent.attribute_description = j.GetString("attribute_description");
    GALOIS_ASSIGN_OR_RETURN(intent.claimed, ValueFromJson(j["claimed"]));
    return PromptIntent(std::move(intent));
  }
  return Status::ParseError("wire intent: unknown kind '" + kind + "'");
}

namespace {

Json MessagesFor(const Prompt& prompt) {
  Json message = Json::Object();
  message.Set("role", Json::String("user"));
  message.Set("content", Json::String(prompt.text));
  Json messages = Json::Array();
  messages.Append(std::move(message));
  return messages;
}

Result<std::string> UserContentOf(const Json& body) {
  const Json& messages = body["messages"];
  if (!messages.is_array() || messages.size() == 0) {
    return Status::ParseError("wire request: missing messages");
  }
  const Json& content = messages.at(messages.size() - 1)["content"];
  if (!content.is_string()) {
    return Status::ParseError("wire request: message content not a string");
  }
  return content.string_value();
}

Json UsageToJson(const WireUsage& usage) {
  Json j = Json::Object();
  j.Set("prompt_tokens", Json::Number(usage.prompt_tokens));
  j.Set("completion_tokens", Json::Number(usage.completion_tokens));
  j.Set("total_tokens",
        Json::Number(usage.prompt_tokens + usage.completion_tokens));
  return j;
}

WireUsage UsageFromJson(const Json& j) {
  WireUsage usage;
  usage.prompt_tokens = j.GetInt("prompt_tokens");
  usage.completion_tokens = j.GetInt("completion_tokens");
  return usage;
}

}  // namespace

Json BuildChatRequest(const std::string& model, const Prompt& prompt) {
  Json j = Json::Object();
  j.Set("model", Json::String(model));
  j.Set("messages", MessagesFor(prompt));
  j.Set("galois_intent", IntentToJson(prompt.intent));
  return j;
}

Result<Prompt> ParseChatRequest(const Json& body) {
  Prompt prompt;
  GALOIS_ASSIGN_OR_RETURN(prompt.text, UserContentOf(body));
  GALOIS_ASSIGN_OR_RETURN(prompt.intent,
                          IntentFromJson(body["galois_intent"]));
  return prompt;
}

Json BuildChatResponse(const std::string& model,
                       const Completion& completion, const WireUsage& usage) {
  Json message = Json::Object();
  message.Set("role", Json::String("assistant"));
  message.Set("content", Json::String(completion.text));
  Json choice = Json::Object();
  choice.Set("index", Json::Number(static_cast<int64_t>(0)));
  choice.Set("message", std::move(message));
  choice.Set("finish_reason", Json::String("stop"));
  Json choices = Json::Array();
  choices.Append(std::move(choice));
  Json j = Json::Object();
  j.Set("object", Json::String("chat.completion"));
  j.Set("model", Json::String(model));
  j.Set("choices", std::move(choices));
  j.Set("usage", UsageToJson(usage));
  j.Set("galois_latency_ms", Json::Number(usage.latency_ms));
  return j;
}

Result<WireCompletion> ParseChatResponse(const Json& body) {
  const Json& choices = body["choices"];
  if (!choices.is_array() || choices.size() == 0) {
    return Status::LlmError("wire response: missing choices");
  }
  const Json& content = choices.at(0)["message"]["content"];
  if (!content.is_string()) {
    return Status::LlmError("wire response: missing message content");
  }
  WireCompletion out;
  out.completion.text = content.string_value();
  out.usage = UsageFromJson(body["usage"]);
  out.usage.latency_ms = body.GetNumber("galois_latency_ms");
  return out;
}

Json BuildBatchRequest(const std::string& model,
                       const std::vector<Prompt>& prompts) {
  Json requests = Json::Array();
  for (size_t i = 0; i < prompts.size(); ++i) {
    Json one = Json::Object();
    one.Set("index", Json::Number(static_cast<int64_t>(i)));
    one.Set("messages", MessagesFor(prompts[i]));
    one.Set("galois_intent", IntentToJson(prompts[i].intent));
    requests.Append(std::move(one));
  }
  Json j = Json::Object();
  j.Set("model", Json::String(model));
  j.Set("requests", std::move(requests));
  return j;
}

Result<std::vector<Prompt>> ParseBatchRequest(const Json& body) {
  const Json& requests = body["requests"];
  if (!requests.is_array()) {
    return Status::ParseError("wire batch: missing requests");
  }
  std::vector<Prompt> prompts(requests.size());
  std::vector<bool> seen(requests.size(), false);
  for (size_t i = 0; i < requests.size(); ++i) {
    const Json& one = requests.at(i);
    int64_t index = one.GetInt("index", -1);
    if (index < 0 || index >= static_cast<int64_t>(requests.size()) ||
        seen[static_cast<size_t>(index)]) {
      return Status::ParseError("wire batch: bad request index");
    }
    seen[static_cast<size_t>(index)] = true;
    Prompt& p = prompts[static_cast<size_t>(index)];
    GALOIS_ASSIGN_OR_RETURN(p.text, UserContentOf(one));
    GALOIS_ASSIGN_OR_RETURN(p.intent, IntentFromJson(one["galois_intent"]));
  }
  return prompts;
}

Json BuildBatchResponse(const std::string& model,
                        const std::vector<Completion>& completions,
                        const std::vector<WireUsage>& per_prompt,
                        double round_trip_latency_ms,
                        const std::vector<size_t>& emit_order) {
  Json responses = Json::Array();
  for (size_t pos = 0; pos < emit_order.size(); ++pos) {
    size_t i = emit_order[pos];
    Json message = Json::Object();
    message.Set("role", Json::String("assistant"));
    message.Set("content", Json::String(completions[i].text));
    Json one = Json::Object();
    one.Set("index", Json::Number(static_cast<int64_t>(i)));
    one.Set("message", std::move(message));
    one.Set("usage", UsageToJson(per_prompt[i]));
    responses.Append(std::move(one));
  }
  Json j = Json::Object();
  j.Set("object", Json::String("batch.completion"));
  j.Set("model", Json::String(model));
  j.Set("responses", std::move(responses));
  j.Set("galois_latency_ms", Json::Number(round_trip_latency_ms));
  return j;
}

Result<std::pair<std::vector<Completion>, WireUsage>> ParseBatchResponse(
    const Json& body, size_t expected) {
  const Json& responses = body["responses"];
  if (!responses.is_array()) {
    return Status::LlmError("wire batch response: missing responses");
  }
  if (responses.size() != expected) {
    return Status::LlmError(
        "wire batch response: got " + std::to_string(responses.size()) +
        " completions for " + std::to_string(expected) + " prompts");
  }
  std::vector<Completion> completions(expected);
  std::vector<bool> seen(expected, false);
  WireUsage usage;
  for (size_t pos = 0; pos < responses.size(); ++pos) {
    const Json& one = responses.at(pos);
    int64_t index = one.GetInt("index", -1);
    if (index < 0 || index >= static_cast<int64_t>(expected) ||
        seen[static_cast<size_t>(index)]) {
      // Out-of-range or duplicated index: the whole batch is rejected —
      // never a partially filled completion vector.
      return Status::LlmError("wire batch response: bad completion index");
    }
    const Json& content = one["message"]["content"];
    if (!content.is_string()) {
      return Status::LlmError("wire batch response: missing content");
    }
    seen[static_cast<size_t>(index)] = true;
    completions[static_cast<size_t>(index)].text = content.string_value();
    WireUsage u = UsageFromJson(one["usage"]);
    usage.prompt_tokens += u.prompt_tokens;
    usage.completion_tokens += u.completion_tokens;
  }
  usage.latency_ms = body.GetNumber("galois_latency_ms");
  return std::make_pair(std::move(completions), usage);
}

}  // namespace galois::llm
