#include "net/protocol.h"

#include <cstdio>
#include <iterator>
#include <utility>

#include "llm/http_llm.h"
#include "llm/prompt_json.h"

namespace galois::net {

namespace {

Result<DataType> DataTypeFromName(const std::string& name) {
  if (name == "NULL") return DataType::kNull;
  if (name == "BOOL") return DataType::kBool;
  if (name == "INT") return DataType::kInt64;
  if (name == "DOUBLE") return DataType::kDouble;
  if (name == "VARCHAR") return DataType::kString;
  if (name == "DATE") return DataType::kDate;
  return Status::ParseError("wire: unknown column type \"" + name + "\"");
}

Json ModelUsageToJson(const llm::ModelUsage& usage) {
  Json j = Json::Object();
  j.Set("num_prompts", Json::Number(usage.num_prompts));
  j.Set("prompt_tokens", Json::Number(usage.prompt_tokens));
  j.Set("completion_tokens", Json::Number(usage.completion_tokens));
  j.Set("simulated_latency_ms", Json::Number(usage.simulated_latency_ms));
  j.Set("num_batches", Json::Number(usage.num_batches));
  return j;
}

llm::ModelUsage ModelUsageFromJson(const Json& j) {
  llm::ModelUsage usage;
  usage.num_prompts = j.GetInt("num_prompts");
  usage.prompt_tokens = j.GetInt("prompt_tokens");
  usage.completion_tokens = j.GetInt("completion_tokens");
  usage.simulated_latency_ms = j.GetNumber("simulated_latency_ms");
  usage.num_batches = j.GetInt("num_batches");
  return usage;
}

// Hex codec for descriptor bytes: PredicateDescriptor::Encode() output
// is length-prefixed binary and may embed any byte value, so it cannot
// ride in a JSON string as-is.
std::string HexEncode(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

Result<std::string> HexDecode(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return Status::ParseError("wire: odd-length hex descriptor");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::ParseError("wire: non-hex byte in descriptor");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

// The core::QueryCounters block rides flat in each payload that carries
// it (kQueryResult, kPartialResult, kStatsResult), under these keys and
// in this order; ServerStats::ToString prints the same names.
using Counters = core::QueryCounters;
constexpr std::pair<const char*, int64_t Counters::*> kCounterKeys[] = {
    {"table_cache_lookups", &Counters::table_cache_lookups},
    {"table_cache_hits", &Counters::table_cache_hits},
    {"table_cache_exact_hits", &Counters::table_cache_exact_hits},
    {"table_cache_subsumption_hits", &Counters::table_cache_subsumption_hits},
    {"table_cache_store_hits", &Counters::table_cache_store_hits},
    {"scan_pages_prefetched", &Counters::scan_pages_prefetched},
    {"scan_pages_overfetched", &Counters::scan_pages_overfetched},
};
static_assert(std::size(kCounterKeys) * sizeof(int64_t) == sizeof(Counters),
              "every core::QueryCounters field needs a wire key");

void SetCounters(const Counters& counters, Json* j) {
  for (const auto& [key, field] : kCounterKeys) {
    j->Set(key, Json::Number(counters.*field));
  }
}

void GetCounters(const Json& j, Counters* counters) {
  for (const auto& [key, field] : kCounterKeys) {
    counters->*field = j.GetInt(key);
  }
}

}  // namespace

Json RelationToJson(const Relation& relation) {
  Json columns = Json::Array();
  for (const Column& column : relation.schema().columns()) {
    Json c = Json::Object();
    c.Set("name", Json::String(column.name));
    c.Set("type", Json::String(DataTypeName(column.type)));
    if (!column.table.empty()) c.Set("table", Json::String(column.table));
    columns.Append(std::move(c));
  }
  Json rows = Json::Array();
  for (const Tuple& tuple : relation.rows()) {
    Json row = Json::Array();
    for (const Value& value : tuple) {
      row.Append(llm::ValueToJson(value));
    }
    rows.Append(std::move(row));
  }
  Json j = Json::Object();
  j.Set("columns", std::move(columns));
  j.Set("rows", std::move(rows));
  return j;
}

Result<Relation> RelationFromJson(const Json& j) {
  if (!j.is_object() || !j["columns"].is_array() || !j["rows"].is_array()) {
    return Status::ParseError("wire: malformed relation payload");
  }
  Schema schema;
  const Json& columns = j["columns"];
  for (size_t i = 0; i < columns.size(); ++i) {
    const Json& c = columns.at(i);
    if (!c.is_object() || !c["name"].is_string()) {
      return Status::ParseError("wire: malformed relation column");
    }
    GALOIS_ASSIGN_OR_RETURN(DataType type,
                            DataTypeFromName(c.GetString("type")));
    schema.AddColumn(Column(c.GetString("name"), type, c.GetString("table")));
  }
  Relation relation(std::move(schema));
  const Json& rows = j["rows"];
  for (size_t r = 0; r < rows.size(); ++r) {
    const Json& row = rows.at(r);
    if (!row.is_array() || row.size() != relation.schema().size()) {
      return Status::ParseError("wire: relation row " + std::to_string(r) +
                                " arity mismatch");
    }
    Tuple tuple;
    tuple.reserve(row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      GALOIS_ASSIGN_OR_RETURN(Value value, llm::ValueFromJson(row.at(c)));
      tuple.push_back(std::move(value));
    }
    relation.AddRowUnchecked(std::move(tuple));
  }
  return relation;
}

Json CostMeterToJson(const llm::CostMeter& meter) {
  Json j = Json::Object();
  j.Set("num_prompts", Json::Number(meter.num_prompts));
  j.Set("prompt_tokens", Json::Number(meter.prompt_tokens));
  j.Set("completion_tokens", Json::Number(meter.completion_tokens));
  j.Set("simulated_latency_ms", Json::Number(meter.simulated_latency_ms));
  j.Set("cache_hits", Json::Number(meter.cache_hits));
  j.Set("store_hits", Json::Number(meter.store_hits));
  j.Set("num_batches", Json::Number(meter.num_batches));
  Json by_model = Json::Object();
  for (const auto& [name, usage] : meter.by_model) {
    by_model.Set(name, ModelUsageToJson(usage));
  }
  j.Set("by_model", std::move(by_model));
  return j;
}

Result<llm::CostMeter> CostMeterFromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::ParseError("wire: malformed cost meter payload");
  }
  llm::CostMeter meter;
  meter.num_prompts = j.GetInt("num_prompts");
  meter.prompt_tokens = j.GetInt("prompt_tokens");
  meter.completion_tokens = j.GetInt("completion_tokens");
  meter.simulated_latency_ms = j.GetNumber("simulated_latency_ms");
  meter.cache_hits = j.GetInt("cache_hits");
  meter.store_hits = j.GetInt("store_hits");
  meter.num_batches = j.GetInt("num_batches");
  // Iterate the object's keys via Dump-free access: by_model is an
  // object of name -> usage.
  const Json& by_model = j["by_model"];
  if (by_model.is_object()) {
    for (const std::string& name : by_model.Keys()) {
      meter.by_model[name] = ModelUsageFromJson(by_model[name]);
    }
  }
  return meter;
}

Json QueryRequestToJson(const QueryRequest& request) {
  Json j = Json::Object();
  j.Set("sql", Json::String(request.sql));
  if (request.deadline_ms > 0) {
    j.Set("deadline_ms", Json::Number(request.deadline_ms));
  }
  return j;
}

Result<QueryRequest> QueryRequestFromJson(const Json& j) {
  if (!j.is_object() || !j["sql"].is_string()) {
    return Status::ParseError("wire: query request lacks sql");
  }
  QueryRequest request;
  request.sql = j.GetString("sql");
  request.deadline_ms = j.GetInt("deadline_ms", 0);
  if (request.deadline_ms < 0) {
    return Status::ParseError("wire: negative deadline_ms");
  }
  return request;
}

Json QueryResultToJson(const QueryResult& result) {
  Json j = Json::Object();
  j.Set("relation", RelationToJson(result.relation));
  j.Set("cost", CostMeterToJson(result.cost));
  SetCounters(result, &j);
  j.Set("wall_ms", Json::Number(result.wall_ms));
  if (!result.physical_plan.empty()) {
    j.Set("physical_plan", Json::String(result.physical_plan));
  }
  return j;
}

Result<QueryResult> QueryResultFromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::ParseError("wire: malformed query result payload");
  }
  QueryResult result;
  GALOIS_ASSIGN_OR_RETURN(result.relation, RelationFromJson(j["relation"]));
  GALOIS_ASSIGN_OR_RETURN(result.cost, CostMeterFromJson(j["cost"]));
  GetCounters(j, &result);
  result.wall_ms = j.GetNumber("wall_ms");
  result.physical_plan = j.GetString("physical_plan");
  return result;
}

Json PartialQueryRequestToJson(const PartialQueryRequest& request) {
  Json j = Json::Object();
  j.Set("sql", Json::String(request.sql));
  j.Set("table", Json::String(request.table));
  j.Set("alias", Json::String(request.alias));
  Json columns = Json::Array();
  for (const std::string& column : request.columns) {
    columns.Append(Json::String(column));
  }
  j.Set("columns", std::move(columns));
  j.Set("descriptor", Json::String(HexEncode(request.descriptor)));
  if (request.deadline_ms > 0) {
    j.Set("deadline_ms", Json::Number(request.deadline_ms));
  }
  return j;
}

Result<PartialQueryRequest> PartialQueryRequestFromJson(const Json& j) {
  if (!j.is_object() || !j["sql"].is_string() || !j["table"].is_string() ||
      !j["alias"].is_string() || !j["columns"].is_array()) {
    return Status::ParseError("wire: malformed partial query request");
  }
  PartialQueryRequest request;
  request.sql = j.GetString("sql");
  request.table = j.GetString("table");
  request.alias = j.GetString("alias");
  const Json& columns = j["columns"];
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!columns.at(i).is_string()) {
      return Status::ParseError("wire: partial query column is not a string");
    }
    request.columns.push_back(columns.at(i).string_value());
  }
  GALOIS_ASSIGN_OR_RETURN(request.descriptor,
                          HexDecode(j.GetString("descriptor")));
  request.deadline_ms = j.GetInt("deadline_ms", 0);
  if (request.deadline_ms < 0) {
    return Status::ParseError("wire: negative deadline_ms");
  }
  return request;
}

Json PartialQueryResponseToJson(const PartialQueryResponse& response) {
  Json j = Json::Object();
  j.Set("table", Json::String(response.table));
  j.Set("alias", Json::String(response.alias));
  j.Set("relation", RelationToJson(response.relation));
  j.Set("cost", CostMeterToJson(response.cost));
  SetCounters(response, &j);
  return j;
}

Result<PartialQueryResponse> PartialQueryResponseFromJson(const Json& j) {
  if (!j.is_object() || !j["table"].is_string() || !j["alias"].is_string()) {
    return Status::ParseError("wire: malformed partial query response");
  }
  PartialQueryResponse response;
  response.table = j.GetString("table");
  response.alias = j.GetString("alias");
  GALOIS_ASSIGN_OR_RETURN(response.relation,
                          RelationFromJson(j["relation"]));
  GALOIS_ASSIGN_OR_RETURN(response.cost, CostMeterFromJson(j["cost"]));
  GetCounters(j, &response);
  return response;
}

Json StatusToJson(const Status& status, bool retryable) {
  Json j = Json::Object();
  j.Set("code", Json::Number(static_cast<int64_t>(status.code())));
  j.Set("code_name", Json::String(StatusCodeName(status.code())));
  j.Set("message", Json::String(status.message()));
  j.Set("retryable", Json::Bool(retryable));
  return j;
}

Status StatusFromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::Internal("wire: malformed error payload");
  }
  const int64_t code = j.GetInt("code", -1);
  if (code < 0 || code > static_cast<int64_t>(StatusCode::kIoError)) {
    return Status::Internal("wire: error payload with unknown code " +
                            std::to_string(code) + ": " +
                            j.GetString("message"));
  }
  Status status(static_cast<StatusCode>(code), j.GetString("message"));
  if (j.GetBool("retryable")) {
    status = llm::MarkRetryable(std::move(status));
  }
  return status;
}

Json ServerStatsToJson(const ServerStats& stats) {
  Json j = Json::Object();
  j.Set("uptime_ms", Json::Number(stats.uptime_ms));
  j.Set("uptime_s", Json::Number(stats.uptime_s));
  j.Set("draining", Json::Bool(stats.draining));
  j.Set("connections_accepted", Json::Number(stats.connections_accepted));
  j.Set("connections_active", Json::Number(stats.connections_active));
  j.Set("active_connections", Json::Number(stats.active_connections));
  j.Set("queries_started", Json::Number(stats.queries_started));
  j.Set("queries_ok", Json::Number(stats.queries_ok));
  j.Set("queries_error", Json::Number(stats.queries_error));
  j.Set("queries_rejected", Json::Number(stats.queries_rejected));
  j.Set("responses_unsent", Json::Number(stats.responses_unsent));
  j.Set("partials_started", Json::Number(stats.partials_started));
  j.Set("partials_ok", Json::Number(stats.partials_ok));
  j.Set("partials_error", Json::Number(stats.partials_error));
  j.Set("in_flight", Json::Number(stats.in_flight));
  j.Set("queued", Json::Number(stats.queued));
  j.Set("total_wall_ms", Json::Number(stats.total_wall_ms));
  j.Set("max_wall_ms", Json::Number(stats.max_wall_ms));
  j.Set("queries_per_sec", Json::Number(stats.queries_per_sec));
  SetCounters(stats, &j);
  j.Set("spend", CostMeterToJson(stats.spend));
  j.Set("store_attached", Json::Bool(stats.store_attached));
  j.Set("store_file_bytes", Json::Number(stats.store_file_bytes));
  j.Set("store_live_materialisations",
        Json::Number(stats.store_live_materialisations));
  j.Set("store_live_prompts", Json::Number(stats.store_live_prompts));
  return j;
}

Result<ServerStats> ServerStatsFromJson(const Json& j) {
  if (!j.is_object()) {
    return Status::ParseError("wire: malformed stats payload");
  }
  ServerStats stats;
  stats.uptime_ms = j.GetInt("uptime_ms");
  stats.uptime_s = j.GetInt("uptime_s");
  stats.draining = j.GetBool("draining");
  stats.connections_accepted = j.GetInt("connections_accepted");
  stats.connections_active = j.GetInt("connections_active");
  stats.active_connections = j.GetInt("active_connections");
  stats.queries_started = j.GetInt("queries_started");
  stats.queries_ok = j.GetInt("queries_ok");
  stats.queries_error = j.GetInt("queries_error");
  stats.queries_rejected = j.GetInt("queries_rejected");
  stats.responses_unsent = j.GetInt("responses_unsent");
  stats.partials_started = j.GetInt("partials_started");
  stats.partials_ok = j.GetInt("partials_ok");
  stats.partials_error = j.GetInt("partials_error");
  stats.in_flight = j.GetInt("in_flight");
  stats.queued = j.GetInt("queued");
  stats.total_wall_ms = j.GetNumber("total_wall_ms");
  stats.max_wall_ms = j.GetNumber("max_wall_ms");
  stats.queries_per_sec = j.GetNumber("queries_per_sec");
  GetCounters(j, &stats);
  GALOIS_ASSIGN_OR_RETURN(stats.spend, CostMeterFromJson(j["spend"]));
  stats.store_attached = j.GetBool("store_attached");
  stats.store_file_bytes = j.GetInt("store_file_bytes");
  stats.store_live_materialisations = j.GetInt("store_live_materialisations");
  stats.store_live_prompts = j.GetInt("store_live_prompts");
  return stats;
}

std::string ServerStats::ToString() const {
  char buf[256];
  std::string out = "galoisd statistics:\n";
  auto line = [&out, &buf](const char* name, int64_t value) {
    std::snprintf(buf, sizeof(buf), "  %-32s %lld\n", name,
                  static_cast<long long>(value));
    out += buf;
  };
  auto dline = [&out, &buf](const char* name, double value) {
    std::snprintf(buf, sizeof(buf), "  %-32s %.2f\n", name, value);
    out += buf;
  };
  line("uptime_ms", uptime_ms);
  line("uptime_s", uptime_s);
  line("draining", draining ? 1 : 0);
  line("connections_accepted", connections_accepted);
  line("connections_active", connections_active);
  line("active_connections", active_connections);
  line("queries_started", queries_started);
  line("queries_ok", queries_ok);
  line("queries_error", queries_error);
  line("queries_rejected", queries_rejected);
  line("responses_unsent", responses_unsent);
  line("partials_started", partials_started);
  line("partials_ok", partials_ok);
  line("partials_error", partials_error);
  line("in_flight", in_flight);
  line("queued", queued);
  dline("queries_per_sec", queries_per_sec);
  dline("total_wall_ms", total_wall_ms);
  dline("max_wall_ms", max_wall_ms);
  for (const auto& [key, field] : kCounterKeys) line(key, this->*field);
  line("llm_prompts", spend.num_prompts);
  line("llm_batches", spend.num_batches);
  line("llm_prompt_tokens", spend.prompt_tokens);
  line("llm_completion_tokens", spend.completion_tokens);
  line("llm_cache_hits", spend.cache_hits);
  line("llm_store_hits", spend.store_hits);
  for (const auto& [name, usage] : spend.by_model) {
    std::snprintf(buf, sizeof(buf),
                  "  spend[%s]: %lld prompts, %lld+%lld tokens\n",
                  name.c_str(), static_cast<long long>(usage.num_prompts),
                  static_cast<long long>(usage.prompt_tokens),
                  static_cast<long long>(usage.completion_tokens));
    out += buf;
  }
  line("store_attached", store_attached ? 1 : 0);
  if (store_attached) {
    line("store_file_bytes", store_file_bytes);
    line("store_live_materialisations", store_live_materialisations);
    line("store_live_prompts", store_live_prompts);
  }
  return out;
}

}  // namespace galois::net
