#include "net/protocol.h"

#include <cstdio>
#include <iterator>
#include <map>
#include <optional>
#include <utility>

#include "llm/http_llm.h"
#include "llm/prompt_json.h"

namespace galois::net {

namespace {

Result<DataType> DataTypeFromName(std::string_view name) {
  if (name == "NULL") return DataType::kNull;
  if (name == "BOOL") return DataType::kBool;
  if (name == "INT") return DataType::kInt64;
  if (name == "DOUBLE") return DataType::kDouble;
  if (name == "VARCHAR") return DataType::kString;
  if (name == "DATE") return DataType::kDate;
  return Status::ParseError("wire: unknown column type \"" +
                            std::string(name) + "\"");
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

// ServerStats builds a tree; the result codec below writes and reads the
// same keys directly.
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

// --- the result codec: values to bytes and back, no tree --------------------

constexpr char kMalformedRelation[] = "wire: malformed relation payload";
constexpr char kMalformedCostMeter[] = "wire: malformed cost meter payload";

/// Appends `"key":`, after a ',' unless it opens its object.
void AppendKey(std::string* out, std::string_view key) {
  if (out->back() != '{') out->push_back(',');
  AppendJsonString(out, key);
  out->push_back(':');
}

void AppendNumberMember(std::string* out, std::string_view key, double v) {
  AppendKey(out, key);
  AppendJsonNumber(out, v);
}

void AppendStringMember(std::string* out, std::string_view key,
                        std::string_view v) {
  AppendKey(out, key);
  AppendJsonString(out, v);
}

/// Reads a member that must hold a valid value into `*slot`. The last of
/// a repeated key wins, so a value `read` rejects is skipped (its syntax
/// still checked) and its error kept only until a later duplicate
/// replaces it.
template <typename T, typename Read>
Status ReadLast(JsonReader* reader, std::optional<Result<T>>* slot,
                Read read) {
  const JsonReader::Mark start = reader->mark();
  slot->emplace(read(reader));
  if ((*slot)->ok()) return Status::OK();
  reader->Reset(start);
  return reader->Skip();
}

/// What a ReadLast slot ended with; a kParseError `missing` if the key
/// never came.
template <typename T>
Result<T> Take(std::optional<Result<T>>* slot, const char* missing) {
  if (!slot->has_value()) return Status::ParseError(missing);
  return std::move(**slot);
}

/// Reads a member that must be a string (the last one counts).
Status ReadRequiredString(JsonReader* reader,
                          std::optional<std::string>* slot) {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, reader->Peek());
  if (type != Json::Type::kString) {
    slot->reset();
    return reader->Skip();
  }
  GALOIS_ASSIGN_OR_RETURN(std::string_view v, reader->ReadString());
  *slot = std::string(v);
  return Status::OK();
}

void AppendCounters(std::string* out, const Counters& counters) {
  for (const auto& [key, field] : kCounterKeys) {
    AppendNumberMember(out, key, static_cast<double>(counters.*field));
  }
}

/// Reads the value of `key` into its counter when `key` names one.
Result<bool> ReadCounter(JsonReader* reader, std::string_view key,
                         Counters* counters) {
  for (const auto& [name, field] : kCounterKeys) {
    if (key != name) continue;
    GALOIS_ASSIGN_OR_RETURN(counters->*field, reader->ReadIntOr(0));
    return true;
  }
  return false;
}

// The number fields of a CostMeter and of each of its by_model slices,
// under their wire keys, in wire order; each is a count or (the latency)
// a double.
template <typename Meter>
struct MeterField {
  const char* key;
  int64_t Meter::*count;
  double Meter::*ms;
};
using llm::CostMeter;
using llm::ModelUsage;
constexpr MeterField<CostMeter> kCostMeterFields[] = {
    {"num_prompts", &CostMeter::num_prompts, nullptr},
    {"prompt_tokens", &CostMeter::prompt_tokens, nullptr},
    {"completion_tokens", &CostMeter::completion_tokens, nullptr},
    {"simulated_latency_ms", nullptr, &CostMeter::simulated_latency_ms},
    {"cache_hits", &CostMeter::cache_hits, nullptr},
    {"store_hits", &CostMeter::store_hits, nullptr},
    {"num_batches", &CostMeter::num_batches, nullptr},
};
constexpr MeterField<ModelUsage> kModelUsageFields[] = {
    {"num_prompts", &ModelUsage::num_prompts, nullptr},
    {"prompt_tokens", &ModelUsage::prompt_tokens, nullptr},
    {"completion_tokens", &ModelUsage::completion_tokens, nullptr},
    {"simulated_latency_ms", nullptr, &ModelUsage::simulated_latency_ms},
    {"num_batches", &ModelUsage::num_batches, nullptr},
};

template <typename Meter, size_t N>
void AppendMeterFields(std::string* out, const Meter& meter,
                       const MeterField<Meter> (&fields)[N]) {
  for (const MeterField<Meter>& field : fields) {
    AppendNumberMember(out, field.key,
                       field.count ? static_cast<double>(meter.*field.count)
                                   : meter.*field.ms);
  }
}

/// Reads the value of `key` into its field when `key` names one.
template <typename Meter, size_t N>
Result<bool> ReadMeterField(JsonReader* reader, std::string_view key,
                            const MeterField<Meter> (&fields)[N],
                            Meter* meter) {
  for (const MeterField<Meter>& field : fields) {
    if (key != field.key) continue;
    if (field.count) {
      GALOIS_ASSIGN_OR_RETURN(meter->*field.count, reader->ReadIntOr(0));
    } else {
      GALOIS_ASSIGN_OR_RETURN(meter->*field.ms, reader->ReadNumberOr(0.0));
    }
    return true;
  }
  return false;
}

void AppendCostMeter(std::string* out, const CostMeter& meter) {
  out->push_back('{');
  AppendMeterFields(out, meter, kCostMeterFields);
  AppendKey(out, "by_model");
  out->push_back('{');
  for (const auto& [name, usage] : meter.by_model) {
    AppendKey(out, name);
    out->push_back('{');
    AppendMeterFields(out, usage, kModelUsageFields);
    out->push_back('}');
  }
  out->append("}}");
}

/// Reads one by_model slice; a slice that is not an object reads as zero.
Result<ModelUsage> ReadModelUsage(JsonReader* reader) {
  ModelUsage usage;
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, reader->Peek());
  if (type != Json::Type::kObject) {
    GALOIS_RETURN_IF_ERROR(reader->Skip());
    return usage;
  }
  GALOIS_RETURN_IF_ERROR(
      reader->ReadObject([&](std::string_view key) -> Status {
        GALOIS_ASSIGN_OR_RETURN(
            bool read, ReadMeterField(reader, key, kModelUsageFields, &usage));
        return read ? Status::OK() : reader->Skip();
      }));
  return usage;
}

/// Reads by_model; a repeated by_model replaces the slices, and one that
/// is not an object reads as none.
Status ReadSlices(JsonReader* reader,
                  std::map<std::string, ModelUsage>* slices) {
  slices->clear();
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, reader->Peek());
  if (type != Json::Type::kObject) return reader->Skip();
  return reader->ReadObject([&](std::string_view name) -> Status {
    ModelUsage& usage = (*slices)[std::string(name)];
    GALOIS_ASSIGN_OR_RETURN(usage, ReadModelUsage(reader));
    return Status::OK();
  });
}

Result<CostMeter> ReadCostMeter(JsonReader* reader) {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, reader->Peek());
  if (type != Json::Type::kObject) {
    return Status::ParseError(kMalformedCostMeter);
  }
  CostMeter meter;
  GALOIS_RETURN_IF_ERROR(
      reader->ReadObject([&](std::string_view key) -> Status {
        if (key == "by_model") return ReadSlices(reader, &meter.by_model);
        GALOIS_ASSIGN_OR_RETURN(
            bool read, ReadMeterField(reader, key, kCostMeterFields, &meter));
        return read ? Status::OK() : reader->Skip();
      }));
  return meter;
}

void AppendRelation(std::string* out, const Relation& relation) {
  out->append("{\"columns\":[");
  for (const Column& column : relation.schema().columns()) {
    if (out->back() != '[') out->push_back(',');
    out->push_back('{');
    AppendStringMember(out, "name", column.name);
    AppendStringMember(out, "type", DataTypeName(column.type));
    if (!column.table.empty()) AppendStringMember(out, "table", column.table);
    out->push_back('}');
  }
  out->append("],\"rows\":[");
  for (const Tuple& tuple : relation.rows()) {
    if (out->back() != '[') out->push_back(',');
    out->push_back('[');
    for (const Value& value : tuple) {
      if (out->back() != '[') out->push_back(',');
      llm::AppendTaggedValue(out, value);
    }
    out->push_back(']');
  }
  out->append("]}");
}

Result<Column> ReadColumn(JsonReader* reader) {
  constexpr char kMalformed[] = "wire: malformed relation column";
  GALOIS_ASSIGN_OR_RETURN(Json::Type kind, reader->Peek());
  if (kind != Json::Type::kObject) return Status::ParseError(kMalformed);
  std::optional<std::string> name;
  std::optional<Result<DataType>> type;
  std::string table;
  GALOIS_RETURN_IF_ERROR(
      reader->ReadObject([&](std::string_view key) -> Status {
        if (key == "name") return ReadRequiredString(reader, &name);
        if (key == "type") {
          GALOIS_ASSIGN_OR_RETURN(std::string_view v, reader->ReadStringOr(""));
          type = DataTypeFromName(v);
          return Status::OK();
        }
        if (key == "table") {
          GALOIS_ASSIGN_OR_RETURN(std::string_view v, reader->ReadStringOr(""));
          table = std::string(v);
          return Status::OK();
        }
        return reader->Skip();
      }));
  if (!name) return Status::ParseError(kMalformed);
  if (!type) type = DataTypeFromName("");
  if (!type->ok()) return type->status();
  return Column(std::move(*name), **type, std::move(table));
}

Result<Schema> ReadColumns(JsonReader* reader) {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, reader->Peek());
  if (type != Json::Type::kArray) return Status::ParseError(kMalformedRelation);
  Schema schema;
  GALOIS_RETURN_IF_ERROR(reader->ReadArray([&]() -> Status {
    GALOIS_ASSIGN_OR_RETURN(Column column, ReadColumn(reader));
    schema.AddColumn(std::move(column));
    return Status::OK();
  }));
  return schema;
}

/// Reads the rows; their arity is checked against the final schema once
/// the relation's object ends, since "rows" may come before "columns".
Result<std::vector<Tuple>> ReadRows(JsonReader* reader, size_t arity_hint) {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, reader->Peek());
  if (type != Json::Type::kArray) return Status::ParseError(kMalformedRelation);
  std::vector<Tuple> rows;
  GALOIS_RETURN_IF_ERROR(reader->ReadArray([&]() -> Status {
    GALOIS_ASSIGN_OR_RETURN(Json::Type row_type, reader->Peek());
    if (row_type != Json::Type::kArray) {
      return Status::ParseError("wire: relation row " +
                                std::to_string(rows.size()) +
                                " arity mismatch");
    }
    Tuple& tuple = rows.emplace_back();
    tuple.reserve(arity_hint);
    return reader->ReadArray([&]() -> Status {
      GALOIS_ASSIGN_OR_RETURN(Value value, llm::ReadTaggedValue(reader));
      tuple.push_back(std::move(value));
      return Status::OK();
    });
  }));
  return rows;
}

Result<Relation> ReadRelation(JsonReader* reader) {
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, reader->Peek());
  if (type != Json::Type::kObject) return Status::ParseError(kMalformedRelation);
  std::optional<Result<Schema>> schema;
  std::optional<Result<std::vector<Tuple>>> rows;
  GALOIS_RETURN_IF_ERROR(
      reader->ReadObject([&](std::string_view key) -> Status {
        if (key == "columns") return ReadLast(reader, &schema, ReadColumns);
        if (key == "rows") {
          const size_t arity = schema && schema->ok() ? (*schema)->size() : 0;
          return ReadLast(reader, &rows, [arity](JsonReader* r) {
            return ReadRows(r, arity);
          });
        }
        return reader->Skip();
      }));
  GALOIS_ASSIGN_OR_RETURN(Schema columns, Take(&schema, kMalformedRelation));
  GALOIS_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                          Take(&rows, kMalformedRelation));
  for (size_t r = 0; r < tuples.size(); ++r) {
    if (tuples[r].size() != columns.size()) {
      return Status::ParseError("wire: relation row " + std::to_string(r) +
                                " arity mismatch");
    }
  }
  return Relation(std::move(columns), std::move(tuples));
}

/// A payload's likely size, so its string grows once at most: the meter
/// and counters, then a typical column and tagged cell.
size_t PayloadReserve(const Relation& relation) {
  return 640 + 48 * relation.NumColumns() +
         24 * relation.NumRows() * relation.NumColumns();
}

/// Reads a result payload: `member(key)` reads the members particular to
/// it; relation, cost and the counters are read here.
template <typename Payload, typename ReadMember>
Result<Payload> DecodeResultPayload(std::string_view bytes,
                                    const char* malformed,
                                    ReadMember member) {
  JsonReader reader(bytes);
  GALOIS_ASSIGN_OR_RETURN(Json::Type type, reader.Peek());
  if (type != Json::Type::kObject) return Status::ParseError(malformed);
  Payload payload;
  std::optional<Result<Relation>> relation;
  std::optional<Result<CostMeter>> cost;
  GALOIS_RETURN_IF_ERROR(
      reader.ReadObject([&](std::string_view key) -> Status {
        if (key == "relation") return ReadLast(&reader, &relation, ReadRelation);
        if (key == "cost") return ReadLast(&reader, &cost, ReadCostMeter);
        GALOIS_ASSIGN_OR_RETURN(bool read,
                                ReadCounter(&reader, key, &payload));
        if (read) return Status::OK();
        GALOIS_ASSIGN_OR_RETURN(read, member(&reader, key, &payload));
        return read ? Status::OK() : reader.Skip();
      }));
  GALOIS_RETURN_IF_ERROR(reader.Finish());
  GALOIS_ASSIGN_OR_RETURN(payload.relation,
                          Take(&relation, kMalformedRelation));
  GALOIS_ASSIGN_OR_RETURN(payload.cost, Take(&cost, kMalformedCostMeter));
  return payload;
}

}  // namespace

Json RelationToJson(const Relation& relation) {
  std::string text;
  AppendRelation(&text, relation);
  return Json::Parse(text).value();
}

Json CostMeterToJson(const llm::CostMeter& meter) {
  std::string text;
  AppendCostMeter(&text, meter);
  return Json::Parse(text).value();
}

Result<llm::CostMeter> CostMeterFromJson(const Json& j) {
  const std::string text = j.Dump();
  JsonReader reader(text);
  return ReadCostMeter(&reader);
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

std::string EncodeQueryResult(const QueryResult& result) {
  std::string out;
  out.reserve(PayloadReserve(result.relation) + result.physical_plan.size());
  out.append("{\"relation\":");
  AppendRelation(&out, result.relation);
  out.append(",\"cost\":");
  AppendCostMeter(&out, result.cost);
  AppendCounters(&out, result);
  AppendNumberMember(&out, "wall_ms", result.wall_ms);
  if (!result.physical_plan.empty()) {
    AppendStringMember(&out, "physical_plan", result.physical_plan);
  }
  out.push_back('}');
  return out;
}

Result<QueryResult> DecodeQueryResult(std::string_view payload) {
  return DecodeResultPayload<QueryResult>(
      payload, "wire: malformed query result payload",
      [](JsonReader* reader, std::string_view key,
         QueryResult* result) -> Result<bool> {
        if (key == "wall_ms") {
          GALOIS_ASSIGN_OR_RETURN(result->wall_ms, reader->ReadNumberOr(0.0));
        } else if (key == "physical_plan") {
          GALOIS_ASSIGN_OR_RETURN(std::string_view plan,
                                  reader->ReadStringOr(""));
          result->physical_plan = std::string(plan);
        } else {
          return false;
        }
        return true;
      });
}

Json QueryResultToJson(const QueryResult& result) {
  return Json::Parse(EncodeQueryResult(result)).value();
}

Result<QueryResult> QueryResultFromJson(const Json& j) {
  return DecodeQueryResult(j.Dump());
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

std::string EncodePartialQueryResponse(const PartialQueryResponse& response) {
  std::string out;
  out.reserve(PayloadReserve(response.relation));
  out.push_back('{');
  AppendStringMember(&out, "table", response.table);
  AppendStringMember(&out, "alias", response.alias);
  out.append(",\"relation\":");
  AppendRelation(&out, response.relation);
  out.append(",\"cost\":");
  AppendCostMeter(&out, response.cost);
  AppendCounters(&out, response);
  out.push_back('}');
  return out;
}

Result<PartialQueryResponse> DecodePartialQueryResponse(
    std::string_view payload) {
  constexpr char kMalformed[] = "wire: malformed partial query response";
  std::optional<std::string> table;
  std::optional<std::string> alias;
  GALOIS_ASSIGN_OR_RETURN(
      PartialQueryResponse response,
      DecodeResultPayload<PartialQueryResponse>(
          payload, kMalformed,
          [&](JsonReader* reader, std::string_view key,
              PartialQueryResponse*) -> Result<bool> {
            if (key == "table") {
              GALOIS_RETURN_IF_ERROR(ReadRequiredString(reader, &table));
            } else if (key == "alias") {
              GALOIS_RETURN_IF_ERROR(ReadRequiredString(reader, &alias));
            } else {
              return false;
            }
            return true;
          }));
  if (!table || !alias) return Status::ParseError(kMalformed);
  response.table = std::move(*table);
  response.alias = std::move(*alias);
  return response;
}

Json PartialQueryResponseToJson(const PartialQueryResponse& response) {
  return Json::Parse(EncodePartialQueryResponse(response)).value();
}

Result<PartialQueryResponse> PartialQueryResponseFromJson(const Json& j) {
  return DecodePartialQueryResponse(j.Dump());
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
