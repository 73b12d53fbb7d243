#ifndef GALOIS_NET_PROTOCOL_H_
#define GALOIS_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/database.h"
#include "common/json.h"
#include "common/result.h"
#include "core/galois_executor.h"
#include "llm/language_model.h"
#include "types/relation.h"

namespace galois::net {

/// The galoisd wire protocol's inner layer: JSON payload codecs for the
/// frame types in net/frame.h. Shared by GaloisServer and GaloisClient,
/// so the two sides cannot drift.
///
/// The two result-bearing frames (kQueryResult, kPartialResult) are
/// written straight from the values to bytes and read straight back,
/// with no Json tree: one writer and one reader per payload, built from
/// one writer and reader each for the relation, the cost meter, the
/// counter block and the tagged value (llm::AppendTaggedValue). The
/// bytes equal what Json::Dump writes for the same document. The reader
/// keeps the tree decoders' rules: keys in any order, unknown keys
/// skipped, the last of a repeated key wins, a missing or wrong-typed
/// number reads 0 and a missing string "", and every rejection is
/// kParseError. The other frames (requests, stats, errors) build a Json
/// tree; both paths share common/json's one lexer and one number/string
/// writer.
///
/// Fidelity contract: a QueryResult serialised here and decoded on the
/// other side compares equal to the in-process value — same relation
/// (schema + rows, including int64/date payloads, which travel as
/// strings like every tagged value, and non-finite doubles, which travel
/// as "inf", "-inf" or "nan"), same CostMeter (doubles written at 17
/// significant digits read back bit-exact), same core::QueryCounters.
/// That is what lets the e2e suite prove the daemon byte-identical to
/// the in-process facade. Provenance traces are deliberately NOT
/// carried: provenance runs are a debugging mode and their traces hold
/// engine-internal pointers; remote sessions run with record_provenance
/// off.

/// Relation as JSON: {"columns":[{name,type,table}],
/// "rows":[[tagged values...]]}. A DOM adapter over the result codec's
/// relation writer, for callers that compare or embed relations.
Json RelationToJson(const Relation& relation);

/// CostMeter <-> JSON, including the by_model per-backend slices. DOM
/// adapters over the result codec's meter writer and reader, which
/// ServerStats embeds.
Json CostMeterToJson(const llm::CostMeter& meter);
Result<llm::CostMeter> CostMeterFromJson(const Json& j);

/// One query request (FrameType::kQuery).
struct QueryRequest {
  std::string sql;
  /// Client-requested deadline; 0 = none. The server clamps it to its
  /// own default_deadline_ms (when set) and arms the query's
  /// CancelToken, so a slow query is cancelled cooperatively instead of
  /// parking a connection slot forever.
  int64_t deadline_ms = 0;
};

Json QueryRequestToJson(const QueryRequest& request);
Result<QueryRequest> QueryRequestFromJson(const Json& j);

/// QueryResult <-> payload bytes (FrameType::kQueryResult). The trace is
/// not carried (see the fidelity contract above).
std::string EncodeQueryResult(const QueryResult& result);
Result<QueryResult> DecodeQueryResult(std::string_view payload);
/// DOM adapters: Json::Parse(EncodeQueryResult(r)) and
/// DecodeQueryResult(j.Dump()).
Json QueryResultToJson(const QueryResult& result);
Result<QueryResult> QueryResultFromJson(const Json& j);

/// One shard of a scatter-gathered query (FrameType::kPartialQuery):
/// the coordinator asks a node to materialise exactly one LLM table of
/// the query (core::ShardRequest), whole, within `deadline_ms`.
///
/// The node re-plans `sql` against its own (identical) catalog and
/// validates that the shard it finds under `alias` matches `table`,
/// `columns` and `descriptor` byte-for-byte — a mismatch means the
/// coordinator and node disagree about the catalog or planner version,
/// which is a deterministic error, never retried. The descriptor holds
/// raw PredicateDescriptor::Encode() bytes; the codec hex-encodes them
/// on the wire so arbitrary predicate values survive the JSON layer.
struct PartialQueryRequest : core::ShardRequest {
  /// 0 = none; the node clamps it like QueryRequest::deadline_ms.
  int64_t deadline_ms = 0;
};

Json PartialQueryRequestToJson(const PartialQueryRequest& request);
Result<PartialQueryRequest> PartialQueryRequestFromJson(const Json& j);

/// A node's answer to a partial query (FrameType::kPartialResult): the
/// shard's materialised relation (alias-qualified key + needed columns)
/// plus the per-shard CostMeter slice and counters the coordinator
/// aggregates into the merged QueryResult.
struct PartialQueryResponse : core::QueryCounters {
  std::string table;
  std::string alias;
  Relation relation;
  /// Exactly this shard's spend (per-query CostTap, by-model slices
  /// included) — summing the shards' meters reproduces the facade's.
  llm::CostMeter cost;
};

std::string EncodePartialQueryResponse(const PartialQueryResponse& response);
Result<PartialQueryResponse> DecodePartialQueryResponse(
    std::string_view payload);
/// DOM adapters over the two above.
Json PartialQueryResponseToJson(const PartialQueryResponse& response);
Result<PartialQueryResponse> PartialQueryResponseFromJson(const Json& j);

/// Failed-query payload (FrameType::kError): the Status round-trips with
/// its code and message (classification markers like the retryable
/// suffix ride along in the message), plus an explicit retryable flag
/// for server-side conditions — admission rejection, drain — that the
/// client should retry against another (or a less busy) server.
Json StatusToJson(const Status& status, bool retryable);
/// Reconstructs the Status; a retryable flag is re-applied as the
/// llm::MarkRetryable marker so llm::IsRetryableLlmError sees it.
Status StatusFromJson(const Json& j);

/// Live daemon statistics (FrameType::kStatsResult) — the ctdb-style
/// counter block. Spend is the whole model stack's meter (per-backend
/// slices included). The core::QueryCounters base sums every completed
/// query's QueryResult and every served shard's PartialQueryResponse.
struct ServerStats : core::QueryCounters {
  int64_t uptime_ms = 0;
  /// Whole seconds of uptime_ms — the scrape-friendly rendering cluster
  /// health checks grep for ("a node with uptime_s below the burst
  /// window just restarted").
  int64_t uptime_s = 0;
  bool draining = false;

  int64_t connections_accepted = 0;
  int64_t connections_active = 0;
  /// Alias of connections_active under the conventional scrape name, so
  /// cluster tooling reading `active_connections` keys off one spelling
  /// across daemon versions.
  int64_t active_connections = 0;

  int64_t queries_started = 0;
  int64_t queries_ok = 0;
  int64_t queries_error = 0;
  /// Admission-control rejections (queue full or draining).
  int64_t queries_rejected = 0;
  /// Responses that could not be written because the client had already
  /// disconnected (the query still ran and billed).
  int64_t responses_unsent = 0;

  /// Scatter-gather shard executions served (FrameType::kPartialQuery).
  int64_t partials_started = 0;
  int64_t partials_ok = 0;
  int64_t partials_error = 0;

  int64_t in_flight = 0;
  int64_t queued = 0;

  /// Completed-query wall clock (QueryResult::wall_ms sums / max).
  double total_wall_ms = 0.0;
  double max_wall_ms = 0.0;
  /// queries_ok per second of uptime.
  double queries_per_sec = 0.0;

  /// Stack-wide spend since the Database opened.
  llm::CostMeter spend;

  /// Persistent store shape; all zero when no store is attached.
  bool store_attached = false;
  int64_t store_file_bytes = 0;
  int64_t store_live_materialisations = 0;
  int64_t store_live_prompts = 0;

  /// Human-readable one-per-line rendering for logs and CI scrapes.
  std::string ToString() const;
};

Json ServerStatsToJson(const ServerStats& stats);
Result<ServerStats> ServerStatsFromJson(const Json& j);

}  // namespace galois::net

#endif  // GALOIS_NET_PROTOCOL_H_
