#ifndef GALOIS_CORE_MATERIALISATION_CACHE_H_
#define GALOIS_CORE_MATERIALISATION_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "core/options.h"
#include "types/relation.h"
#include "types/value.h"

namespace galois::core {

/// One pushed WHERE conjunct as recorded in a cache entry's predicate
/// descriptor: `column op value` executed through the LLM. `residual_ok`
/// is the planner's legality verdict: whether the engine may re-evaluate
/// this conjunct over materialised cell values (plain comparison
/// operators only — LIKE is excluded because the model's notion of
/// pattern matching is not reproducible engine-side).
struct PredicateConjunct {
  std::string column;
  std::string op;  // =, !=, <, <=, >, >=, LIKE
  Value value;
  bool residual_ok = false;

  /// Same (column, op, literal) triple — the identical-conjunct test
  /// used by both canonicalisation and the subsumption rule.
  bool SameShape(const PredicateConjunct& other) const {
    return column == other.column && op == other.op && value == other.value;
  }
};

/// The structured predicate half of a materialisation cache key: the
/// conjuncts the planner bound to one LLM scan, plus the two scan-shape
/// facts that decide what the materialised rows *are* (which conjunct
/// was merged into the scan prompt, and whether paging was LIMIT-
/// bounded). The other half — table def, result-affecting options,
/// model — lives in MaterialisationCache::BaseKey(); splitting the old
/// flat fingerprint this way is what lets a lookup reason about
/// predicate containment instead of byte equality.
struct PredicateDescriptor {
  /// Pushed conjuncts in canonical order (call Canonicalise()).
  std::vector<PredicateConjunct> conjuncts;
  /// Column of the conjunct merged into the scan prompt (pushdown);
  /// empty when every filter ran as a per-key check. Exact matching
  /// keeps pushed and checked-per-key scans apart (they can answer
  /// differently on noisy models); predicate subsumption deliberately
  /// ignores it under the cache's deterministic-model assumption.
  std::string pushed_column;
  /// LIMIT-derived paging bound (-1 unbounded). A bounded scan
  /// materialises a *prefix* of the table, so such entries only ever
  /// serve descriptor-identical queries; unbounded entries may serve
  /// bounded queries (the relational tail re-applies the LIMIT).
  int64_t scan_key_limit = -1;

  /// Sorts conjuncts into a canonical order (and drops exact
  /// duplicates) so `WHERE a AND b` and `WHERE b AND a` produce the
  /// same descriptor. Sound because per-key filter verdicts are
  /// independent: the surviving key set is the intersection of the
  /// per-conjunct sets regardless of plan order.
  void Canonicalise();

  /// Deterministic, unambiguous byte encoding (length-prefixed fields).
  /// Doubles as the exact-match cache key and as the wire form the
  /// persistent store journals next to each materialisation record.
  std::string Encode() const;

  /// Inverse of Encode(); returns false on truncated or foreign bytes
  /// (the caller degrades to a cache miss, never to wrong data).
  static bool Decode(std::string_view bytes, PredicateDescriptor* out);
};

/// The single-string store key for one materialisation: the base key
/// length-prefixed so (base, descriptor) pairs can never collide, then
/// the descriptor bytes. Used by the API-layer store adapter; the cache
/// itself keys entries on the pair.
std::string MaterialisationStoreKey(const std::string& base_key,
                                    const std::string& descriptor_bytes);

/// Counters exposed by MaterialisationCache::stats(); plain data, taken
/// as a consistent snapshot under the cache mutex.
struct MaterialisationCacheStats {
  int64_t lookups = 0;
  int64_t hits = 0;        // total table-level hits (exact + predicate)
  int64_t exact_hits = 0;  // descriptor matched byte-for-byte
  /// Served from an entry cached under a *weaker* filter via residual
  /// in-memory filtering (zero LLM spend).
  int64_t predicate_subsumption_hits = 0;
  int64_t subsumption_hits = 0;  // served by projecting a wider entry
  int64_t store_hits = 0;        // hits served by warm-started entries
  int64_t insertions = 0;
  int64_t evictions = 0;
};

/// Per-lookup outcome detail, filled by MaterialisationCache::Lookup so
/// the plan compiler can attribute the hit kind, bill the residual
/// filter as an operator, and thread the counters out to QueryResult.
struct MaterialisationLookupInfo {
  bool hit = false;
  bool exact = false;               // descriptor matched exactly
  bool predicate_subsumed = false;  // served via residual filtering
  bool column_subsumed = false;     // projected from a wider entry
  bool from_store = false;          // serving entry was warm-started
  /// Number of conjuncts the engine re-checked in memory (0 on exact).
  int residual_conjuncts = 0;
  /// The re-checked conjuncts themselves (for explain rendering).
  std::vector<PredicateConjunct> residual;
  int64_t rows_before_residual = 0;
  int64_t rows_after_residual = 0;
};

/// Persistence hook: a sink observing the cache's mutations so an
/// on-disk store (store::ResultStore, adapted in the API layer — core
/// stays independent of the store) can journal them. Callbacks run under
/// the cache mutex: they must be quick and must never call back into the
/// cache. `descriptor` is PredicateDescriptor::Encode() bytes.
class MaterialisationSink {
 public:
  virtual ~MaterialisationSink() = default;

  /// A new or widened entry landed: `rows` are key-first in `columns`
  /// (non-key names, def order) order.
  virtual void OnInsert(const std::string& base_key,
                        const std::string& descriptor,
                        const std::vector<std::string>& columns,
                        const std::vector<Tuple>& rows) = 0;

  /// An entry served a lookup (recency signal for the store's LRU).
  virtual void OnHit(const std::string& base_key,
                     const std::string& descriptor) = 0;

  /// Clear() dropped everything.
  virtual void OnClear() = 0;
};

/// Cross-query cache of materialised LLM base relations — the reuse layer
/// between queries that PromptCache provides between prompts (both are
/// Section 6 "physical plan optimisation" instances). Where PromptCache
/// saves one round trip per repeated prompt text, this cache saves the
/// *entire* scan / filter / attribute / critic phase tree of a table
/// whose materialisation was already computed: a warm hit performs zero
/// LLM round trips.
///
/// Entries are keyed by a (base key, predicate descriptor) pair. The
/// base key covers everything filter-independent that can change the
/// materialised bytes: table definition identity, the result-affecting
/// ExecutionOptions (verify_cells, cleaning, domains, max_scan_pages)
/// and the model name. Dispatch-only knobs (batch_prompts,
/// max_batch_size, parallel_batches) are deliberately excluded — they
/// never change results, so a serial run can serve an overlapped or
/// batched one and vice versa. The descriptor covers the pushed
/// conjuncts in canonical order, which conjunct (if any) was merged into
/// the scan prompt, and the LIMIT-derived paging bound.
///
/// Predicate subsumption: a query's pushed filter F' is served by an
/// entry cached under filter F when F' implies F — every conjunct of F
/// is either identical to a conjunct of F' or contains (as an interval
/// over int/double/date literals) the intersection of F''s bounds on
/// that column. The rows of such an entry are a superset of the query's
/// rows, so the engine applies the *residual* — the conjuncts of F' not
/// identical to a conjunct of F — in memory, mirroring the simulated
/// model's deterministic comparison semantics (Value::Compare, with
/// case-insensitive string equality for `=` and NULL cells dropping the
/// row exactly as a failed per-key check would). A residual conjunct is
/// only legal when the planner marked it residually checkable and its
/// column's values are present in the entry; otherwise that entry
/// degrades to a miss. String-typed conjuncts imply only via identical
/// conjuncts (the model's `=` is case-insensitive, so byte intervals
/// are unsound); LIKE likewise. Entries with a scan_key_limit are table
/// *prefixes* and never serve anything but a descriptor-identical
/// query.
///
/// Column subsumption: an entry also records *which* non-key columns it
/// materialised. A lookup needing a subset of a cached entry's columns is
/// served by projection — the wider materialisation subsumes the narrower
/// one because surviving keys depend only on the scan and filters, and
/// cell values are pure per (key, attribute) for deterministic models.
/// That determinism assumption is the same one PromptCache relies on —
/// and the same one predicate subsumption rests on (a pushed and a
/// checked conjunct answer identically on a deterministic model); a
/// deployment over a sampling model would scope the cache to one session
/// the same way it would scope the prompt cache.
///
/// Invalidation rules (see also docs/ARCHITECTURE.md):
///  * provenance runs bypass the cache entirely (a hit could not replay
///    per-cell prompt/completion traces), so record_provenance acts as a
///    per-query off switch;
///  * entries are evicted least-recently-used beyond `max_entries`;
///  * Clear() drops everything (the shell's `.cache clear`);
///  * a model/catalog change shows up in the base key, so stale
///    entries are never served, only orphaned until evicted.
///
/// Thread-safe: all operations take an internal mutex, so one cache may
/// be shared by executors running on different threads.
class MaterialisationCache {
 public:
  explicit MaterialisationCache(size_t max_entries = 64)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  /// The filter-independent half of the cache key: table definition
  /// (names, types, descriptions feed the prompts and the cleaning
  /// layer), result-affecting options and the model name.
  static std::string BaseKey(const catalog::TableDef& def,
                             const ExecutionOptions& options,
                             const std::string& model_name);

  /// Returns the cached materialisation serving (base_key, descriptor)
  /// projected to key + `needed_columns` (def order) and qualified with
  /// `alias`, or nullopt. Serves exact descriptor matches first, then
  /// predicate-subsumed entries (residual conjuncts applied in memory),
  /// projecting wider column sets in either case. `info`, when non-null,
  /// receives the hit kind and residual row counts (zeroed on a miss).
  std::optional<Relation> Lookup(
      const std::string& base_key, const PredicateDescriptor& descriptor,
      const catalog::TableDef& def,
      const std::vector<const catalog::ColumnDef*>& needed_columns,
      const std::string& alias, MaterialisationLookupInfo* info = nullptr);

  /// Memoises `rel`, a relation of key + `columns` (in that order) as
  /// materialised under (base_key, descriptor). An existing entry for
  /// the same key pair that already subsumes `columns` is refreshed
  /// instead; an existing narrower entry is replaced (widest wins).
  /// Evicts LRU entries beyond max_entries.
  void Insert(const std::string& base_key,
              const PredicateDescriptor& descriptor,
              const std::vector<const catalog::ColumnDef*>& columns,
              const Relation& rel);

  /// Drops every entry; stats are untouched.
  void Clear();

  /// Seeds one entry recovered from the persistent store: inserted with
  /// `from_store` set (so hits on it count as store_hits) and WITHOUT
  /// notifying the sink — the record is already on disk.
  /// `descriptor_bytes` must be PredicateDescriptor::Encode() output;
  /// undecodable bytes drop the record (a miss, never wrong data). Feed
  /// entries LRU-first (ResultStore::ForEachMaterialisation does) so
  /// eviction beyond max_entries drops the stalest first.
  void WarmStart(const std::string& base_key,
                 const std::string& descriptor_bytes,
                 const std::vector<std::string>& columns,
                 std::vector<Tuple> rows);

  /// Attaches (or, with null, detaches) the persistence sink. The sink
  /// must outlive the cache or be detached first; attach after warm-
  /// starting, so recovered entries are not re-journaled. One sink at a
  /// time: a borrowed cache shared by several Databases may be persisted
  /// by at most one of them.
  void SetSink(MaterialisationSink* sink);

  size_t size() const;
  MaterialisationCacheStats stats() const;

 private:
  struct Entry {
    std::string base_key;
    PredicateDescriptor descriptor;  // canonical
    std::string descriptor_bytes;    // descriptor.Encode(), cached
    std::vector<std::string> columns;  // non-key column names, def order
    std::vector<Tuple> rows;           // key first, then `columns`
    uint64_t last_used = 0;
    bool from_store = false;  // warm-started, not computed this process
  };

  void EvictBeyondCapLocked();

  mutable std::mutex mu_;
  const size_t max_entries_;
  uint64_t tick_ = 0;     // guarded by mu_
  std::vector<Entry> entries_;  // guarded by mu_; linear scan is fine at
                                // the default cap
  MaterialisationCacheStats stats_;  // guarded by mu_
  MaterialisationSink* sink_ = nullptr;  // guarded by mu_
};

}  // namespace galois::core

#endif  // GALOIS_CORE_MATERIALISATION_CACHE_H_
