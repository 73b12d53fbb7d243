#ifndef GALOIS_STORE_RESULT_STORE_H_
#define GALOIS_STORE_RESULT_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "store/store_env.h"
#include "store/store_format.h"
#include "types/schema.h"

namespace galois::store {

/// When appended records are forced to disk. The store is a *cache* of
/// recomputable results, so the durability/throughput trade is explicit:
/// a crash only ever costs re-buying the un-synced suffix — recovery
/// drops a torn tail cleanly in every mode.
enum class Durability {
  kNone,     // never fsync; the OS flushes when it pleases
  kOnClose,  // fsync at close and after vacuum (the default)
  kAlways,   // fsync after every appended record
};

struct StoreOptions {
  /// Directory holding the journal (created if missing). Empty disables
  /// the store wherever a StoreOptions is embedded (DatabaseOptions).
  std::string path;

  /// On-disk budget. When the journal file (live + dead bytes) grows
  /// past this, a vacuum compacts it, evicting least-recently-used
  /// entries if the live set alone exceeds the budget.
  int64_t max_bytes = 64 * 1024 * 1024;

  Durability durability = Durability::kOnClose;

  /// Read path: mmap the journal for recovery/warm-start scans; false
  /// forces the buffered-read fallback.
  bool use_mmap = true;

  /// Run threshold-triggered vacuums on a background thread instead of
  /// inline on the appending caller. Explicit Vacuum() calls are always
  /// synchronous.
  bool background_vacuum = true;

  /// Filesystem/fsync/clock hooks; null means StoreEnv::Default(). The
  /// crash-injection tests substitute a fault-scheduled environment.
  StoreEnv* env = nullptr;
};

/// Counters over the store's lifetime; a consistent snapshot under the
/// store mutex.
struct StoreStats {
  // Recovery (Open).
  int64_t materialisations_recovered = 0;
  int64_t prompts_recovered = 0;
  int64_t records_dropped = 0;  // torn tail + checksum-failing records
  int64_t recovery_micros = 0;

  // Journal traffic.
  int64_t appends = 0;
  int64_t append_bytes = 0;
  int64_t append_errors = 0;  // store went read-only (dead) on the first

  // Vacuum.
  int64_t vacuums = 0;
  int64_t evictions = 0;  // live entries dropped by the LRU budget
  int64_t last_vacuum_micros = 0;

  // Current shape.
  int64_t file_bytes = 0;
  int64_t live_bytes = 0;
  int64_t live_materialisations = 0;
  int64_t live_prompts = 0;
};

/// The persistent on-disk result store: a write-ahead journal of
/// materialised tables and prompt completions, keyed by the same
/// fingerprints the in-memory caches use, so a process restart warm-
/// starts both caches instead of re-billing the workload (ROADMAP item
/// 2; the pager/journal design follows oidadb's edbp pager and ctdb's
/// vacuum).
///
/// Life cycle: Open() recovers the journal (CRC-validating every record,
/// truncating the torn tail — see store_format.h for the exact rules),
/// ForEach* feeds the recovered entries to the caches, and the caches'
/// persistence hooks call Put*/Touch* as they fill/serve. Entries are
/// only ever *appended*; dead bytes (replaced or erased records) are
/// reclaimed by Vacuum(), which rewrites live records newest-last into a
/// temp file and atomically renames it in — a crash mid-vacuum leaves
/// the old journal untouched.
///
/// Failure policy: the store must never take a query down. An append
/// error (disk full, fault-injected kill) marks the store dead — every
/// later Put is a silent no-op (counted in stats().append_errors) and
/// the committed prefix of the journal stays valid for the next open.
///
/// Thread-safe: all operations take the store mutex; one store may be
/// shared by every session of a Database (and is, via the cache hooks).
class ResultStore {
 public:
  /// Opens (creating if needed) the journal under `options.path` and
  /// recovers its committed records. kIoError when the directory or
  /// journal cannot be created/read; a *corrupt* journal is not an
  /// error — bad records are dropped, counted, and overwritten.
  static Result<std::unique_ptr<ResultStore>> Open(StoreOptions options);

  /// Syncs per durability mode and joins any background vacuum.
  ~ResultStore();
  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// --- warm-start reads (recovered, live entries) ---------------------
  /// Invoked in least-recently-used-first order, so feeding an LRU-capped
  /// cache leaves the most recent entries resident. The records are read
  /// under the store mutex and the callbacks run after it is released, so
  /// a callback may take another component's lock (a cache warm-starting
  /// with its store hooks attached) without ordering it after the store's.
  ///
  /// `base_key`/`descriptor` are the structured cache-key halves of
  /// records written with them (kMaterialisationFlagHasDescriptor); both
  /// arrive empty for records from before predicate subsumption existed.
  void ForEachMaterialisation(
      const std::function<void(const std::string& store_key,
                               const std::string& base_key,
                               const std::string& descriptor,
                               const std::vector<std::string>& columns,
                               const std::vector<Tuple>& rows)>& fn);
  void ForEachPrompt(
      const std::function<void(const std::string& model,
                               const std::string& text,
                               const std::string& completion)>& fn);

  /// --- journal writes -------------------------------------------------
  /// Appends one record; replaces any live entry under the same key.
  /// When `base_key` or `descriptor` is non-empty the record carries the
  /// structured (base key, predicate descriptor) pair alongside the
  /// opaque store key, so the next open can warm-start subsumption-
  /// capable entries; the two-argument form writes a legacy v1 record.
  Status PutMaterialisation(const std::string& store_key,
                            const std::vector<std::string>& columns,
                            const std::vector<Tuple>& rows,
                            const std::string& base_key = std::string(),
                            const std::string& descriptor = std::string());
  Status PutPrompt(const std::string& model, const std::string& text,
                   const std::string& completion);

  /// Tombstones one materialisation (appended, reclaimed by vacuum).
  Status EraseMaterialisation(const std::string& fingerprint);

  /// Appends a clear marker dropping every live entry of the kind — the
  /// persistent mirror of MaterialisationCache::Clear / PromptCache::
  /// Clear, so a cleared cache is not resurrected at the next open.
  Status ClearMaterialisations();
  Status ClearPrompts();

  /// Marks an entry recently used (in-memory only — recency feeds the
  /// vacuum's LRU eviction; it is rebuilt as append order after a
  /// restart, never worth a disk write).
  void TouchMaterialisation(const std::string& fingerprint);
  void TouchPrompt(const std::string& model, const std::string& text);

  /// Compacts the journal now (synchronously): drops dead bytes, evicts
  /// LRU entries beyond max_bytes, atomically swaps the rewrite in. The
  /// rewrite streams the surviving frames to the temp file in bounded
  /// pieces, so it needs no second copy of the live set in memory.
  Status Vacuum();

  /// Durability barrier (fsync) regardless of mode.
  Status Sync();

  StoreStats stats() const;

  const StoreOptions& options() const { return options_; }

 private:
  struct LiveEntry {
    RecordType type = RecordType::kMaterialisation;
    int64_t offset = 0;      // frame start in the journal file
    int64_t frame_size = 0;  // header + key + payload
    uint64_t last_used = 0;  // recency sequence for LRU eviction
  };

  ResultStore() = default;

  std::string JournalPath() const { return options_.path + "/galois.store"; }
  std::string TempPath() const {
    return options_.path + "/galois.store.tmp";
  }

  /// Index key: one byte of record type, so a prompt can never collide
  /// with a fingerprint, then the record key of a materialisation, or a
  /// 64-bit digest of a prompt's record key. The journal frames already
  /// hold every prompt text, and those run to hundreds of bytes, so the
  /// index keeps none of them. Two prompts whose keys share a digest
  /// share an index entry: the later Put replaces the earlier one, as if
  /// it were the same prompt, and a Touch of either ages both. So a
  /// collision can drop or mis-age an entry but never serve wrong bytes:
  /// the store serves prompts only through ForEachPrompt, which returns
  /// each frame's full key, and PromptCache compares whole texts.
  static std::string IndexKey(RecordType type, const std::string& key);

  Status AppendLocked(RecordType type, const std::string& key,
                      const std::string& payload, bool track_live,
                      uint8_t flags = 0);
  void RemoveLiveLocked(const std::string& index_key);
  void ClearTypeLocked(RecordType type);
  Status VacuumLocked();
  void MaybeScheduleVacuum(std::unique_lock<std::mutex>* lock);

  /// Live frames of `type`, LRU-first, decoded from a fresh view under
  /// mu_ and returned by value, so the ForEach* callbacks run unlocked.
  std::vector<FrameResult> LiveFrames(RecordType type);

  StoreOptions options_;
  StoreEnv* env_ = nullptr;

  mutable std::mutex mu_;
  std::unique_ptr<AppendFile> writer_;          // guarded by mu_
  std::unordered_map<std::string, LiveEntry> live_;  // guarded by mu_
  int64_t file_bytes_ = 0;                      // guarded by mu_
  int64_t live_bytes_ = 0;                      // guarded by mu_
  uint64_t tick_ = 0;                           // guarded by mu_
  bool dead_ = false;                           // guarded by mu_
  bool vacuum_scheduled_ = false;               // guarded by mu_
  StoreStats stats_;                            // guarded by mu_

  std::mutex bg_mu_;
  std::thread bg_vacuum_;  // guarded by bg_mu_
};

}  // namespace galois::store

#endif  // GALOIS_STORE_RESULT_STORE_H_
