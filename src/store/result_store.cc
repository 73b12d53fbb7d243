#include "store/result_store.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

namespace galois::store {

namespace {

/// Vacuum rewrites down to this fraction of max_bytes, so the journal
/// has append headroom before the next threshold crossing.
constexpr int64_t kVacuumTargetNum = 3;
constexpr int64_t kVacuumTargetDen = 4;

/// Vacuum appends the rewrite to the temp file in pieces of about this
/// many bytes.
constexpr size_t kVacuumPieceBytes = 1 << 20;

}  // namespace

std::string ResultStore::IndexKey(RecordType type, const std::string& key) {
  std::string out(1, static_cast<char>(type));
  if (type != RecordType::kPrompt) return out.append(key);
  const uint64_t digest = std::hash<std::string>{}(key);
  return out.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
}

Result<std::unique_ptr<ResultStore>> ResultStore::Open(
    StoreOptions options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("StoreOptions::path is empty");
  }
  if (options.max_bytes < static_cast<int64_t>(kFileHeaderSize)) {
    return Status::InvalidArgument("StoreOptions::max_bytes too small");
  }
  std::unique_ptr<ResultStore> store(new ResultStore());
  store->options_ = std::move(options);
  store->env_ = store->options_.env != nullptr ? store->options_.env
                                               : StoreEnv::Default();
  StoreEnv* env = store->env_;
  const int64_t t0 = env->NowMicros();

  GALOIS_RETURN_IF_ERROR(env->CreateDir(store->options_.path));
  // A temp file is a vacuum that never committed its rename: the old
  // journal is authoritative, the temp is garbage.
  GALOIS_RETURN_IF_ERROR(env->Remove(store->TempPath()));

  const std::string journal = store->JournalPath();
  bool write_header = true;
  if (env->FileExists(journal)) {
    GALOIS_ASSIGN_OR_RETURN(
        std::unique_ptr<FileView> view,
        env->OpenView(journal, store->options_.use_mmap));
    const char* data = view->data();
    const size_t size = view->size();
    if (!CheckFileHeader(data, size)) {
      // The header itself is corrupt or foreign: nothing after it can
      // be trusted. Start the journal over.
      if (size > 0) ++store->stats_.records_dropped;
      GALOIS_RETURN_IF_ERROR(env->Truncate(journal, 0));
    } else {
      write_header = false;
      size_t offset = kFileHeaderSize;
      int64_t truncate_to = -1;
      for (;;) {
        FrameResult frame = DecodeFrame(data, size, offset);
        if (frame.status == FrameStatus::kEndOfJournal) break;
        if (frame.status == FrameStatus::kTornTail) {
          ++store->stats_.records_dropped;
          truncate_to = static_cast<int64_t>(offset);
          break;
        }
        if (frame.status == FrameStatus::kBadBody) {
          // Checksum-failing record: its bytes stay (dead) but it is
          // never indexed, so it can never be served.
          ++store->stats_.records_dropped;
          offset = frame.next_offset;
          continue;
        }
        switch (frame.type) {
          case RecordType::kMaterialisation:
          case RecordType::kPrompt: {
            const std::string index_key = IndexKey(frame.type, frame.key);
            store->RemoveLiveLocked(index_key);
            LiveEntry entry;
            entry.type = frame.type;
            entry.offset = static_cast<int64_t>(offset);
            entry.frame_size =
                static_cast<int64_t>(frame.next_offset - offset);
            entry.last_used = ++store->tick_;
            store->live_bytes_ += entry.frame_size;
            store->live_.emplace(index_key, entry);
            break;
          }
          case RecordType::kErase:
            store->RemoveLiveLocked(
                IndexKey(RecordType::kMaterialisation, frame.key));
            break;
          case RecordType::kClearMaterialisations:
            store->ClearTypeLocked(RecordType::kMaterialisation);
            break;
          case RecordType::kClearPrompts:
            store->ClearTypeLocked(RecordType::kPrompt);
            break;
        }
        offset = frame.next_offset;
      }
      store->file_bytes_ = static_cast<int64_t>(offset);
      if (truncate_to >= 0) {
        // Drop the torn tail so new appends land right after the last
        // committed record.
        GALOIS_RETURN_IF_ERROR(env->Truncate(journal, truncate_to));
        store->file_bytes_ = truncate_to;
      }
    }
  }

  GALOIS_ASSIGN_OR_RETURN(store->writer_, env->OpenAppend(journal));
  if (write_header) {
    const std::string header = EncodeFileHeader();
    GALOIS_RETURN_IF_ERROR(
        store->writer_->Append(header.data(), header.size()));
    if (store->options_.durability == Durability::kAlways) {
      GALOIS_RETURN_IF_ERROR(store->writer_->Sync());
    }
    store->file_bytes_ = static_cast<int64_t>(header.size());
  }

  for (const auto& [key, entry] : store->live_) {
    (void)key;
    if (entry.type == RecordType::kMaterialisation) {
      ++store->stats_.materialisations_recovered;
    } else {
      ++store->stats_.prompts_recovered;
    }
  }
  store->stats_.recovery_micros = env->NowMicros() - t0;
  return store;
}

ResultStore::~ResultStore() {
  {
    std::lock_guard<std::mutex> bg_lock(bg_mu_);
    if (bg_vacuum_.joinable()) bg_vacuum_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (writer_ != nullptr && !dead_ &&
      options_.durability != Durability::kNone) {
    (void)writer_->Sync();
  }
}

void ResultStore::RemoveLiveLocked(const std::string& index_key) {
  auto it = live_.find(index_key);
  if (it == live_.end()) return;
  live_bytes_ -= it->second.frame_size;
  live_.erase(it);
}

void ResultStore::ClearTypeLocked(RecordType type) {
  for (auto it = live_.begin(); it != live_.end();) {
    if (it->second.type == type) {
      live_bytes_ -= it->second.frame_size;
      it = live_.erase(it);
    } else {
      ++it;
    }
  }
}

Status ResultStore::AppendLocked(RecordType type, const std::string& key,
                                 const std::string& payload, bool track_live,
                                 uint8_t flags) {
  if (dead_ || writer_ == nullptr) {
    ++stats_.append_errors;
    return Status::IoError("store is read-only after an append failure");
  }
  const std::string frame = EncodeFrame(type, key, payload, flags);
  Status appended = writer_->Append(frame.data(), frame.size());
  if (appended.ok() && options_.durability == Durability::kAlways) {
    appended = writer_->Sync();
  }
  if (!appended.ok()) {
    // Never take a query down for the cache's disk: go read-only and
    // leave the committed prefix for the next open.
    dead_ = true;
    ++stats_.append_errors;
    return appended;
  }
  ++stats_.appends;
  stats_.append_bytes += static_cast<int64_t>(frame.size());
  const int64_t offset = file_bytes_;
  file_bytes_ += static_cast<int64_t>(frame.size());
  if (track_live) {
    const std::string index_key = IndexKey(type, key);
    RemoveLiveLocked(index_key);
    LiveEntry entry;
    entry.type = type;
    entry.offset = offset;
    entry.frame_size = static_cast<int64_t>(frame.size());
    entry.last_used = ++tick_;
    live_bytes_ += entry.frame_size;
    live_.emplace(index_key, entry);
  }
  return Status::OK();
}

Status ResultStore::PutMaterialisation(
    const std::string& store_key, const std::vector<std::string>& columns,
    const std::vector<Tuple>& rows, const std::string& base_key,
    const std::string& descriptor) {
  const bool with_descriptor = !base_key.empty() || !descriptor.empty();
  std::string payload =
      with_descriptor
          ? EncodeMaterialisationWithDescriptor(base_key, descriptor,
                                                columns, rows)
          : EncodeMaterialisation(columns, rows);
  const uint8_t flags =
      with_descriptor ? kMaterialisationFlagHasDescriptor : 0;
  std::unique_lock<std::mutex> lock(mu_);
  Status s = AppendLocked(RecordType::kMaterialisation, store_key, payload,
                          /*track_live=*/true, flags);
  if (s.ok()) MaybeScheduleVacuum(&lock);
  return s;
}

Status ResultStore::PutPrompt(const std::string& model,
                              const std::string& text,
                              const std::string& completion) {
  std::unique_lock<std::mutex> lock(mu_);
  Status s = AppendLocked(RecordType::kPrompt, PromptKey(model, text),
                          completion, /*track_live=*/true);
  if (s.ok()) MaybeScheduleVacuum(&lock);
  return s;
}

Status ResultStore::EraseMaterialisation(const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  Status s = AppendLocked(RecordType::kErase, fingerprint, "",
                          /*track_live=*/false);
  if (s.ok()) {
    RemoveLiveLocked(IndexKey(RecordType::kMaterialisation, fingerprint));
  }
  return s;
}

Status ResultStore::ClearMaterialisations() {
  std::lock_guard<std::mutex> lock(mu_);
  Status s = AppendLocked(RecordType::kClearMaterialisations, "", "",
                          /*track_live=*/false);
  if (s.ok()) ClearTypeLocked(RecordType::kMaterialisation);
  return s;
}

Status ResultStore::ClearPrompts() {
  std::lock_guard<std::mutex> lock(mu_);
  Status s = AppendLocked(RecordType::kClearPrompts, "", "",
                          /*track_live=*/false);
  if (s.ok()) ClearTypeLocked(RecordType::kPrompt);
  return s;
}

void ResultStore::TouchMaterialisation(const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(IndexKey(RecordType::kMaterialisation, fingerprint));
  if (it != live_.end()) it->second.last_used = ++tick_;
}

void ResultStore::TouchPrompt(const std::string& model,
                              const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it =
      live_.find(IndexKey(RecordType::kPrompt, PromptKey(model, text)));
  if (it != live_.end()) it->second.last_used = ++tick_;
}

std::vector<FrameResult> ResultStore::LiveFrames(RecordType type) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FrameResult> frames;
  auto view = env_->OpenView(JournalPath(), options_.use_mmap);
  if (!view.ok()) return frames;
  const char* data = view.value()->data();
  const size_t size = view.value()->size();

  std::vector<const LiveEntry*> order;
  order.reserve(live_.size());
  for (const auto& [key, entry] : live_) {
    (void)key;
    if (entry.type == type) order.push_back(&entry);
  }
  // LRU-first: feeding an LRU-capped cache in this order leaves the
  // most recently used entries resident.
  std::sort(order.begin(), order.end(),
            [](const LiveEntry* a, const LiveEntry* b) {
              return a->last_used < b->last_used;
            });
  frames.reserve(order.size());
  for (const LiveEntry* entry : order) {
    // Re-validate the frame from disk; a record that no longer parses
    // degrades to a miss, never to wrong bytes.
    FrameResult frame =
        DecodeFrame(data, size, static_cast<size_t>(entry->offset));
    if (frame.status != FrameStatus::kOk || frame.type != type) continue;
    frames.push_back(std::move(frame));
  }
  return frames;
}

void ResultStore::ForEachMaterialisation(
    const std::function<void(const std::string&, const std::string&,
                             const std::string&,
                             const std::vector<std::string>&,
                             const std::vector<Tuple>&)>& fn) {
  for (const FrameResult& frame : LiveFrames(RecordType::kMaterialisation)) {
    std::vector<std::string> columns;
    std::vector<Tuple> rows;
    std::string base_key;
    std::string descriptor;
    if (frame.flags & kMaterialisationFlagHasDescriptor) {
      if (!DecodeMaterialisationWithDescriptor(frame.payload, &base_key,
                                               &descriptor, &columns,
                                               &rows)) {
        continue;
      }
    } else if (!DecodeMaterialisation(frame.payload, &columns, &rows)) {
      continue;
    }
    fn(frame.key, base_key, descriptor, columns, rows);
  }
}

void ResultStore::ForEachPrompt(
    const std::function<void(const std::string&, const std::string&,
                             const std::string&)>& fn) {
  for (const FrameResult& frame : LiveFrames(RecordType::kPrompt)) {
    std::string model;
    std::string text;
    if (!SplitPromptKey(frame.key, &model, &text)) continue;
    fn(model, text, frame.payload);
  }
}

void ResultStore::MaybeScheduleVacuum(std::unique_lock<std::mutex>* lock) {
  if (vacuum_scheduled_ || dead_) return;
  if (file_bytes_ <= options_.max_bytes) return;
  const int64_t target =
      options_.max_bytes * kVacuumTargetNum / kVacuumTargetDen;
  const int64_t dead_bytes =
      file_bytes_ - static_cast<int64_t>(kFileHeaderSize) - live_bytes_;
  // Only vacuum when it can actually shrink the file: dead bytes to
  // drop, or more than one live entry so LRU eviction has a victim.
  if (dead_bytes <= 0 && (live_bytes_ <= target || live_.size() <= 1)) {
    return;
  }
  vacuum_scheduled_ = true;
  if (!options_.background_vacuum) {
    (void)VacuumLocked();
    vacuum_scheduled_ = false;
    return;
  }
  lock->unlock();
  std::lock_guard<std::mutex> bg_lock(bg_mu_);
  if (bg_vacuum_.joinable()) bg_vacuum_.join();
  bg_vacuum_ = std::thread([this] {
    std::lock_guard<std::mutex> vacuum_lock(mu_);
    (void)VacuumLocked();
    vacuum_scheduled_ = false;
  });
}

Status ResultStore::Vacuum() {
  std::lock_guard<std::mutex> lock(mu_);
  return VacuumLocked();
}

Status ResultStore::VacuumLocked() {
  if (dead_) {
    return Status::IoError("store is read-only after an append failure");
  }
  const int64_t t0 = env_->NowMicros();
  GALOIS_ASSIGN_OR_RETURN(std::unique_ptr<FileView> view,
                          env_->OpenView(JournalPath(), options_.use_mmap));
  const char* data = view->data();
  const size_t size = view->size();

  // Survivors: newest-first within the byte budget; everything older is
  // evicted. The newest entry always survives, so the store never
  // vacuums itself empty.
  using LiveIt = std::unordered_map<std::string, LiveEntry>::iterator;
  std::vector<LiveIt> entries;
  entries.reserve(live_.size());
  for (auto it = live_.begin(); it != live_.end(); ++it) entries.push_back(it);
  std::sort(entries.begin(), entries.end(), [](LiveIt a, LiveIt b) {
    return a->second.last_used > b->second.last_used;
  });
  const int64_t target =
      options_.max_bytes * kVacuumTargetNum / kVacuumTargetDen -
      static_cast<int64_t>(kFileHeaderSize);
  int64_t kept_bytes = 0;
  size_t kept = 0;
  for (; kept < entries.size(); ++kept) {
    const int64_t frame_size = entries[kept]->second.frame_size;
    if (kept > 0 && kept_bytes + frame_size > target) break;
    kept_bytes += frame_size;
  }
  // Journal order is oldest-first, like an organically grown journal.
  std::reverse(entries.begin(), entries.begin() + kept);

  // Write the rewrite beside the journal, durably, then swap it in with
  // an atomic rename. A crash anywhere before the rename leaves the old
  // journal authoritative (Open removes the orphan temp). The survivors
  // go out in pieces of about kVacuumPieceBytes, so the rewrite never
  // sits in memory whole.
  GALOIS_RETURN_IF_ERROR(env_->Remove(TempPath()));
  {
    GALOIS_ASSIGN_OR_RETURN(std::unique_ptr<AppendFile> tmp,
                            env_->OpenAppend(TempPath()));
    std::string piece = EncodeFileHeader();
    piece.reserve(kVacuumPieceBytes);
    Status written = Status::OK();
    for (size_t i = 0; written.ok() && i < kept; ++i) {
      const LiveEntry& entry = entries[i]->second;
      const size_t offset = static_cast<size_t>(entry.offset);
      const size_t frame_size = static_cast<size_t>(entry.frame_size);
      if (offset + frame_size > size) {
        written = Status::Internal("vacuum: live entry past journal end");
        break;
      }
      if (piece.size() + frame_size > kVacuumPieceBytes) {
        written = tmp->Append(piece.data(), piece.size());
        piece.clear();
      }
      piece.append(data + offset, frame_size);
    }
    if (written.ok()) written = tmp->Append(piece.data(), piece.size());
    if (written.ok() && options_.durability != Durability::kNone) {
      written = tmp->Sync();
    }
    if (!written.ok()) {
      tmp.reset();
      (void)env_->Remove(TempPath());
      return written;
    }
  }
  writer_.reset();
  Status renamed = env_->Rename(TempPath(), JournalPath());
  if (renamed.ok() && options_.durability != Durability::kNone) {
    renamed = env_->SyncDir(options_.path);
  }
  Result<std::unique_ptr<AppendFile>> reopened =
      env_->OpenAppend(JournalPath());
  if (!renamed.ok() || !reopened.ok()) {
    // The journal (old or new) is still intact on disk, but without a
    // writer the store cannot continue: go read-only.
    dead_ = true;
    return !renamed.ok() ? renamed : reopened.status();
  }
  writer_ = std::move(reopened).value();

  // The index learns the new offsets only now that the rename committed
  // them: the survivors sit back to back after the header.
  int64_t offset = static_cast<int64_t>(kFileHeaderSize);
  for (size_t i = 0; i < kept; ++i) {
    entries[i]->second.offset = offset;
    offset += entries[i]->second.frame_size;
  }
  for (size_t i = kept; i < entries.size(); ++i) live_.erase(entries[i]);
  live_bytes_ = kept_bytes;
  file_bytes_ = offset;
  ++stats_.vacuums;
  stats_.evictions += static_cast<int64_t>(entries.size() - kept);
  stats_.last_vacuum_micros = env_->NowMicros() - t0;
  return Status::OK();
}

Status ResultStore::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_ || writer_ == nullptr) {
    return Status::IoError("store is read-only after an append failure");
  }
  return writer_->Sync();
}

StoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StoreStats out = stats_;
  out.file_bytes = file_bytes_;
  out.live_bytes = live_bytes_;
  for (const auto& [key, entry] : live_) {
    (void)key;
    if (entry.type == RecordType::kMaterialisation) {
      ++out.live_materialisations;
    } else {
      ++out.live_prompts;
    }
  }
  return out;
}

}  // namespace galois::store
