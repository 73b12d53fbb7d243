#include "llm/batch_scheduler.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"

namespace galois::llm {

namespace {

/// Verifies the one-completion-per-prompt invariant of CompleteBatch.
Status CheckBatchShape(size_t got, size_t want) {
  if (got == want) return Status::OK();
  return Status::LlmError("CompleteBatch returned " + std::to_string(got) +
                          " completions for " + std::to_string(want) +
                          " prompts");
}

}  // namespace

Status BatchScheduler::Annotate(const Status& status,
                                const std::string& where) const {
  std::string prefix =
      phase_.empty() ? "batch scheduler" : "batch scheduler phase '" + phase_ + "'";
  return Status(status.code(), prefix + " " + where + ": " + status.message());
}

Result<std::vector<Completion>> BatchScheduler::DispatchSequential(
    const std::vector<Prompt>& pending, const std::vector<size_t>& unique) {
  std::vector<Completion> out;
  out.reserve(unique.size());
  for (size_t j = 0; j < unique.size(); ++j) {
    Status cancel = CheckCancel(policy_.control);
    if (!cancel.ok()) {
      return Annotate(cancel, "prompt " + std::to_string(j + 1) + "/" +
                                  std::to_string(unique.size()));
    }
    Result<Completion> c = model_->Complete(pending[unique[j]]);
    if (!c.ok()) {
      return Annotate(c.status(), "prompt " + std::to_string(j + 1) + "/" +
                                      std::to_string(unique.size()));
    }
    out.push_back(std::move(c).value());
  }
  return out;
}

Result<std::vector<Completion>> BatchScheduler::DispatchBatched(
    const std::vector<Prompt>& pending, const std::vector<size_t>& unique) {
  const size_t chunk_size =
      policy_.max_batch_size == 0 ? unique.size() : policy_.max_batch_size;
  const size_t num_chunks = (unique.size() + chunk_size - 1) / chunk_size;

  // Materialise the chunks up front; each chunk is an independent
  // CompleteBatch round trip over distinct prompt texts.
  std::vector<std::vector<Prompt>> chunks;
  chunks.reserve(num_chunks);
  for (size_t start = 0; start < unique.size(); start += chunk_size) {
    const size_t end = std::min(unique.size(), start + chunk_size);
    std::vector<Prompt> batch;
    batch.reserve(end - start);
    for (size_t j = start; j < end; ++j) batch.push_back(pending[unique[j]]);
    chunks.push_back(std::move(batch));
  }

  auto chunk_context = [&](size_t i) {
    return "chunk " + std::to_string(i + 1) + "/" +
           std::to_string(num_chunks) + " (" +
           std::to_string(chunks[i].size()) + " prompts)";
  };

  std::vector<std::vector<Completion>> chunk_out(num_chunks);
  std::vector<Status> chunk_status(num_chunks, Status::OK());

  // One round trip, shared by both dispatch modes so they fail alike;
  // the caller adds the chunk context.
  auto run_chunk = [&](size_t i) -> Status {
    GALOIS_RETURN_IF_ERROR(CheckCancel(policy_.control));
    batches_dispatched_.fetch_add(1);
    GALOIS_ASSIGN_OR_RETURN(std::vector<Completion> completions,
                            model_->CompleteBatch(chunks[i]));
    GALOIS_RETURN_IF_ERROR(
        CheckBatchShape(completions.size(), chunks[i].size()));
    chunk_out[i] = std::move(completions);
    return Status::OK();
  };

  const size_t workers = std::min<size_t>(
      num_chunks,
      policy_.parallel_batches < 1
          ? 1
          : static_cast<size_t>(policy_.parallel_batches));
  if (workers <= 1) {
    // Sequential chunk dispatch: stop at the first failing round trip.
    for (size_t i = 0; i < num_chunks; ++i) {
      Status status = run_chunk(i);
      if (!status.ok()) return Annotate(status, chunk_context(i));
    }
  } else {
    // Concurrent dispatch: `workers` tasks pull chunk indices from a
    // shared counter, so at most `workers` round trips are in flight at
    // once. Every chunk is dispatched even when an earlier one fails —
    // that keeps the reported error deterministic (always the
    // lowest-indexed failing chunk, the one a sequential run reports)
    // at the price of billing the remaining chunks of a failed flush.
    std::atomic<size_t> next{0};
    auto run_chunks = [&]() {
      for (size_t i = next.fetch_add(1); i < num_chunks;
           i = next.fetch_add(1)) {
        chunk_status[i] = run_chunk(i);
      }
    };
    std::vector<TaskHandle<void>> pullers;
    pullers.reserve(workers - 1);
    for (size_t w = 0; w + 1 < workers; ++w) {
      pullers.push_back(
          TaskHandle<void>::Launch(ThreadPool::Shared(), run_chunks));
    }
    run_chunks();  // the calling thread is the last puller
    for (TaskHandle<void>& puller : pullers) puller.Join();
    for (size_t i = 0; i < num_chunks; ++i) {
      if (!chunk_status[i].ok()) {
        return Annotate(chunk_status[i], chunk_context(i));
      }
    }
  }

  std::vector<Completion> out;
  out.reserve(unique.size());
  for (std::vector<Completion>& chunk : chunk_out) {
    for (Completion& c : chunk) out.push_back(std::move(c));
  }
  return out;
}

Result<std::vector<Completion>> BatchScheduler::Flush() {
  // The queue is consumed unconditionally: a failed Flush drops its
  // prompts (see header contract) instead of silently retrying them on
  // the next Flush.
  std::vector<Prompt> pending = std::move(pending_);
  pending_.clear();
  if (pending.empty()) return std::vector<Completion>{};

  // Dedupe by prompt text, first occurrence wins; slot_of maps every
  // pending position onto its distinct prompt.
  std::vector<size_t> slot_of(pending.size());
  std::vector<size_t> unique;  // indices into `pending`
  unique.reserve(pending.size());
  std::unordered_map<std::string, size_t> slot_by_text;
  slot_by_text.reserve(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    auto [it, inserted] =
        slot_by_text.try_emplace(pending[i].text, unique.size());
    if (inserted) unique.push_back(i);
    slot_of[i] = it->second;
  }

  Result<std::vector<Completion>> unique_out =
      policy_.batch ? DispatchBatched(pending, unique)
                    : DispatchSequential(pending, unique);
  if (!unique_out.ok()) return unique_out.status();

  std::vector<Completion> out;
  out.reserve(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    out.push_back((*unique_out)[slot_of[i]]);
  }
  return out;
}

Result<std::vector<Completion>> BatchScheduler::Run(
    std::vector<Prompt> prompts) {
  for (Prompt& p : prompts) Add(std::move(p));
  return Flush();
}

}  // namespace galois::llm
