#include "llm/batch_scheduler.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
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

Result<std::vector<Completion>> BatchScheduler::Flush() {
  // The queue is consumed unconditionally: a failed Flush drops its
  // prompts (see header contract) instead of silently retrying them on
  // the next Flush.
  const std::vector<Prompt> pending = std::move(pending_);
  pending_.clear();
  if (pending.empty()) return std::vector<Completion>{};

  // Dedupe by prompt text, first occurrence wins; slot_of maps every
  // pending position onto its distinct prompt. The keys view the queue.
  std::vector<size_t> slot_of(pending.size());
  std::vector<size_t> unique;  // indices into `pending`
  unique.reserve(pending.size());
  std::unordered_map<std::string_view, size_t> slot_by_text;
  slot_by_text.reserve(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    auto [it, inserted] =
        slot_by_text.try_emplace(pending[i].text, unique.size());
    if (inserted) unique.push_back(i);
    slot_of[i] = it->second;
  }

  // Round trip i sends distinct prompts [i * chunk_size, ...): one
  // prompt with batch off, max_batch_size (or all) with batch on.
  const size_t chunk_size = !policy_.batch ? 1
                            : policy_.max_batch_size == 0
                                ? unique.size()
                                : policy_.max_batch_size;
  const size_t num_chunks = (unique.size() + chunk_size - 1) / chunk_size;
  auto context = [&](size_t i) {
    const std::string of =
        std::to_string(i + 1) + "/" + std::to_string(num_chunks);
    if (!policy_.batch) return "prompt " + of;
    const size_t size = std::min(chunk_size, unique.size() - i * chunk_size);
    return "chunk " + of + " (" + std::to_string(size) + " prompts)";
  };

  std::vector<Completion> unique_out(unique.size());
  auto run_chunk = [&](size_t i) -> Status {
    GALOIS_RETURN_IF_ERROR(CheckCancel(policy_.control));
    const size_t begin = i * chunk_size;
    const size_t end = std::min(unique.size(), begin + chunk_size);
    if (!policy_.batch) {
      GALOIS_ASSIGN_OR_RETURN(unique_out[begin],
                              model_->Complete(pending[unique[begin]]));
      return Status::OK();
    }
    std::vector<Prompt> chunk;
    chunk.reserve(end - begin);
    for (size_t j = begin; j < end; ++j) chunk.push_back(pending[unique[j]]);
    batches_dispatched_.fetch_add(1);
    GALOIS_ASSIGN_OR_RETURN(std::vector<Completion> completions,
                            model_->CompleteBatch(chunk));
    GALOIS_RETURN_IF_ERROR(CheckBatchShape(completions.size(), chunk.size()));
    std::move(completions.begin(), completions.end(),
              unique_out.begin() + static_cast<std::ptrdiff_t>(begin));
    return Status::OK();
  };

  const size_t workers = std::min<size_t>(
      num_chunks, static_cast<size_t>(std::max(1, policy_.parallel_batches)));
  if (workers <= 1) {
    // The ladder: stop at the first failing round trip.
    for (size_t i = 0; i < num_chunks; ++i) {
      Status status = run_chunk(i);
      if (!status.ok()) return Annotate(status, context(i));
    }
  } else {
    // Up to `workers` threads pull round-trip indices from a shared
    // counter: this one and a puller per slot of the query's budget.
    // Every round trip is started even when an earlier one fails; that
    // keeps the reported error deterministic (always the lowest-indexed
    // failure, the one the ladder reports) at the price of billing the
    // rest of a failed flush.
    std::shared_ptr<PoolBudget> budget =
        policy_.budget != nullptr
            ? policy_.budget
            : std::make_shared<PoolBudget>(policy_.parallel_batches - 1);
    std::vector<Status> status(num_chunks);
    std::atomic<size_t> next{0};
    auto pull = [&]() {
      for (size_t i = next.fetch_add(1); i < num_chunks;
           i = next.fetch_add(1)) {
        status[i] = run_chunk(i);
      }
    };
    std::vector<TaskHandle<void>> pullers;
    pullers.reserve(workers - 1);
    for (size_t w = 0; w + 1 < workers; ++w) {
      pullers.push_back(
          TaskHandle<void>::Start(ThreadPool::Shared(), budget, pull));
    }
    pull();  // the calling thread is the last puller
    for (TaskHandle<void>& puller : pullers) puller.Join();
    for (size_t i = 0; i < num_chunks; ++i) {
      if (!status[i].ok()) return Annotate(status[i], context(i));
    }
  }

  if (unique.size() == pending.size()) return unique_out;
  std::vector<Completion> out;
  out.reserve(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    out.push_back(unique_out[slot_of[i]]);
  }
  return out;
}

Result<std::vector<Completion>> BatchScheduler::Run(
    std::vector<Prompt> prompts) {
  for (Prompt& p : prompts) Add(std::move(p));
  return Flush();
}

}  // namespace galois::llm
