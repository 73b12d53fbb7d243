#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace galois {

ThreadPool::ThreadPool(size_t num_threads)
    : max_threads_(num_threads == 0 ? 1 : num_threads) {}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    threads.swap(threads_);
  }
  cv_.notify_all();
  for (std::thread& t : threads) t.join();
}

void ThreadPool::Submit(Queued task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Tasks their joiners claimed first need no worker: drop them, so a
    // fast joiner cannot make the pool start workers for nothing.
    queue_.erase(
        std::remove_if(queue_.begin(), queue_.end(),
                       [](const Queued& q) { return q.claimed->load(); }),
        queue_.end());
    // This task finds no idle worker when the queued ones already claim
    // them all. A starting worker counts as idle, so a burst of launches
    // starts one worker per task, not one per launch. The worker starts
    // before the task is queued, so a failed start throws with the queue
    // as it was.
    if (!stop_ && queue_.size() >= idle_ && threads_.size() < max_threads_) {
      threads_.emplace_back([this] { WorkerLoop(); });
      ++idle_;
    }
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

size_t ThreadPool::num_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    Queued task = std::move(queue_.front());
    queue_.pop_front();
    // A task its joiner claimed first runs there instead.
    if (task.claimed->exchange(true)) continue;
    --idle_;
    lock.unlock();
    task.run([this] {
      std::lock_guard<std::mutex> idle_lock(mu_);
      ++idle_;
    });
    task = Queued{};
    lock.lock();
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(kSharedThreads);
  return *pool;
}

}  // namespace galois
