#include "common/thread_pool.h"

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

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // This task finds no idle worker when the queued ones already claim
    // them all. The worker starts before the task is queued, so a failed
    // start throws with the queue as it was.
    if (!stop_ && queue_.size() >= idle_ && threads_.size() < max_threads_) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

size_t ThreadPool::num_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      if (stop_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(kSharedThreads);
  return *pool;
}

}  // namespace galois
