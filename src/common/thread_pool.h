#ifndef GALOIS_COMMON_THREAD_POOL_H_
#define GALOIS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace galois {

template <typename T>
class TaskHandle;

/// A small thread pool for overlapping I/O-bound work: the phase tasks of
/// `core::PhysicalPlan`, the concurrent `CompleteBatch` round trips of
/// `llm::BatchScheduler` and the queries of `Session::QueryAsync`, all on
/// the one process-wide `Shared()` pool.
///
/// Tasks go onto the pool only through `TaskHandle::Launch`, as
/// `std::function<void()>` thunks executed FIFO by worker threads that
/// start on demand: the constructor starts none, and a launch starts one
/// only when the task it queues finds no idle worker, up to the cap. A
/// pool that is never given a task costs no thread. Workers, once
/// started, stay until the pool is destroyed; launches past the cap
/// queue until a worker frees up. On demand matters because each
/// worker that runs keeps its own malloc arena: a process that overlaps
/// two phases should pay for one extra thread, not for the whole cap.
/// Because the intended workload is round-trip latency (network waits,
/// simulated sleeps) rather than CPU, the cap is deliberately independent
/// of `std::thread::hardware_concurrency()`.
///
/// Thread safety: tasks may be launched from any thread, including
/// concurrently and from inside a task. Code waits for pool work only
/// through `TaskHandle`, whose claim-on-join runs a task that no worker
/// has started yet on the joining thread. So a task may launch and join
/// further tasks on the same pool — a fork-join tree of any depth — and
/// a saturated pool degrades to inline execution instead of a cyclic
/// wait.
///
/// Error behavior: project code reports failures through `Status`; an
/// exception a task throws is caught on the worker and rethrown by
/// `TaskHandle::Join` on the joining thread.
class ThreadPool {
 public:
  /// A pool of at most `num_threads` workers (at least 1), none started.
  explicit ThreadPool(size_t num_threads);

  /// Drains nothing: queued-but-unstarted tasks are abandoned (a
  /// `TaskHandle` whose task was abandoned runs it at Join). Joins all
  /// workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The cap on workers.
  size_t num_threads() const { return max_threads_; }

  /// Workers started so far (at most num_threads()).
  size_t num_started() const;

  /// The process-wide pool. Created lazily on first use with a cap of
  /// kSharedThreads workers and intentionally never destroyed (avoids
  /// static-destruction-order races with worker threads at exit).
  static ThreadPool& Shared();

  /// Cap of the shared pool. Sized for overlapped round-trip latency, not
  /// CPU parallelism: it bounds how many phases, chunk round trips and
  /// async queries overlap across the process. Claim-on-join makes
  /// saturation safe, so this is a throughput knob, not a correctness
  /// bound.
  static constexpr size_t kSharedThreads = 24;

 private:
  template <typename T>
  friend class TaskHandle;

  /// Enqueues `fn`, which must not throw, for execution. Starts a worker
  /// when the queued tasks outnumber the idle workers and the cap allows.
  void Submit(std::function<void()> fn);

  void WorkerLoop();

  const size_t max_threads_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  size_t idle_ = 0;  // started workers waiting for a task
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// A joinable handle to one task launched on a ThreadPool, with
/// claim-on-join semantics: the task body runs exactly once, either on a
/// pool worker or — when no worker has picked it up by the time the owner
/// joins — inline on the joining thread. This makes nested fan-out
/// (a pool task launching and joining further tasks on the same pool)
/// deadlock-free: a saturated pool degrades to inline execution instead
/// of a cyclic wait.
///
/// A Deferred handle has no pool: its task runs inline at Join, and
/// never if nobody joins it. Code that joins its tasks in order therefore
/// runs them serially, in that order, on the joining thread — one join
/// loop serves both the concurrent and the serial schedule.
///
/// A handle is a move-only-in-spirit shared wrapper: copying shares the
/// underlying task, but Join or Cancel must be called at most once across
/// all copies. A launched handle abandoned without Join is safe only if
/// the task owns its captured state by value — the pool still runs it and
/// the result is simply dropped; a task that borrows state must be joined
/// or cancelled before that state dies.
template <typename T>
class TaskHandle {
 public:
  TaskHandle() = default;

  /// Launches `fn` on `pool` and returns the joinable handle.
  static TaskHandle Launch(ThreadPool& pool, std::function<T()> fn) {
    TaskHandle handle = Deferred(std::move(fn));
    pool.Submit([state = handle.state_] { Claim(*state); });
    return handle;
  }

  /// Wraps `fn` without starting it: it runs on the thread that joins.
  static TaskHandle Deferred(std::function<T()> fn) {
    auto state = std::make_shared<State>();
    state->run = std::move(fn);
    state->result = state->promise.get_future();
    TaskHandle handle;
    handle.state_ = std::move(state);
    return handle;
  }

  bool valid() const { return state_ != nullptr; }

  /// Returns the task's result, running it inline first when no pool
  /// worker has claimed it yet. Blocks when a worker is mid-run. Resets
  /// the handle to invalid.
  T Join() {
    auto state = std::move(state_);
    Claim(*state);
    return state->result.get();
  }

  /// Gives the task up: when nothing has claimed it yet it never runs;
  /// when a worker is mid-run, blocks until the body returns and drops
  /// its result. Resets the handle to invalid.
  void Cancel() {
    auto state = std::move(state_);
    if (state->claimed.exchange(true)) state->result.wait();
  }

 private:
  struct State {
    std::function<T()> run;
    std::atomic<bool> claimed{false};
    std::promise<T> promise;
    std::future<T> result;
  };

  /// Runs the task unless a worker or a joiner already claimed it.
  static void Claim(State& state) {
    if (state.claimed.exchange(true)) return;
    try {
      if constexpr (std::is_void_v<T>) {
        state.run();
        state.promise.set_value();
      } else {
        state.promise.set_value(state.run());
      }
    } catch (...) {
      state.promise.set_exception(std::current_exception());
    }
  }

  std::shared_ptr<State> state_;
};

}  // namespace galois

#endif  // GALOIS_COMMON_THREAD_POOL_H_
