#ifndef GALOIS_COMMON_THREAD_POOL_H_
#define GALOIS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace galois {

/// A small thread pool for overlapping I/O-bound work — primarily the
/// concurrent `CompleteBatch` round trips issued by `llm::BatchScheduler`
/// and the phase tasks of `core::PhysicalPlan` when `parallel_batches > 1`.
///
/// Tasks are plain `std::function<void()>` thunks executed FIFO by worker
/// threads that start on demand: the constructor starts none, and Submit
/// starts one only when the task it queues finds no idle worker, up to
/// the cap. A pool that is never given a task costs no thread. Workers,
/// once started, stay until the pool is destroyed; submissions past the
/// cap queue until a worker frees up. On demand matters because each
/// worker that runs keeps its own malloc arena: a process that overlaps
/// two phases should pay for one extra thread, not for the whole cap.
/// Because the intended workload is round-trip latency (network waits,
/// simulated sleeps) rather than CPU, the cap is deliberately independent
/// of `std::thread::hardware_concurrency()`.
///
/// Thread safety: `Submit` may be called from any thread, including
/// concurrently. Tasks must not block on the completion of *other* pool
/// tasks (a task that waits for a queued task can deadlock when every
/// worker is occupied); callers that need to wait — like
/// `BatchScheduler::Flush` — must do so from a non-pool thread via the
/// returned future.
///
/// Error behavior: a task that throws has the exception captured in its
/// future (rethrown by `future::get`); the worker thread survives. Project
/// code reports failures through `Status`, so in practice futures only
/// carry completion, not errors.
class ThreadPool {
 public:
  /// A pool of at most `num_threads` workers (at least 1), none started.
  explicit ThreadPool(size_t num_threads);

  /// Drains nothing: queued-but-unstarted tasks are abandoned (their
  /// futures become broken promises). Joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` for execution and returns a future that becomes ready
  /// when it finishes. Starts a worker when the queued tasks outnumber the
  /// idle workers and the cap allows.
  std::future<void> Submit(std::function<void()> fn);

  /// The cap on workers.
  size_t num_threads() const { return max_threads_; }

  /// Workers started so far (at most num_threads()).
  size_t num_started() const;

  /// The process-wide shared pool used by the batch scheduler for
  /// CompleteBatch round trips. Created lazily on first use with a cap of
  /// kSharedThreads workers and intentionally never destroyed (avoids
  /// static-destruction-order races with worker threads at exit).
  static ThreadPool& Shared();

  /// Size of the shared pool. Sized for overlapped round-trip latency,
  /// not CPU parallelism; a `parallel_batches` above this still works but
  /// keeps at most this many round trips in flight.
  static constexpr size_t kSharedThreads = 16;

  /// The process-wide pool for *phase-level* tasks: speculative key-scan
  /// pages dispatched via BatchScheduler::RunAsync and, when
  /// parallel_batches > 1, the per-table and per-column phase tasks of
  /// core::PhysicalPlan (all but the first of each group, which runs on
  /// the joining thread). Kept separate from Shared() because a phase task
  /// blocks on round-trip futures: the two-tier split guarantees a
  /// waiting phase can never occupy a worker the round trips underneath
  /// it need. Same lifetime rules as Shared().
  static ThreadPool& SharedPhase();

  /// Cap of the phase pool: bounds how many phases (table tasks, column
  /// chains, scan pages) overlap. TaskHandle's claim-on-join makes
  /// saturation safe — a joiner runs unstarted work inline — so this is a
  /// throughput knob, not a correctness bound.
  static constexpr size_t kSharedPhaseThreads = 8;

 private:
  void WorkerLoop();

  const size_t max_threads_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
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
    pool.Submit([state = handle.state_] {
      if (!state->claimed.exchange(true)) {
        state->promise.set_value(state->run());
      }
    });
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
    if (!state->claimed.exchange(true)) {
      state->promise.set_value(state->run());
    }
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
  std::shared_ptr<State> state_;
};

}  // namespace galois

#endif  // GALOIS_COMMON_THREAD_POOL_H_
