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

/// The pool workers that one query may occupy at once: a counter of free
/// slots that every fan-out of the query takes from (its table tasks,
/// its column chains and the chunk pullers of every flush).
/// `TaskHandle::Start` launches a task on the pool only when it takes a
/// slot, and otherwise defers it to its Join, so a query given k slots
/// holds at most k pool workers, and, with the thread that runs it, keeps
/// at most k + 1 model calls in flight. Coloured Petri nets with
/// priorities model the same thing: transitions that compete for one
/// pool of tokens (arXiv:1904.00058).
///
/// Thread-safe. A worker gives its task's slot back once it is idle again,
/// before the task's joiner can return, so the query's next launch reuses
/// that worker instead of starting another; a joiner that claims a
/// launched task before any worker gives the slot back as it claims.
class PoolBudget {
 public:
  explicit PoolBudget(int slots) : free_(slots < 0 ? 0 : slots) {}

  PoolBudget(const PoolBudget&) = delete;
  PoolBudget& operator=(const PoolBudget&) = delete;

  /// Takes a slot; false when none is free.
  bool TryTake() {
    int free = free_.load();
    while (free > 0 && !free_.compare_exchange_weak(free, free - 1)) {
    }
    return free > 0;
  }

  /// Returns a slot taken by TryTake.
  void Give() { free_.fetch_add(1); }

  /// Free slots now (a point-in-time figure under concurrent use).
  int free() const { return free_.load(); }

 private:
  std::atomic<int> free_;
};

/// A small thread pool for overlapping I/O-bound work: the phase tasks of
/// `core::PhysicalPlan`, the concurrent round trips of
/// `llm::BatchScheduler` and the queries of `Session::QueryAsync`, all on
/// the one process-wide `Shared()` pool.
///
/// Tasks go onto the pool only through `TaskHandle::Launch` and
/// `TaskHandle::Start`, and run FIFO on worker threads that start on
/// demand: the constructor starts none, and a launch starts one only when
/// the task it queues finds no idle worker, up to the cap. A worker still
/// starting counts as idle, and a queued task that its joiner already
/// claimed waits for no worker. A pool that is never given a task costs
/// no thread. Workers, once
/// started, stay until the pool is destroyed; launches past the cap
/// queue until a worker frees up. On demand matters because each
/// worker that runs keeps its own malloc arena: a process whose queries
/// hold at most k slots of their PoolBudget pays for at most k workers
/// per concurrent query, not for the whole cap.
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

  /// A queued task. A worker takes it by setting `*claimed` under the
  /// pool mutex, and drops it unrun when its joiner claimed it first.
  /// `run`, which must not throw, runs the task and calls `idle`, which
  /// marks the worker idle again, before it publishes the result, so the
  /// worker is reusable before the joiner can return.
  struct Queued {
    std::atomic<bool>* claimed = nullptr;
    std::function<void(const std::function<void()>& idle)> run;
  };

  /// Enqueues `task`. Starts a worker when the queued tasks no joiner has
  /// claimed outnumber the idle workers and the cap allows.
  void Submit(Queued task);

  void WorkerLoop();

  const size_t max_threads_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Queued> queue_;
  size_t idle_ = 0;  // workers waiting for a task or still starting
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
/// loop serves both the concurrent and the serial schedule. `Start` picks
/// between the two by a PoolBudget: a task that takes a slot launches,
/// one that finds none is deferred.
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
    handle.SubmitTo(pool, nullptr);
    return handle;
  }

  /// Launches `fn` on `pool` when `budget` has a free slot, which the task
  /// holds until it ends (see PoolBudget); otherwise defers `fn` to its
  /// Join. A null budget has no slot.
  static TaskHandle Start(ThreadPool& pool,
                          const std::shared_ptr<PoolBudget>& budget,
                          std::function<T()> fn) {
    TaskHandle handle = Deferred(std::move(fn));
    if (budget != nullptr && budget->TryTake()) handle.SubmitTo(pool, budget);
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
    if (Claim(*state)) Run(*state, [] {});
    return state->result.get();
  }

  /// Gives the task up: when nothing has claimed it yet it never runs;
  /// when a worker is mid-run, blocks until the body returns and drops
  /// its result. Resets the handle to invalid.
  void Cancel() {
    auto state = std::move(state_);
    if (!Claim(*state)) state->result.wait();
  }

 private:
  struct State {
    std::function<T()> run;
    std::atomic<bool> claimed{false};
    std::shared_ptr<PoolBudget> slot;  // the slot a launched task holds
    std::promise<T> promise;
    std::future<T> result;
  };

  /// Queues the task on `pool`. A worker that runs it gives `slot` back
  /// once it is idle again, so a launch that takes the slot finds it.
  void SubmitTo(ThreadPool& pool, std::shared_ptr<PoolBudget> slot) {
    state_->slot = std::move(slot);
    pool.Submit(ThreadPool::Queued{
        &state_->claimed,
        [state = state_](const std::function<void()>& idle) {
          Run(*state, [&] {
            idle();
            if (state->slot != nullptr) state->slot->Give();
          });
        }});
  }

  /// Claims the task for the joining thread; false when a worker or a
  /// joiner claimed it first. A launched task's slot is free again: the
  /// task never occupies a worker now.
  static bool Claim(State& state) {
    if (state.claimed.exchange(true)) return false;
    if (state.slot != nullptr) state.slot->Give();
    return true;
  }

  /// Runs the body, calls `before_publish` (which must not throw), then
  /// publishes the result, or the exception the body threw, which wakes
  /// the joiner.
  static void Run(State& state, const std::function<void()>& before_publish) {
    try {
      if constexpr (std::is_void_v<T>) {
        state.run();
        before_publish();
        state.promise.set_value();
      } else {
        T value = state.run();
        before_publish();
        state.promise.set_value(std::move(value));
      }
    } catch (...) {
      before_publish();
      state.promise.set_exception(std::current_exception());
    }
  }

  std::shared_ptr<State> state_;
};

}  // namespace galois

#endif  // GALOIS_COMMON_THREAD_POOL_H_
