#pragma once

/// \file task_pool.h
/// A small work-stealing thread pool for embarrassingly parallel sweeps.
///
/// Each worker owns a deque: it pops its own tasks LIFO (cache-warm) and
/// steals FIFO from victims when empty, so imbalanced task durations — e.g.
/// sweep cells whose node counts differ 2x — rebalance automatically.
/// `parallel_for` is the main entry point; `submit`/`wait_idle` compose for
/// irregular task graphs. Exceptions thrown by tasks are captured and the
/// first one rethrown to the caller of `wait_idle`/`parallel_for`; the
/// destructor drains outstanding tasks but swallows stored exceptions.

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include <atomic>
#include <condition_variable>

namespace spr {

class TaskPool {
 public:
  using Task = std::function<void()>;

  /// The most worker threads a pool may be asked for. A pool starts its
  /// threads up front, so an unbounded count would ask the OS for that many
  /// before any work is done.
  static constexpr int kMaxThreads = 256;

  /// `threads <= 0` uses the hardware concurrency (at least 1); more than
  /// kMaxThreads fails an SPR_CHECK before any worker starts. A pool of
  /// size 1 still runs tasks on its single worker thread; use
  /// `parallel_for(1, ...)`-style inline loops for a strictly serial path.
  explicit TaskPool(int threads = 0);

  /// Joins all workers (after draining the queues).
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Drains outstanding tasks, stops and joins every worker. Idempotent —
  /// a second call (or the destructor after it) is a no-op. After shutdown
  /// the pool accepts no new work: `submit` fails an SPR_CHECK. Swallows
  /// stored task exceptions like the destructor; call `wait_idle` first to
  /// observe them.
  void shutdown();

  /// Whether the pool has been shut down (explicitly or mid-destruction).
  bool is_shutdown() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers. Blocking
  /// on one's own pool deadlocks, so dispatch helpers use this to fall back
  /// to inline execution for nested calls.
  bool on_worker_thread() const noexcept;

  /// Enqueues one task (round-robin across worker deques).
  void submit(Task task);

  /// Blocks until every submitted task has finished; rethrows the first
  /// task exception, if any.
  void wait_idle();

  /// Runs fn(0) .. fn(n-1) across the pool and blocks until done.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Hardware concurrency clamped to >= 1.
  static int hardware_threads() noexcept;

 private:
  struct Worker {
    std::deque<Task> queue;
    std::mutex mutex;
  };

  void worker_loop(std::size_t self);
  bool try_run_one(std::size_t self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  std::atomic<std::size_t> pending_{0};  ///< submitted, not yet finished
  std::atomic<std::size_t> queued_{0};   ///< submitted, not yet popped
  std::atomic<std::size_t> next_worker_{0};
  std::atomic<bool> stop_{false};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

/// Runs fn(range_begin, range_end) over [0, n) in disjoint blocks of
/// `grain` elements — on `pool` when it is non-null, has more than one
/// worker and n spans at least two blocks; serially on the calling thread
/// otherwise. The shared dispatch behind the deterministic within-network
/// build passes (unit-disk adjacency, safety-labeling init): blocks never
/// overlap, so per-element writes stay race-free and order-independent.
/// Calls from a worker of `pool` itself (nested dispatch) run serially
/// inline instead of blocking on the pool — blocking on one's own pool
/// from a worker deadlocks, so nesting degrades to the serial path, which
/// is bit-identical anyway.
void parallel_for_blocked(
    TaskPool* pool, std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace spr
