#include "util/task_pool.h"

#include <algorithm>

#include "util/check.h"

namespace spr {

namespace {

/// The pool whose worker loop the current thread is inside, if any. Set for
/// the lifetime of worker_loop, so nested dispatch can detect "I *am* the
/// pool" and run inline instead of deadlocking.
thread_local const TaskPool* tl_current_pool = nullptr;

}  // namespace

int TaskPool::hardware_threads() noexcept {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

TaskPool::TaskPool(int threads) {
  SPR_CHECK(threads <= kMaxThreads, "TaskPool asked for ", threads,
            " threads; the most is ", kMaxThreads);
  int count = threads <= 0 ? hardware_threads() : threads;
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

TaskPool::~TaskPool() { shutdown(); }

void TaskPool::shutdown() {
  // Drain, but never throw: a stored task exception stays swallowed unless
  // the owner called wait_idle() first.
  try {
    wait_idle();
  } catch (...) {
  }
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    if (stop_.load(std::memory_order_acquire)) return;  // second shutdown
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

bool TaskPool::on_worker_thread() const noexcept {
  return tl_current_pool == this;
}

void TaskPool::submit(Task task) {
  SPR_CHECK(!is_shutdown(), "submit to a shut-down TaskPool");
  // Count before publishing: a worker may pop and finish the task the
  // instant it lands in the queue (nested submits from a running task), and
  // its fetch_sub must never observe an uncounted task.
  pending_.fetch_add(1, std::memory_order_release);
  queued_.fetch_add(1, std::memory_order_release);
  std::size_t slot =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    std::lock_guard<std::mutex> lock(workers_[slot]->mutex);
    workers_[slot]->queue.push_back(std::move(task));
  }
  {
    // Taken (and immediately dropped) so the increment can't slip into the
    // window between a sleeping worker's predicate check and its wait.
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_one();
}

bool TaskPool::try_run_one(std::size_t self) {
  Task task;
  // Own queue first, LIFO (the freshest task is the cache-warmest) ...
  {
    Worker& mine = *workers_[self];
    std::lock_guard<std::mutex> lock(mine.mutex);
    if (!mine.queue.empty()) {
      task = std::move(mine.queue.back());
      mine.queue.pop_back();
    }
  }
  // ... then steal FIFO from a victim, scanning from the next worker round.
  if (!task) {
    for (std::size_t k = 1; k < workers_.size() && !task; ++k) {
      Worker& victim = *workers_[(self + k) % workers_.size()];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.queue.empty()) {
        task = std::move(victim.queue.front());
        victim.queue.pop_front();
      }
    }
  }
  if (!task) return false;
  queued_.fetch_sub(1, std::memory_order_acq_rel);

  try {
    task();
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(wake_mutex_);  // see submit()
    idle_cv_.notify_all();
  }
  return true;
}

void TaskPool::worker_loop(std::size_t self) {
  tl_current_pool = this;
  while (true) {
    if (try_run_one(self)) continue;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    // Sleep on *queued* work, not in-flight work: while other workers chew
    // on long tasks there is nothing to steal, and spinning here would burn
    // every idle core re-locking their queue mutexes.
    wake_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void TaskPool::wait_idle() {
  {
    std::unique_lock<std::mutex> lock(wake_mutex_);
    idle_cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void TaskPool::parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    submit([&fn, i] { fn(i); });
  }
  wait_idle();
}

void parallel_for_blocked(
    TaskPool* pool, std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool == nullptr || pool->thread_count() <= 1 || n < 2 * grain ||
      pool->on_worker_thread()) {
    fn(0, n);
    return;
  }
  const std::size_t blocks = (n + grain - 1) / grain;
  pool->parallel_for(blocks, [&](std::size_t b) {
    fn(b * grain, std::min(n, (b + 1) * grain));
  });
}

}  // namespace spr
