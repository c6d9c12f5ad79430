#include "util/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/check.h"

namespace spr {
namespace {

TEST(TaskPool, HardwareThreadsAtLeastOne) {
  EXPECT_GE(TaskPool::hardware_threads(), 1);
}

/// Threads of this process, as Linux lists them.
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(TaskPool, RejectsMoreThanMaxThreadsBeforeStartingAny) {
  ScopedCheckHandler guard(&throwing_check_handler);
  const std::size_t before = process_threads();
  EXPECT_THROW(TaskPool pool(TaskPool::kMaxThreads + 1), CheckError);
  EXPECT_EQ(process_threads(), before);
}

TEST(TaskPool, DefaultsToHardwareThreads) {
  TaskPool pool;
  EXPECT_EQ(pool.thread_count(),
            static_cast<std::size_t>(TaskPool::hardware_threads()));
}

TEST(TaskPool, ParallelForCoversEveryIndexExactlyOnce) {
  const std::size_t n = 500;
  std::vector<std::atomic<int>> hits(n);
  TaskPool pool(4);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskPool, SingleThreadPoolStillRunsEverything) {
  std::atomic<int> sum{0};
  TaskPool pool(1);
  pool.parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(TaskPool, SubmitAndWaitIdle) {
  std::atomic<int> done{0};
  TaskPool pool(3);
  for (int i = 0; i < 50; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
  // The pool is reusable after an idle wait.
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 51);
}

TEST(TaskPool, ImbalancedTasksAllComplete) {
  // A few long tasks and many short ones: idle workers must steal the short
  // ones instead of waiting behind the long ones' home queues.
  std::atomic<int> done{0};
  TaskPool pool(4);
  pool.parallel_for(64, [&](std::size_t i) {
    if (i % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(TaskPool, TaskExceptionPropagatesToCaller) {
  TaskPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives the failed batch.
  std::atomic<int> ok{0};
  pool.parallel_for(4, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(TaskPool, ZeroThreadRequestFallsBackToHardwareConcurrency) {
  // `threads == 0` means "use the hardware": never a thread-less pool that
  // would strand submitted tasks forever.
  TaskPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  std::atomic<int> done{0};
  pool.parallel_for(8, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 8);
}

TEST(TaskPool, BlockedDispatchSerialFallbacks) {
  // Null pool, single-worker pool, and an n too small to split all take the
  // inline serial path; coverage and block disjointness hold in each.
  std::vector<int> hits(100, 0);
  auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  };
  parallel_for_blocked(nullptr, hits.size(), 16, body);
  TaskPool single(1);
  parallel_for_blocked(&single, hits.size(), 16, body);
  TaskPool pool(4);
  parallel_for_blocked(&pool, hits.size(), 64, body);  // n < 2 * grain
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 3) << "index " << i;
  }
}

TEST(TaskPool, ShutdownDrainsAndIsIdempotent) {
  std::atomic<int> done{0};
  TaskPool pool(2);
  for (int i = 0; i < 16; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  pool.shutdown();
  EXPECT_EQ(done.load(), 16);
  EXPECT_TRUE(pool.is_shutdown());
  pool.shutdown();  // double shutdown: a no-op, not a double join
  EXPECT_TRUE(pool.is_shutdown());
}  // ~TaskPool after explicit shutdown: also a no-op

TEST(TaskPool, ShutdownSwallowsStoredTaskException) {
  // Like the destructor, an explicit shutdown must not throw; wait_idle
  // first is the way to observe failures.
  TaskPool pool(2);
  pool.submit([] { throw std::runtime_error("lost"); });
  EXPECT_NO_THROW(pool.shutdown());
}

TEST(TaskPool, WorkerThreadDetection) {
  TaskPool pool(2);
  TaskPool other(2);
  EXPECT_FALSE(pool.on_worker_thread());
  std::atomic<int> inside{0}, outside{0};
  pool.parallel_for(8, [&](std::size_t) {
    if (pool.on_worker_thread()) inside.fetch_add(1);
    if (other.on_worker_thread()) outside.fetch_add(1);
  });
  EXPECT_EQ(inside.load(), 8);
  EXPECT_EQ(outside.load(), 0);
}

TEST(TaskPool, NestedBlockedDispatchRunsInlineInsteadOfDeadlocking) {
  // A worker that re-enters parallel_for_blocked on its own pool must not
  // block on the pool (classic self-deadlock); the nested call degrades to
  // the serial path on the worker itself.
  TaskPool pool(2);
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 512;
  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  std::atomic<int> nested_inline{0};
  pool.parallel_for(kOuter, [&](std::size_t outer) {
    parallel_for_blocked(&pool, kInner, 16,
                         [&](std::size_t lo, std::size_t hi) {
                           if (pool.on_worker_thread()) {
                             nested_inline.fetch_add(1);
                           }
                           for (std::size_t i = lo; i < hi; ++i) {
                             ++hits[outer][i];
                           }
                         });
  });
  for (std::size_t outer = 0; outer < kOuter; ++outer) {
    for (std::size_t i = 0; i < kInner; ++i) {
      EXPECT_EQ(hits[outer][i], 1) << "outer " << outer << " index " << i;
    }
  }
  // Inline means one whole-range call per outer task, on a worker thread.
  EXPECT_EQ(nested_inline.load(), static_cast<int>(kOuter));
}

TEST(TaskPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> done{0};
  {
    TaskPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      });
    }
  }  // ~TaskPool waits
  EXPECT_EQ(done.load(), 20);
}

}  // namespace
}  // namespace spr
