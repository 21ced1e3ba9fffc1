// Tests for the work-stealing thread pool behind the batch executor.

#include "src/exec/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

namespace pnn {
namespace exec {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h = 0;
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForHandlesEdgeSizes) {
  ThreadPool pool(3);
  for (size_t n : {0u, 1u, 2u, 3u, 7u}) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(n, [&](size_t i) { sum += i + 1; });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "n=" << n;
  }
}

TEST(ThreadPool, ParallelForRunsConcurrently) {
  ThreadPool pool(4);
  // With 4 workers + the caller, at least 2 iterations must be able to
  // overlap: have each iteration wait until another one is in flight.
  std::mutex mu;
  std::condition_variable cv;
  int in_flight = 0;
  bool overlapped = false;
  pool.ParallelFor(8, [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++in_flight;
    if (in_flight >= 2) {
      overlapped = true;
      cv.notify_all();
    } else {
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return overlapped; });
    }
    --in_flight;
  });
  EXPECT_TRUE(overlapped);
}

TEST(ThreadPool, SubmitExecutesAllTasks) {
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  constexpr int kTasks = 64;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] {
        if (count.fetch_add(1) + 1 == kTasks) cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return count.load() == kTasks; });
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.ParallelFor(100, [&](size_t) { total++; });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, ParallelForUnderHeldLockNeverSelfDeadlocks) {
  // Tasks lock a shared mutex and run ParallelFor while holding it — the
  // shape of the lazy structure builds (Engine::EnsureRounds,
  // EnsureExpectedNN).
  // ParallelFor must never execute unrelated stolen tasks on the calling
  // thread mid-wait, or a stolen sibling would re-lock the held mutex on
  // the same thread and self-deadlock.
  ThreadPool pool(2);
  std::mutex m;
  std::atomic<int> done{0};
  for (int t = 0; t < 8; ++t) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(m);
      pool.ParallelFor(16, [](size_t) { std::this_thread::yield(); });
      done.fetch_add(1);
    });
  }
  while (done.load() < 8) std::this_thread::yield();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, WorkerInitRunsOncePerWorkerBeforeTasks) {
  static thread_local bool initialized = false;
  std::atomic<int> inits{0};
  ThreadPool::Options opts;
  opts.num_threads = 3;
  opts.worker_init = [&] {
    initialized = true;
    inits.fetch_add(1);
  };
  ThreadPool pool(opts);
  // Every task must observe its worker's init already done, however the
  // tasks are spread over the workers.
  std::atomic<int> seen{0};
  std::atomic<int> uninitialized{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      if (!initialized) uninitialized.fetch_add(1);
      seen.fetch_add(1);
    });
  }
  while (seen.load() < 32) std::this_thread::yield();
  EXPECT_EQ(uninitialized.load(), 0);
  // All three workers ran the init exactly once (threads spawn at
  // construction, so all inits have run by the time their tasks finish —
  // wait for the stragglers that may not have received a task).
  while (inits.load() < 3) std::this_thread::yield();
  EXPECT_EQ(inits.load(), 3);
}

TEST(Lane, RunsTasksInSubmissionOrderSerially) {
  ThreadPool pool(4);
  Lane lane(&pool);
  std::vector<int> order;
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::mutex mu;
  for (int i = 0; i < 50; ++i) {
    lane.Submit([&, i] {
      int now = concurrent.fetch_add(1) + 1;
      int prev = max_concurrent.load();
      while (now > prev && !max_concurrent.compare_exchange_weak(prev, now)) {
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      }
      std::this_thread::yield();
      concurrent.fetch_sub(1);
    });
  }
  lane.Drain();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);  // FIFO.
  EXPECT_EQ(max_concurrent.load(), 1);  // Never two lane tasks at once.
}

TEST(Lane, InterleavesWithPoolWorkAndSiblingLanes) {
  ThreadPool pool(2);
  Lane a(&pool);
  Lane b(&pool);
  std::atomic<int> a_done{0}, b_done{0};
  for (int i = 0; i < 20; ++i) {
    a.Submit([&] { a_done.fetch_add(1); });
    b.Submit([&] { b_done.fetch_add(1); });
  }
  a.Drain();
  b.Drain();
  EXPECT_EQ(a_done.load(), 20);
  EXPECT_EQ(b_done.load(), 20);
}

TEST(Lane, SubmitFromInsideLaneTaskContinuesChain) {
  ThreadPool pool(2);
  Lane lane(&pool);
  std::atomic<int> hops{0};
  std::function<void()> chain = [&] {
    if (hops.fetch_add(1) + 1 < 10) lane.Submit(chain);
  };
  lane.Submit(chain);
  while (hops.load() < 10) std::this_thread::yield();
  lane.Drain();
  EXPECT_EQ(hops.load(), 10);
}

}  // namespace
}  // namespace exec
}  // namespace pnn
