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

}  // namespace
}  // namespace exec
}  // namespace pnn
