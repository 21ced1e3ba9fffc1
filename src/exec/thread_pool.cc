#include "src/exec/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace pnn {
namespace exec {

namespace {
// Which pool (if any) the current thread is a worker of, so a nested
// ParallelFor can help-drain instead of blocking on its own pool.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker_index = 0;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = num_threads > 0 ? num_threads
                             : std::max<size_t>(1, std::thread::hardware_concurrency());
  queues_.reserve(n);
  for (size_t i = 0; i < n; ++i) queues_.push_back(std::make_unique<WorkQueue>());
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    WorkQueue& q = *queues_[next_queue_];
    next_queue_ = (next_queue_ + 1) % queues_.size();
    std::lock_guard<std::mutex> qlock(q.mu);
    q.tasks.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

std::function<void()> ThreadPool::NextTask(size_t self) {
  {  // Own queue first, newest task (LIFO).
    WorkQueue& q = *queues_[self];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      auto task = std::move(q.tasks.back());
      q.tasks.pop_back();
      return task;
    }
  }
  // Steal the oldest task (FIFO) from a sibling, scanning from self + 1 so
  // victims differ across thieves.
  for (size_t off = 1; off < queues_.size(); ++off) {
    WorkQueue& q = *queues_[(self + off) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      auto task = std::move(q.tasks.front());
      q.tasks.pop_front();
      return task;
    }
  }
  return {};
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_pool = this;
  tls_worker_index = self;
  for (;;) {
    std::function<void()> task = NextTask(self);
    if (task) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (stop_) return;
    // Re-check under the lock: a submission may have raced our scan.
    bool any = false;
    for (const auto& q : queues_) {
      std::lock_guard<std::mutex> qlock(q->mu);
      if (!q->tasks.empty()) {
        any = true;
        break;
      }
    }
    if (any) continue;
    wake_cv_.wait(lock);
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  size_t runners = std::min(size(), n);
  if (runners <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // The wait below is on COMPLETED ITERATIONS, not on finished runner
  // tasks. Every claimed iteration is actively executing on some thread,
  // so completion never depends on a queued-but-unstarted runner — which
  // is what lets a nested call simply wait instead of help-draining
  // arbitrary stolen tasks. (Help-draining here used to run unrelated
  // tasks on this thread mid-call; a caller holding a lock — the lazy
  // Monte-Carlo/expected-NN builds, a bucket's round-cache extension —
  // could then re-enter itself via a stolen task and self-deadlock.)
  //
  // A runner task that starts only after this frame returned claims an
  // index >= n and exits without ever touching `body` (whose reference
  // would be dangling by then); it reads only the shared_ptr-held
  // counters, so lingering queued runners are harmless no-ops.
  auto next = std::make_shared<std::atomic<size_t>>(0);
  auto completed = std::make_shared<std::atomic<size_t>>(0);
  auto done_mu = std::make_shared<std::mutex>();
  auto done_cv = std::make_shared<std::condition_variable>();
  auto runner = [next, completed, done_mu, done_cv, n, &body] {
    size_t local = 0;
    for (size_t i = next->fetch_add(1); i < n; i = next->fetch_add(1)) {
      body(i);
      ++local;
    }
    if (local > 0 && completed->fetch_add(local) + local == n) {
      std::lock_guard<std::mutex> lock(*done_mu);
      done_cv->notify_all();
    }
  };
  for (size_t r = 0; r < runners; ++r) Submit(runner);
  runner();  // The caller participates instead of blocking idle.
  std::unique_lock<std::mutex> lock(*done_mu);
  done_cv->wait(lock, [&] { return completed->load() == n; });
}

}  // namespace exec
}  // namespace pnn
