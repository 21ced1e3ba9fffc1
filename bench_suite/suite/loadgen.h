// The suite's load generator: one client connection driven by a sender
// thread and a receiving thread, over a fixed request count per phase.
//
// It replaces the generator of bench/bench_serve_loadgen.cc, whose numbers
// did not repeat. Three differences matter:
//   * The receiver drains by count — the phase expects exactly as many
//     responses as it sent, and ends at the last one. The old receiver could
//     take the last response before the sender had flagged completion, then
//     block in Receive() for the client's 5 s receive timeout, which landed
//     in the phase's wall time (closed-loop qps of ~200 vs ~20,000 on
//     back-to-back runs of the same code).
//   * Open-loop pacing sleeps until each request's due time instead of
//     spinning on a core the server needs, and every request is timed from
//     its due time, so a stalled generator charges the stall to the
//     requests it delayed. How late the sender ran is reported separately.
//   * The closed-loop window blocks on a condition variable.

#ifndef PNN_BENCH_SUITE_LOADGEN_H_
#define PNN_BENCH_SUITE_LOADGEN_H_

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/query.h"
#include "src/serve/client.h"

namespace pnn {
namespace suite {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// User plus system CPU time of this process, all threads, in seconds.
inline double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// Every sample_every-th query response of a phase is kept for
/// verification; update responses are always kept.
constexpr size_t kSampleEvery = 64;

/// Closed-loop requests in flight.
constexpr size_t kClosedLoopWindow = 32;

/// QueryRequest::deadline_micros of every request. Stalls of a shared host
/// alone reached 50-200 ms (one run of serve_spiral lost 40 requests to a
/// 50 ms deadline), so the limit only catches a server that has stopped
/// answering; the latency tail is reported as query_p99_us.
constexpr uint64_t kDeadlineMicros = 1000000;

/// One request's fate. Times are microseconds from the phase start.
struct Outcome {
  double start_us = 0.0;   // Due time (open loop) or send time (closed loop).
  double late_us = 0.0;    // Send time minus due time (open loop only).
  double end_us = -1.0;    // Receive time; negative while unanswered.
  double server_us = 0.0;  // QueryResponse::server_micros.
  api::StatusCode status = api::StatusCode::kOk;
};

struct PhaseResult {
  size_t sent = 0;
  size_t ok = 0;
  size_t shed = 0;         // kOverloaded.
  size_t deadline = 0;     // kDeadlineExceeded.
  size_t other_error = 0;  // Any other non-kOk status.
  size_t lost = 0;         // Sent, never answered.
  Clock::time_point t0;    // Phase start; Outcome times count from here.
  std::vector<Outcome> outcomes;  // Parallel to the phase's requests.
  /// (index within the phase, response) for kept responses, in arrival order.
  std::vector<std::pair<size_t, api::QueryResponse>> kept;
  /// Process CPU seconds from the phase start to its last response.
  double cpu_s = 0.0;

  size_t failed() const { return shed + deadline + other_error + lost; }

  /// Microseconds from the first request's start to the last response.
  double WallMicros() const {
    double first = 0.0, last = 0.0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      first = i == 0 ? outcomes[i].start_us : std::min(first, outcomes[i].start_us);
      last = std::max(last, outcomes[i].end_us);
    }
    return last - first;
  }
};

/// Sends requests[begin, end) to 127.0.0.1:port on a fresh connection and
/// waits for every response: open loop at `rate` requests per second, or a
/// closed loop when `rate` is 0.
inline PhaseResult RunPhase(uint16_t port, const std::vector<api::QueryRequest>& requests,
                            size_t begin, size_t end, double rate) {
  const size_t n = end - begin;
  PhaseResult res;
  res.outcomes.resize(n);
  serve::Client client;
  if (!client.Connect(port)) {
    std::fprintf(stderr, "loadgen: connect to port %u failed\n", port);
    res.lost = n;
    return res;
  }

  // The sender publishes outcomes[i].start_us before sending request i; the
  // receiver acquires `published` before reading it back.
  std::atomic<size_t> published{0};
  std::atomic<size_t> expected{n};  // Lowered if a send fails.
  std::atomic<bool> abort{false};   // The receiver gave up.
  std::mutex window_mu;
  std::condition_variable window_cv;
  size_t in_flight = 0;  // Guarded by window_mu.

  const bool open_loop = rate > 0.0;
  const double interval_us = open_loop ? 1e6 / rate : 0.0;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  res.t0 = t0;
  const double cpu0 = ProcessCpuSeconds();

  std::thread sender([&] {
    // Wake at the due time, not up to the default 50 us timer slack later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (size_t i = 0; i < n; ++i) {
      Outcome& o = res.outcomes[i];
      if (open_loop) {
        Clock::time_point due =
            t0 + std::chrono::nanoseconds(static_cast<int64_t>(interval_us * 1e3 * i));
        std::this_thread::sleep_until(due);
        o.start_us = MicrosBetween(t0, due);
        o.late_us = MicrosBetween(due, Clock::now());
      } else {
        std::unique_lock<std::mutex> lock(window_mu);
        window_cv.wait(lock, [&] { return in_flight < kClosedLoopWindow || abort; });
        ++in_flight;
        lock.unlock();
        o.start_us = MicrosBetween(t0, Clock::now());
      }
      if (abort) {
        expected.store(i, std::memory_order_release);
        return;
      }
      published.store(i + 1, std::memory_order_release);
      api::QueryRequest req = requests[begin + i];
      req.deadline_micros = kDeadlineMicros;
      std::optional<uint64_t> id = client.Send(req);
      // A fresh client numbers its requests 1, 2, ...; the receiver maps
      // response ids back to phase indices through that.
      if (!id || *id != i + 1) {
        std::fprintf(stderr, "loadgen: send %zu failed\n", i);
        expected.store(i, std::memory_order_release);
        return;
      }
    }
  });

  size_t received = 0;
  while (received < expected.load(std::memory_order_acquire)) {
    std::optional<serve::ResponseFrame> frame = client.Receive();
    if (!frame) break;  // Transport failure: the rest counts as lost.
    Clock::time_point now = Clock::now();
    size_t i = static_cast<size_t>(frame->request_id - 1);
    if (frame->request_id == 0 || i >= n || res.outcomes[i].end_us >= 0) {
      std::fprintf(stderr, "loadgen: unexpected response id %llu\n",
                   static_cast<unsigned long long>(frame->request_id));
      break;
    }
    while (published.load(std::memory_order_acquire) <= i) std::this_thread::yield();
    Outcome& o = res.outcomes[i];
    o.end_us = MicrosBetween(t0, now);
    o.server_us = frame->response.server_micros;
    o.status = frame->response.status;
    ++received;
    if (!open_loop) {
      std::lock_guard<std::mutex> lock(window_mu);
      --in_flight;
      window_cv.notify_one();
    }
    switch (o.status) {
      case api::StatusCode::kOk:
        ++res.ok;
        break;
      case api::StatusCode::kOverloaded:
        ++res.shed;
        break;
      case api::StatusCode::kDeadlineExceeded:
        ++res.deadline;
        break;
      default:
        ++res.other_error;
        break;
    }
    bool keep = requests[begin + i].is_update() || i % kSampleEvery == 0;
    if (keep) res.kept.emplace_back(i, std::move(frame->response));
  }
  res.cpu_s = ProcessCpuSeconds() - cpu0;
  if (received < expected.load(std::memory_order_acquire)) {
    // Stop the sender, which may be waiting on the closed-loop window.
    std::lock_guard<std::mutex> lock(window_mu);
    abort = true;
    window_cv.notify_all();
  }
  sender.join();
  res.sent = expected.load(std::memory_order_acquire);
  res.lost = res.sent - received;
  return res;
}

}  // namespace suite
}  // namespace pnn

#endif  // PNN_BENCH_SUITE_LOADGEN_H_
