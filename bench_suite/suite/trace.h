// In-memory spans for the suite's traced runs, written out at exit in the
// Chrome trace-event format (load the file in chrome://tracing or
// ui.perfetto.dev).
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions; nothing inside src/ is instrumented. A span has
// a name, a start, a duration, the request it belongs to and its parent
// span, so a layer's self time is its duration minus what its children
// cover.

#ifndef PNN_BENCH_SUITE_TRACE_H_
#define PNN_BENCH_SUITE_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pnn {
namespace suite {

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double dur_us = 0.0;
  uint64_t request = 0;  // Spans of one request share it.
  int64_t parent = -1;   // Index of the parent span; -1 for a root.
};

class SpanLog {
 public:
  /// Records a span; returns its index (the handle children name as their
  /// parent).
  int64_t Add(const char* name, double start_us, double dur_us, uint64_t request,
              int64_t parent = -1) {
    spans_.push_back({name, start_us, dur_us, request, parent});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Closes a span opened with a provisional duration.
  void End(int64_t span, double end_us) {
    spans_[span].dur_us = end_us - spans_[span].start_us;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span named `name`: its duration minus the union of
  /// its children's intervals (clipped to the span).
  std::vector<double> SelfTimes(const std::string& name) const {
    std::unordered_map<int64_t, std::vector<std::pair<double, double>>> children;
    for (const Span& s : spans_) {
      if (s.parent >= 0 && name == spans_[s.parent].name) {
        children[s.parent].emplace_back(s.start_us, s.start_us + s.dur_us);
      }
    }
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (name != s.name) continue;
      double lo = s.start_us, hi = s.start_us + s.dur_us, covered = 0.0;
      auto it = children.find(static_cast<int64_t>(i));
      if (it != children.end()) {
        std::vector<std::pair<double, double>>& iv = it->second;
        std::sort(iv.begin(), iv.end());
        double reach = lo;
        for (const auto& [a, b] : iv) {
          double from = std::max(a, reach), to = std::min(b, hi);
          if (to > from) covered += to - from;
          reach = std::max(reach, to);
        }
      }
      out.push_back(s.dur_us - covered);
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
};

/// Chrome trace-event JSON: one process per named log, one complete ("X")
/// event per span on a track per request. False on IO failure.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<std::pair<std::string, const SpanLog*>>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t p = 0; p < logs.size(); ++p) {
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}}\n",
                 p == 0 ? "" : ",", p + 1, logs[p].first.c_str());
    const std::vector<Span>& spans = logs[p].second->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   ",{\"name\":\"%s\",\"cat\":\"pnn\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":%zu,\"tid\":%llu,\"args\":{\"span\":%zu,"
                   "\"parent\":%lld}}\n",
                   s.name, s.start_us, s.dur_us, p + 1,
                   static_cast<unsigned long long>(s.request), i,
                   static_cast<long long>(s.parent));
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace suite
}  // namespace pnn

#endif  // PNN_BENCH_SUITE_TRACE_H_
