// Metric records and the suite's two output formats: the one-line result
// (the last line of standard output) with the metrics BENCHMARK.json lists,
// and the suite JSON file written with --json, which carries every metric
// with its kind and direction plus the host tags runs are compared under.

#ifndef PNN_BENCH_SUITE_REPORT_H_
#define PNN_BENCH_SUITE_REPORT_H_

#include <malloc.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/util/stats.h"

namespace pnn {
namespace suite {

/// Which list a metric belongs to. The kinds BENCHMARK.json lists
/// (kEndToEnd: bounded, untraced result line; kLayer: traced result line)
/// are reported by every workload; the extras go to the suite JSON only.
enum class MetricKind { kEndToEnd, kEndToEndExtra, kLayer, kLayerExtra };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  MetricKind kind = MetricKind::kLayer;
  bool higher_is_better = false;
};

struct WorkloadReport {
  std::string workload;
  size_t attempted = 0;
  size_t failed = 0;
  size_t verify_checked = 0;
  size_t verify_mismatches = 0;
  std::vector<Metric> metrics;

  bool correct() const { return verify_mismatches == 0 && verify_checked > 0; }

  void Add(MetricKind kind, const std::string& name, double value, const std::string& unit,
           bool higher_is_better = false) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit, kind,
                       higher_is_better});
  }
};

inline const char* KindName(MetricKind k) {
  switch (k) {
    case MetricKind::kEndToEnd:
      return "end_to_end";
    case MetricKind::kEndToEndExtra:
      return "end_to_end_extra";
    case MetricKind::kLayer:
      return "per_layer";
    case MetricKind::kLayerExtra:
      return "per_layer_extra";
  }
  return "";
}

/// pct-th percentile of a copy of `values` (0 when empty).
inline double Pct(std::vector<double> values, double pct) {
  return Percentile(&values, pct);
}

/// `n` per second of `micros`, 0 when no time passed.
inline double PerSecond(size_t n, double micros) {
  return micros > 0.0 ? static_cast<double>(n) * 1e6 / micros : 0.0;
}

inline double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Bytes malloc has handed out and not had back, over all arenas, in MiB.
/// Unlike resident memory it does not depend on what the allocator keeps
/// after a free or on which pages have been touched yet.
inline double LiveHeapMiB() {
  struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd) / (1024.0 * 1024.0);
}

inline std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The human-readable table, one metric per line.
inline void PrintReport(const WorkloadReport& r) {
  std::printf("== %s: attempted %zu, failed %zu, verify_checked %zu, mismatches %zu\n",
              r.workload.c_str(), r.attempted, r.failed, r.verify_checked,
              r.verify_mismatches);
  for (const Metric& m : r.metrics) {
    std::printf("  %-28s %14.4f %-9s (%s)\n", m.name.c_str(), m.value, m.unit.c_str(),
                KindName(m.kind));
  }
}

/// The result line: every metric of `kind`, keyed by name (or by
/// "workload/name" when the run covered several workloads).
inline std::string ResultLine(const std::vector<WorkloadReport>& reports,
                              MetricKind kind) {
  bool correct = !reports.empty();
  size_t attempted = 0, failed = 0;
  std::string metrics;
  for (const WorkloadReport& r : reports) {
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
    for (const Metric& m : r.metrics) {
      if (m.kind != kind) continue;
      std::string key = reports.size() == 1 ? m.name : r.workload + "/" + m.name;
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + key + "\": {\"value\": " + JsonNumber(m.value) +
                 ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + metrics + "}}";
}

struct RunInfo {
  std::string label;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  unsigned host_cores = 0;
  std::string simd_isa;
};

/// The suite JSON file: run tags plus every metric of every workload.
inline bool WriteSuiteJson(const std::string& path, const RunInfo& info,
                           const std::vector<WorkloadReport>& reports) {
  std::ofstream out(path);
  out << "{\n  \"label\": \"" << info.label << "\",\n  \"seed\": " << info.seed
      << ",\n  \"seconds\": " << info.seconds
      << ",\n  \"trace\": " << (info.trace ? "true" : "false")
      << ",\n  \"host_cores\": " << info.host_cores << ",\n  \"simd_isa\": \""
      << info.simd_isa << "\",\n  \"workloads\": {";
  for (size_t w = 0; w < reports.size(); ++w) {
    const WorkloadReport& r = reports[w];
    out << (w ? "," : "") << "\n    \"" << r.workload << "\": {\"correct\": "
        << (r.correct() ? "true" : "false") << ", \"attempted\": " << r.attempted
        << ", \"failed\": " << r.failed << ", \"verify_checked\": " << r.verify_checked
        << ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
      const Metric& m = r.metrics[i];
      out << (i ? "," : "") << "\n      \"" << m.name
          << "\": {\"value\": " << JsonNumber(m.value) << ", \"unit\": \"" << m.unit
          << "\", \"kind\": \"" << KindName(m.kind) << "\", \"better\": \""
          << (m.higher_is_better ? "higher" : "lower") << "\"}";
    }
    out << "}}";
  }
  out << "\n  }\n}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace suite
}  // namespace pnn

#endif  // PNN_BENCH_SUITE_REPORT_H_
