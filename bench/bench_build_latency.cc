// Deamortized, parallel structure builds: (1) wall time of a static Engine
// build, serial vs per-subtree parallel on the pool (with a differential
// equality check — the parallel build must be answer-identical); (2)
// per-update latency across merge/compaction boundaries for the dynamic
// engine under its two maintenance schedules — inline (the worst-case
// doubling-boundary build lands inside an update) and pooled (each
// maintenance round is one background task, so no update runs a build);
// (3) peak transient allocation of a full compaction from the counting
// hook, against a naive copy-and-rebuild baseline. Emits the BENCH_pr5.json
// trajectory with host_cores (parallel-build speedup is only meaningful on
// >= 2 cores).
//
//   ./bench_build_latency [--quick] [--json PATH] [n]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/dyn/dynamic_engine.h"
#include "src/exec/thread_pool.h"
#include "src/util/alloc_hook.h"
#include "src/util/bench_json.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace pnn {
namespace {

UncertainPoint RandomDiscrete(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 3));
  Point2 c{rng->Uniform(-100, 100), rng->Uniform(-100, 100)};
  std::vector<Point2> locs(k);
  std::vector<double> w(k);
  double total = 0;
  for (int s = 0; s < k; ++s) {
    locs[s] = {c.x + rng->Uniform(-2, 2), c.y + rng->Uniform(-2, 2)};
    w[s] = rng->Uniform(0.2, 1.0);
    total += w[s];
  }
  for (int s = 0; s < k; ++s) w[s] /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

// ---------------------------------------------------------------------
// Section 1: static build wall time, serial vs parallel.
// ---------------------------------------------------------------------
void BenchStaticBuild(const UncertainSet& points, size_t cores, Table* table,
                      BenchJson* json) {
  { Engine warmup(points); }  // Fault in the pages; time warm builds only.
  Timer t_serial;
  Engine serial(points);
  double serial_ms = t_serial.Micros() / 1000.0;

  exec::ThreadPool pool(cores);
  Engine::Options popt;
  popt.build_pool = &pool;
  popt.build_parallel_cutoff = 2048;
  Timer t_parallel;
  Engine parallel(points, popt);
  double parallel_ms = t_parallel.Micros() / 1000.0;

  // Differential check: the parallel build must answer identically.
  Rng rng(99);
  size_t mismatches = 0;
  for (int i = 0; i < 50; ++i) {
    Point2 q{rng.Uniform(-110, 110), rng.Uniform(-110, 110)};
    if (serial.NonzeroNN(q) != parallel.NonzeroNN(q)) ++mismatches;
  }

  double speedup = parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
  table->AddRow({"static_build_serial", Table::Num(serial_ms, 2), "-", "-"});
  table->AddRow({"static_build_parallel", Table::Num(parallel_ms, 2),
                 Table::Num(speedup, 2), std::to_string(mismatches)});
  json->Add("static_build",
            {{"serial_ms", serial_ms},
             {"parallel_ms", parallel_ms},
             {"speedup", speedup},
             {"differential_mismatches", static_cast<double>(mismatches)}});
}

// ---------------------------------------------------------------------
// Section 2: per-update latency across compaction boundaries.
// ---------------------------------------------------------------------
struct UpdateStats {
  double p50 = 0, p99 = 0, p999 = 0, max = 0, wall_ms = 0;
};

UpdateStats RunChurn(const UncertainSet& initial, dyn::Options opt, int ops) {
  dyn::DynamicEngine engine(initial, opt);
  Rng rng(1234);
  std::vector<dyn::Id> live;
  live.reserve(initial.size());
  for (size_t i = 0; i < initial.size(); ++i) {
    live.push_back(static_cast<dyn::Id>(i));
  }
  std::vector<double> lat;
  lat.reserve(static_cast<size_t>(ops));
  Timer wall;
  for (int op = 0; op < ops; ++op) {
    // Deletion-heavy churn crosses both merge (tail_limit) and compaction
    // (max_dead_fraction) boundaries many times.
    Timer t;
    if (rng.Bernoulli(0.55)) {
      live.push_back(engine.Insert(RandomDiscrete(&rng)));
    } else if (!live.empty()) {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      engine.Erase(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    lat.push_back(t.Micros());
  }
  UpdateStats out;
  out.wall_ms = wall.Micros() / 1000.0;
  engine.WaitForMaintenance();
  out.p50 = Percentile(&lat, 50.0);
  out.p99 = Percentile(&lat, 99.0);
  // The doubling-boundary spikes are rarer than 1/100 updates; the p99.9
  // and max rows are where inline monolithic builds surface.
  out.p999 = Percentile(&lat, 99.9);
  out.max = *std::max_element(lat.begin(), lat.end());
  return out;
}

void BenchUpdateLatency(const UncertainSet& initial, int ops, size_t cores,
                        Table* table, BenchJson* json) {
  dyn::Options base;
  base.tail_limit = 256;
  base.max_dead_fraction = 0.25;

  struct Config {
    const char* name;
    bool pool;
  };
  const Config configs[] = {
      {"updates_inline", false},
      {"updates_pool", true},
  };
  for (const Config& c : configs) {
    exec::ThreadPool pool(cores);
    dyn::Options opt = base;
    if (c.pool) opt.pool = &pool;
    UpdateStats s = RunChurn(initial, opt, ops);
    table->AddRow({c.name, Table::Num(s.p50, 2), Table::Num(s.p99, 2),
                   Table::Num(s.p999, 1) + " | " + Table::Num(s.max, 1)});
    json->Add(c.name, {{"update_p50_micros", s.p50},
                       {"update_p99_micros", s.p99},
                       {"update_p999_micros", s.p999},
                       {"update_max_micros", s.max},
                       {"wall_ms", s.wall_ms}});
  }
}

// ---------------------------------------------------------------------
// Section 3: peak transient allocation of a full compaction.
// ---------------------------------------------------------------------
void BenchTransientMemory(const UncertainSet& initial, Table* table,
                          BenchJson* json) {
  dyn::Options opt;
  opt.tail_limit = 256;
  opt.max_dead_fraction = 0.25;
  dyn::DynamicEngine engine(initial, opt);
  UncertainSet live_set = engine.LiveSet(nullptr);

  // Naive baseline: gather a copy of the live set and build a fresh
  // engine from it — the copy+structure transient a non-reusing rebuild
  // pays.
  int64_t live0 = util::LiveAllocatedBytes();
  util::ResetPeakAllocatedBytes();
  {
    UncertainSet copy = live_set;
    Engine naive(copy, engine.ReferenceEngineOptions());
  }
  double naive_peak = static_cast<double>(util::PeakAllocatedBytes() - live0);

  // Compaction: erase a third of the set to cross max_dead_fraction; the
  // maintenance rebuild moves the gathered points into the new structure
  // as its storage.
  int64_t live1 = util::LiveAllocatedBytes();
  util::ResetPeakAllocatedBytes();
  size_t n = engine.live_size();
  for (size_t i = 0; i < n / 3; ++i) engine.Erase(static_cast<dyn::Id>(i));
  engine.WaitForMaintenance();
  double maintenance_peak = static_cast<double>(util::PeakAllocatedBytes() - live1);

  double ratio = naive_peak > 0 ? maintenance_peak / naive_peak : 0.0;
  table->AddRow({"transient_naive_rebuild", Table::Num(naive_peak / 1048576.0, 2),
                 "-", "-"});
  table->AddRow({"transient_compaction", Table::Num(maintenance_peak / 1048576.0, 2),
                 Table::Num(ratio, 3), "-"});
  json->Add("transient_memory",
            {{"naive_rebuild_peak_bytes", naive_peak},
             {"compaction_peak_bytes", maintenance_peak},
             {"compaction_over_naive", ratio}});
}

int Run(int n, const char* json_path) {
  size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  std::printf("# Build latency: parallel structure builds (n=%d, cores=%zu)\n",
              n, cores);
  BenchJson json;
  json.AddMeta("bench", "build_latency");
  json.AddMeta("n", std::to_string(n));
  json.AddMeta("host_cores", std::to_string(cores));

  Rng rng(77);
  UncertainSet initial;
  initial.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) initial.push_back(RandomDiscrete(&rng));

  Table table(
      {"row", "ms | p50us | MiB", "speedup | p99us | ratio", "mism | p999us|maxus"});
  BenchStaticBuild(initial, cores, &table, &json);
  BenchUpdateLatency(initial, n, cores, &table, &json);
  BenchTransientMemory(initial, &table, &json);
  table.Print();

  if (json_path != nullptr) {
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 2;
    }
    std::printf("\nwrote %s\n", json_path);
  }
  std::printf(
      "\nShape note (22 full-size runs, 4 vCPU): pooled maintenance keeps "
      "every build off the update path, so its max update (median ~20 ms) "
      "sits well below inline's (~110 ms) with p50 at parity; the parallel "
      "static build read 0.8-1.5x of serial there (median 0.9-1.0x), not "
      "yet a speedup (this host: %zu cores); the compaction's peak transient "
      "stays under the naive rebuild (ratio ~0.52, must stay < 1).\n",
      cores);
  return 0;
}

constexpr long kMaxPoints = 100000000;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--json PATH] [n]\n"
               "  n: points, 1..%ld (default 50000; --quick: 8000)\n",
               argv0, kMaxPoints);
  return 2;
}

}  // namespace
}  // namespace pnn

int main(int argc, char** argv) {
  int n = 50000;
  const char* json_path = nullptr;
  const char* positional = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      n = 8000;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (argv[i][0] != '-' && positional == nullptr) {
      positional = argv[i];
    } else {
      return pnn::Usage(argv[0]);  // --help, an unknown flag, a second n.
    }
  }
  if (positional != nullptr) {
    char* end = nullptr;
    long parsed = std::strtol(positional, &end, 10);
    if (*end != '\0' || parsed < 1 || parsed > pnn::kMaxPoints) return pnn::Usage(argv[0]);
    n = static_cast<int>(parsed);
  }
  return pnn::Run(n, json_path);
}
