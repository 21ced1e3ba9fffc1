// Leaf-width sweep + answer-cache payoff: the two PR-10 knobs, measured.
//
// Part 1 sweeps KdBuildOptions::leaf_size over {8, 16, 32, 64, 128} and
// times, per width: the raw kd build, kd Nearest (the purest leaf-scan
// cell), the static engine's NonzeroNN hot path (NonzeroDelta +
// NonzeroNNWithinInto — two weighted kd traversals), and the dynamic
// engine's warm Monte-Carlo Quantify (per-round NearestSquared scans, with
// the answer cache OFF so repeats re-evaluate). Answers are identical at
// every width (tests/kd_width_test.cc); this bench decides the default.
//
// Part 2 measures the cross-query answer cache at the default width: p50
// of a cache miss vs a cache hit on the same snapshot, plus a hot-spot
// churn stream (workload/streaming.h, repeat_fraction > 0) run with
// the cache on and off.
//
//   ./bench_leaf_width [--quick] [--json PATH]
//
// Emits the BENCH_pr10.json trajectory.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/dyn/dynamic_engine.h"
#include "src/exec/batch_engine.h"
#include "src/spatial/kdtree.h"
#include "src/util/bench_json.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/timer.h"
#include "src/workload/streaming.h"

namespace pnn {
namespace {

constexpr int kWidths[] = {8, 16, 32, 64, 128};

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

/// p50/p99 of per-query cost, each query timed over `reps` back-to-back
/// repeats (sub-microsecond cells need the amortized clock read).
struct Lat {
  double p50 = 0, p99 = 0;
};
template <typename Fn>
Lat TimePerQuery(const std::vector<Point2>& queries, int reps, const Fn& fn) {
  std::vector<double> lat;
  lat.reserve(queries.size());
  for (Point2 q : queries) {
    Timer t;
    for (int r = 0; r < reps; ++r) fn(q);
    lat.push_back(t.Micros() / reps);
  }
  Lat out;
  out.p50 = Percentile(&lat, 50.0);
  out.p99 = Percentile(&lat, 99.0);
  return out;
}

struct WidthCell {
  double build_ms = 0;
  Lat nearest;
  Lat nonzero;
  Lat mc_warm;
};

WidthCell RunWidth(int width, int kd_n, int engine_n, int num_queries, int mc_rounds) {
  WidthCell cell;
  Rng rng(7001);  // Same stream every width: identical inputs.

  // Raw kd: build time (median of 3) + Nearest over uniform points.
  std::vector<Point2> pts(kd_n);
  for (auto& p : pts) p = {rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
  std::vector<Point2> queries(num_queries);
  for (auto& q : queries) q = {rng.Uniform(-110, 110), rng.Uniform(-110, 110)};

  KdBuildOptions build;
  build.leaf_size = width;
  std::vector<double> builds;
  KdTree tree(pts, {}, Metric::kEuclidean, build);
  for (int i = 0; i < 3; ++i) {
    Timer t;
    KdTree rebuilt(pts, {}, Metric::kEuclidean, build);
    builds.push_back(t.Micros() / 1000.0);
  }
  cell.build_ms = Percentile(&builds, 50.0);
  cell.nearest = TimePerQuery(queries, 16, [&](Point2 q) { tree.Nearest(q); });

  // Static engine NonzeroNN hot path over a discrete set.
  UncertainSet set;
  for (int i = 0; i < engine_n; ++i) set.push_back(RandomDiscrete(&rng));
  Engine::Options eopt;
  eopt.kd_leaf_size = width;
  Engine engine(set, eopt);
  std::vector<int> hits;
  cell.nonzero = TimePerQuery(queries, 4, [&](Point2 q) {
    engine.NonzeroNNWithinInto(q, engine.NonzeroDelta(q), nullptr, &hits);
  });

  // Dynamic engine, Monte-Carlo plan forced, warm pass. The answer cache
  // is OFF so every repeat re-runs the per-round kd scans this cell is
  // meant to measure.
  dyn::Options dopt;
  dopt.engine.kd_leaf_size = width;
  dopt.engine.spiral_budget_fraction = 1e-9;
  dopt.engine.mc_rounds_override = static_cast<size_t>(mc_rounds);
  dopt.prewarm_after_build = true;
  dopt.answer_cache = false;
  dyn::DynamicEngine dengine(set, dopt);
  for (int i = 0; i < engine_n / 10; ++i) {
    dengine.Erase(static_cast<dyn::Id>(i * 7 % engine_n));
    dengine.Insert(RandomDiscrete(&rng));
  }
  double eps = 0.1;
  dengine.Prewarm(eps);
  std::vector<Quantification> out;
  for (Point2 q : queries) dengine.QuantifyInto(q, eps, &out);  // Warm-up.
  cell.mc_warm = TimePerQuery(queries, 1, [&](Point2 q) {
    dengine.QuantifyInto(q, eps, &out);
  });
  return cell;
}

/// Part 2a: miss vs hit p50 on one snapshot. The query set must fit the
/// cache (AnswerCache::Capacity()) so the second pass is all hits.
void RunHitMiss(int engine_n, int mc_rounds, Table* table, BenchJson* json) {
  Rng rng(7002);
  UncertainSet set;
  for (int i = 0; i < engine_n; ++i) set.push_back(RandomDiscrete(&rng));
  dyn::Options dopt;
  dopt.engine.spiral_budget_fraction = 1e-9;
  dopt.engine.mc_rounds_override = static_cast<size_t>(mc_rounds);
  dopt.prewarm_after_build = true;
  dyn::DynamicEngine engine(set, dopt);
  double eps = 0.1;
  engine.Prewarm(eps);

  int nq = 100;  // Under the 128-entry cache capacity.
  std::vector<Point2> warmers(nq), queries(nq);
  for (auto& q : warmers) q = {rng.Uniform(-110, 110), rng.Uniform(-110, 110)};
  for (auto& q : queries) q = {rng.Uniform(-110, 110), rng.Uniform(-110, 110)};

  std::vector<Quantification> qout;
  std::vector<dyn::Id> nout;
  // Warm scratch/tail caches with a disjoint set (their cache entries get
  // LRU-evicted by the timed misses below).
  for (Point2 q : warmers) {
    engine.QuantifyInto(q, eps, &qout);
    engine.NonzeroNNInto(q, &nout);
  }
  Lat q_miss = TimePerQuery(queries, 1, [&](Point2 q) {
    engine.QuantifyInto(q, eps, &qout);
  });
  Lat q_hit = TimePerQuery(queries, 1, [&](Point2 q) {
    engine.QuantifyInto(q, eps, &qout);
  });
  Lat n_miss = TimePerQuery(queries, 1, [&](Point2 q) {
    engine.NonzeroNNInto(q, &nout);
  });
  Lat n_hit = TimePerQuery(queries, 1, [&](Point2 q) {
    engine.NonzeroNNInto(q, &nout);
  });
  // NonzeroNN "miss" pass above actually misses: the Quantify passes
  // filled kQuantify entries, which never match kNonzeroNN keys, and the
  // NonzeroNN keys are first seen in that pass.
  table->AddRow({"mc_quantify", Table::Num(q_miss.p50, 4), Table::Num(q_hit.p50, 4),
                 Table::Num(q_hit.p50 > 0 ? q_miss.p50 / q_hit.p50 : 0, 1)});
  table->AddRow({"nonzero_nn", Table::Num(n_miss.p50, 4), Table::Num(n_hit.p50, 4),
                 Table::Num(n_hit.p50 > 0 ? n_miss.p50 / n_hit.p50 : 0, 1)});
  json->Add("cache_mc_quantify",
            {{"miss_p50_micros", q_miss.p50},
             {"hit_p50_micros", q_hit.p50},
             {"miss_over_hit", q_hit.p50 > 0 ? q_miss.p50 / q_hit.p50 : 0}});
  json->Add("cache_nonzero_nn",
            {{"miss_p50_micros", n_miss.p50},
             {"hit_p50_micros", n_hit.p50},
             {"miss_over_hit", n_hit.p50 > 0 ? n_miss.p50 / n_hit.p50 : 0}});
}

/// Part 2b: hot-spot mixed stream (repeat_fraction skew) through the
/// batch executor, cache on vs off.
void RunHotspot(int initial, int ops, Table* table, BenchJson* json) {
  for (bool cache : {false, true}) {
    StreamingChurnOptions wopt;
    wopt.initial = initial;
    wopt.ops = ops;
    wopt.churn = 0.02;  // Mostly queries: snapshots live long enough to pay off.
    wopt.discrete = true;
    wopt.quantify_fraction = 0.5;
    wopt.hotspot_fraction = 0.5;
    wopt.repeat_fraction = 0.6;
    Rng rng(7003);  // Same stream for both legs.
    std::vector<exec::MixedOp> stream = GenerateStreamingChurn(wopt, &rng);

    dyn::Options dopt;
    dopt.engine.spiral_budget_fraction = 1e-9;
    dopt.engine.mc_rounds_override = 128;
    dopt.prewarm_after_build = true;
    dopt.answer_cache = cache;
    dyn::DynamicEngine engine(dopt);
    exec::BatchEngine batch(api::EngineRef(&engine), {});
    double eps = 0.1;
    engine.Prewarm(eps);
    std::vector<api::QueryRequest> requests = exec::ToRequests(stream, eps);
    auto result = batch.RequestBatch(requests);  // Warm-up + fill.
    result = batch.RequestBatch(requests);

    const exec::BatchStats& s = result.stats;
    const char* name = cache ? "hotspot_cache_on" : "hotspot_cache_off";
    table->AddRow({std::string(name), Table::Num(s.wall_seconds * 1000, 1),
                   Table::Num(s.queries_per_sec, 0), Table::Num(s.p50_micros, 4),
                   Table::Num(static_cast<double>(s.answer_cache_hits), 0),
                   Table::Num(static_cast<double>(s.answer_cache_misses), 0)});
    json->Add(name, {{"wall_ms", s.wall_seconds * 1000},
                     {"queries_per_sec", s.queries_per_sec},
                     {"p50_micros", s.p50_micros},
                     {"answer_cache_hits", static_cast<double>(s.answer_cache_hits)},
                     {"answer_cache_misses",
                      static_cast<double>(s.answer_cache_misses)}});
  }
}

int Run(bool quick, const char* json_path) {
  int kd_n = quick ? 40000 : 200000;
  int engine_n = quick ? 4000 : 20000;
  int num_queries = quick ? 200 : 500;
  int mc_rounds = 128;
  size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());

  std::printf("# Leaf-width sweep (kd n=%d, engine n=%d, %d queries) + answer cache\n",
              kd_n, engine_n, num_queries);
  BenchJson json;
  json.AddMeta("bench", "leaf_width");
  json.AddMeta("kd_n", std::to_string(kd_n));
  json.AddMeta("engine_n", std::to_string(engine_n));
  json.AddMeta("queries", std::to_string(num_queries));
  json.AddMeta("host_cores", std::to_string(cores));
  // Same caveat as the earlier trajectories: all cells here are
  // single-thread latencies, so a 1-core CI host reports them faithfully;
  // only wall-clock throughput cells (hotspot_*) scale with cores.
  json.AddMeta("note", "single-thread latency cells; hotspot wall/qps depend on host cores");
  json.AddMeta("default_leaf_size", std::to_string(KdBuildOptions().leaf_size));

  Table sweep({"leaf", "build ms", "nearest p50us", "nonzero p50us", "mc warm p50us",
               "nearest x8", "nonzero x8"});
  double base_nearest = 0, base_nonzero = 0;
  for (int width : kWidths) {
    WidthCell cell = RunWidth(width, kd_n, engine_n, num_queries, mc_rounds);
    if (width == 8) {
      base_nearest = cell.nearest.p50;
      base_nonzero = cell.nonzero.p50;
    }
    double sx_nearest = cell.nearest.p50 > 0 ? base_nearest / cell.nearest.p50 : 0;
    double sx_nonzero = cell.nonzero.p50 > 0 ? base_nonzero / cell.nonzero.p50 : 0;
    sweep.AddRow({std::to_string(width), Table::Num(cell.build_ms, 2),
                  Table::Num(cell.nearest.p50, 4), Table::Num(cell.nonzero.p50, 4),
                  Table::Num(cell.mc_warm.p50, 4), Table::Num(sx_nearest, 2),
                  Table::Num(sx_nonzero, 2)});
    json.Add("w" + std::to_string(width),
             {{"build_ms", cell.build_ms},
              {"nearest_p50_micros", cell.nearest.p50},
              {"nearest_p99_micros", cell.nearest.p99},
              {"nonzero_p50_micros", cell.nonzero.p50},
              {"nonzero_p99_micros", cell.nonzero.p99},
              {"mc_warm_p50_micros", cell.mc_warm.p50},
              {"mc_warm_p99_micros", cell.mc_warm.p99},
              {"nearest_speedup_vs_w8", sx_nearest},
              {"nonzero_speedup_vs_w8", sx_nonzero}});
  }
  sweep.Print();

  std::printf("\n# Answer cache: miss vs hit p50 on one snapshot (MC plan, %d rounds)\n",
              mc_rounds);
  Table hitmiss({"query", "miss p50us", "hit p50us", "miss/hit"});
  RunHitMiss(engine_n, mc_rounds, &hitmiss, &json);
  hitmiss.Print();

  std::printf("\n# Hot-spot mixed stream (repeat_fraction=0.6), cache off vs on\n");
  Table hotspot({"cell", "wall ms", "qps", "p50us", "hits", "misses"});
  RunHotspot(quick ? 512 : 2048, quick ? 1024 : 4096, &hotspot, &json);
  hotspot.Print();

  if (json_path != nullptr) {
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 2;
    }
    std::printf("\nwrote %s\n", json_path);
  }
  std::printf("\nShape note: nearest/nonzero p50 should dip at the default width "
              "(lane-filling leaf rows) and build time should fall as width grows "
              "(fewer splits); cache hit p50 should sit far below miss p50.\n");
  return 0;
}

}  // namespace
}  // namespace pnn

int main(int argc, char** argv) {
  bool quick = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  return pnn::Run(quick, json_path);
}
