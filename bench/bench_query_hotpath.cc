// Query hot-path cost: cold (first query after an update — the snapshot
// cache, combined view and tail samples were just invalidated) versus
// warm-cache (repeated queries against an unchanged live set) p50/p99 for
// Quantify on the dynamic engine and the shard router, under both plans
// (spiral and Monte Carlo), plus the combined-snapshot cache hit rate and
// heap allocations per steady-state query from the counting hook
// (util/alloc_hook.h). Then QuantifyExact p50/p99 on the static engine,
// the dynamic engine and the shard router over one live set, discrete and
// continuous, each query point asked once per backend so no answer cache
// can hit. Emits the BENCH_pr4.json trajectory.
//
//   ./bench_query_hotpath [--quick] [--json PATH] [n] [queries]
//
// Exits 1 if the three backends' QuantifyExact answers differ in any bit.
// The zero-allocation claim is asserted by tests/alloc_hotpath_test.cc;
// here it is reported as allocs/query so the trajectory catches
// regressions in Release mode too.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/dyn/dynamic_engine.h"
#include "src/shard/sharded_engine.h"
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

// Uniform disks: a truncated Gaussian's cdf is itself a quadrature, which
// makes an exact query cost tens of milliseconds.
UncertainPoint RandomDisk(Rng* rng) {
  Point2 c{rng->Uniform(-100, 100), rng->Uniform(-100, 100)};
  return UncertainPoint::UniformDisk(c, rng->Uniform(0.5, 2.0));
}

// Bitwise: index for index, probability bits for probability bits.
bool SameAnswer(const std::vector<Quantification>& a,
                const std::vector<Quantification>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index ||
        std::memcmp(&a[i].probability, &b[i].probability, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// QuantifyExact on the static engine, the dynamic engine and a 4-shard
// router over one live set (the two mutable backends churned alike, so
// they hold buckets and a live tail). Every query point is asked once per
// backend, after an untimed pass over other points. Returns the number of
// queries whose three answers differ in any bit.
size_t RunExactCells(const char* family, UncertainPoint (*make)(Rng*), int n,
                     int num_queries, Rng* rng, Table* table, BenchJson* json) {
  UncertainSet initial;
  for (int i = 0; i < n; ++i) initial.push_back(make(rng));
  dyn::Options dopt;
  dyn::DynamicEngine dynamic(initial, dopt);
  shard::Options sopt;
  sopt.num_shards = 4;
  sopt.shard = dopt;
  shard::ShardedEngine sharded(initial, sopt);
  for (int i = 0; i < n / 10; ++i) {
    dynamic.Erase(static_cast<dyn::Id>(i * 7 % n));
    sharded.Erase(static_cast<dyn::Id>(i * 7 % n));
    UncertainPoint p = make(rng);
    dynamic.Insert(p);
    sharded.Insert(p);
  }
  dynamic.WaitForMaintenance();
  sharded.WaitForMaintenance();
  std::vector<dyn::Id> ids;
  Engine reference(dynamic.LiveSet(&ids), dynamic.ReferenceEngineOptions());

  std::vector<Point2> warmup(num_queries), queries(num_queries);
  for (auto* qs : {&warmup, &queries}) {
    for (Point2& q : *qs) q = {rng->Uniform(-110, 110), rng->Uniform(-110, 110)};
  }
  const char* backends[] = {"static", "dyn", "shard"};
  auto ask = [&](int backend, Point2 q) {
    if (backend == 1) return dynamic.View()->QuantifyExact(q);
    if (backend == 2) return sharded.View()->QuantifyExact(q);
    std::vector<Quantification> out = reference.QuantifyExact(q);
    for (Quantification& e : out) e.index = ids[e.index];
    return out;
  };
  std::vector<std::vector<Quantification>> answers[3];
  for (int b = 0; b < 3; ++b) {
    for (Point2 q : warmup) ask(b, q);
    std::vector<double> lat;
    for (Point2 q : queries) {
      Timer t;
      answers[b].push_back(ask(b, q));
      lat.push_back(t.Micros());
    }
    double p50 = Percentile(&lat, 50.0), p99 = Percentile(&lat, 99.0);
    std::string name = std::string("exact_") + backends[b] + "_" + family;
    table->AddRow({name, Table::Num(p50, 4), Table::Num(p99, 4)});
    json->Add(name, {{"p50_micros", p50}, {"p99_micros", p99}});
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    mismatches += !SameAnswer(answers[0][i], answers[1][i]) ||
                  !SameAnswer(answers[0][i], answers[2][i]);
  }
  return mismatches;
}

struct Phase {
  double p50 = 0, p99 = 0;
  double allocs_per_query = 0;
  double hit_rate = -1;  // Shard engines only.
};

// One engine x plan cell: cold = each query preceded by an insert+erase
// round trip (same live set, fresh snapshots everywhere), warm = repeated
// queries against the untouched engine.
template <typename EngineT>
void RunCell(EngineT* engine, const std::vector<Point2>& queries, double eps,
             const UncertainPoint& churn_point, Phase* cold, Phase* warm,
             Table* table, const char* name, BenchJson* json) {
  std::vector<Quantification> out;
  std::vector<double> lat;
  lat.reserve(queries.size());

  // Cold: invalidate, then time the first query against the new state.
  int64_t a0 = util::AllocationCount();
  for (Point2 q : queries) {
    dyn::Id id = engine->Insert(churn_point);
    engine->Erase(id);
    Timer t;
    engine->View()->QuantifyInto(q, eps, &out);
    lat.push_back(t.Micros());
  }
  cold->allocs_per_query =
      static_cast<double>(util::AllocationCount() - a0) /
      static_cast<double>(queries.size());
  cold->p50 = Percentile(&lat, 50.0);
  cold->p99 = Percentile(&lat, 99.0);

  // Warm: one untimed pass settles every cache and scratch capacity, then
  // the timed pass runs allocation-free against the same snapshots.
  for (Point2 q : queries) engine->View()->QuantifyInto(q, eps, &out);
  lat.clear();
  a0 = util::AllocationCount();
  for (Point2 q : queries) {
    Timer t;
    engine->View()->QuantifyInto(q, eps, &out);
    lat.push_back(t.Micros());
  }
  warm->allocs_per_query =
      static_cast<double>(util::AllocationCount() - a0) /
      static_cast<double>(queries.size());
  warm->p50 = Percentile(&lat, 50.0);
  warm->p99 = Percentile(&lat, 99.0);

  double ratio = warm->p50 > 0 ? cold->p50 / warm->p50 : 0.0;
  table->AddRow({std::string(name), Table::Num(cold->p50, 4), Table::Num(cold->p99, 4),
                 Table::Num(warm->p50, 4), Table::Num(warm->p99, 4),
                 Table::Num(ratio, 3), Table::Num(warm->allocs_per_query, 2)});
  for (const auto* phase : {cold, warm}) {
    std::string entry = std::string(name) + (phase == cold ? "_cold" : "_warm");
    std::vector<std::pair<std::string, double>> metrics = {
        {"p50_micros", phase->p50},
        {"p99_micros", phase->p99},
        {"allocs_per_query", phase->allocs_per_query}};
    if (phase->hit_rate >= 0) metrics.push_back({"cache_hit_rate", phase->hit_rate});
    json->Add(entry, metrics);
  }
}

int Run(int n, int num_queries, const char* json_path) {
  size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  std::printf("# Query hot path: cold vs warm-cache Quantify (n=%d, %d queries)\n", n,
              num_queries);
  BenchJson json;
  json.AddMeta("bench", "query_hotpath");
  json.AddMeta("n", std::to_string(n));
  json.AddMeta("queries", std::to_string(num_queries));
  json.AddMeta("host_cores", std::to_string(cores));

  Rng rng(4242);
  UncertainSet initial;
  for (int i = 0; i < n; ++i) initial.push_back(RandomDiscrete(&rng));
  std::vector<Point2> queries(num_queries);
  for (auto& q : queries) q = {rng.Uniform(-110, 110), rng.Uniform(-110, 110)};
  UncertainPoint churn_point = RandomDiscrete(&rng);

  Table table({"cell", "cold p50us", "cold p99us", "warm p50us", "warm p99us",
               "cold/warm", "warm allocs/q"});
  double eps = 0.1;
  for (bool mc : {false, true}) {
    dyn::Options dopt;
    dopt.prewarm_after_build = true;
    if (mc) {
      // Force the Monte-Carlo plan with a bounded round count so the cell
      // isolates the per-query sampling/argmin cost.
      dopt.engine.spiral_budget_fraction = 1e-9;
      dopt.engine.mc_rounds_override = 128;
    }

    {
      dyn::DynamicEngine engine(initial, dopt);
      // Churn so the structure has several buckets plus a live tail — the
      // shape a long-running server actually queries.
      for (int i = 0; i < n / 10; ++i) {
        engine.Erase(static_cast<dyn::Id>(i * 7 % n));
        engine.Insert(RandomDiscrete(&rng));
      }
      engine.View()->Prewarm(eps);
      Phase cold, warm;
      RunCell(&engine, queries, eps, churn_point, &cold, &warm, &table,
              mc ? "dyn_mc" : "dyn_spiral", &json);
    }
    {
      shard::Options sopt;
      sopt.num_shards = 4;
      sopt.shard = dopt;
      shard::ShardedEngine engine(initial, sopt);
      for (int i = 0; i < n / 10; ++i) {
        engine.Erase(static_cast<dyn::Id>(i * 7 % n));
        engine.Insert(RandomDiscrete(&rng));
      }
      engine.Prewarm(eps);
      shard::SnapshotCacheStats s0 = engine.snapshot_cache_stats();
      Phase cold, warm;
      // Hit rates are attributed per phase below by sampling the counters
      // around RunCell's two passes; RunCell only fills latencies/allocs.
      RunCell(&engine, queries, eps, churn_point, &cold, &warm, &table,
              mc ? "shard_mc" : "shard_spiral", &json);
      shard::SnapshotCacheStats s1 = engine.snapshot_cache_stats();
      uint64_t lookups = (s1.hits - s0.hits) + (s1.misses - s0.misses);
      double hit_rate =
          lookups > 0 ? static_cast<double>(s1.hits - s0.hits) /
                            static_cast<double>(lookups)
                      : 0.0;
      json.Add(std::string(mc ? "shard_mc" : "shard_spiral") + "_cache",
               {{"hits", static_cast<double>(s1.hits - s0.hits)},
                {"misses", static_cast<double>(s1.misses - s0.misses)},
                {"hit_rate", hit_rate}});
      std::printf("%s snapshot cache: %llu hits / %llu misses (%.1f%% hit rate)\n",
                  mc ? "shard_mc" : "shard_spiral",
                  static_cast<unsigned long long>(s1.hits - s0.hits),
                  static_cast<unsigned long long>(s1.misses - s0.misses),
                  100.0 * hit_rate);
    }
  }
  table.Print();

  std::printf("\n# QuantifyExact: static vs dyn vs 4-shard, unique query points\n");
  Table exact({"cell", "p50us", "p99us"});
  size_t mismatches =
      RunExactCells("discrete", RandomDiscrete, n, num_queries, &rng, &exact, &json) +
      RunExactCells("continuous", RandomDisk, n, num_queries, &rng, &exact, &json);
  exact.Print();
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: %zu QuantifyExact queries differ across backends\n",
                 mismatches);
    return 1;
  }
  std::printf("QuantifyExact answers bit-identical across static, dyn and shard\n");

  if (json_path != nullptr) {
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 2;
    }
    std::printf("\nwrote %s\n", json_path);
  }
  std::printf("\nShape note: warm rows should show ~0 allocs/query and the MC "
              "cells a large cold/warm ratio (tail re-sampling + view rebuild "
              "dominate cold queries).\n");
  return 0;
}

}  // namespace
}  // namespace pnn

int main(int argc, char** argv) {
  int n = 20000, queries = 2000;
  const char* json_path = nullptr;
  std::vector<int> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      n = 4000;
      queries = 500;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      positional.push_back(std::atoi(argv[i]));
    }
  }
  if (!positional.empty()) n = positional[0];
  if (positional.size() > 1) queries = positional[1];
  if (n <= 0 || queries <= 0) {
    std::fprintf(stderr, "usage: %s [--quick] [--json PATH] [n] [queries]\n", argv[0]);
    return 2;
  }
  return pnn::Run(n, queries, json_path);
}
