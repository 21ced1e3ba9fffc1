// Query hot-path cost: cold (first query after an update — the snapshot
// cache, combined view and tail samples were just invalidated) versus
// warm-cache (repeated queries against an unchanged live set) p50/p99 for
// Quantify on the dynamic engine and the shard router, under both plans
// (spiral and Monte Carlo), plus the combined-snapshot cache hit rate and
// heap allocations per steady-state query from the counting hook
// (util/alloc_hook.h). Emits the BENCH_pr4.json trajectory.
//
//   ./bench_query_hotpath [--quick] [--json PATH] [n] [queries]
//
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
