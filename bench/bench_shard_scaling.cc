// Shard-router scaling: the same hotspot-churn mixed stream (arrivals
// clustered on a moving hotspot + departures + NN!=0 / quantify queries)
// through pnn::shard::ShardedEngine at increasing shard counts, with
// background maintenance and auto-rebalance on a shared pool and query
// runs fanned out by exec::BatchEngine. Reports ops/sec, query/update
// latency percentiles, rebalance activity, and the speedup over the
// 1-shard configuration; optionally emits JSON (the CI bench trajectory).
//
//   ./bench_shard_scaling [--quick] [--json PATH] [n] [ops]
//
// NOTE: shard scaling is a concurrency play — on a 1-core host the curve
// is flat (the recombination overhead even costs a few percent); the
// headline numbers need a multi-core machine. The JSON records
// host_cores so trajectories are comparable.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/batch_engine.h"
#include "src/shard/sharded_engine.h"
#include "src/util/bench_json.h"
#include "src/util/table.h"
#include "src/util/timer.h"
#include "src/workload/streaming.h"

namespace pnn {
namespace {

int Run(int n, int ops, const char* json_path) {
  size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  std::printf("# Shard-router scaling (pnn::shard::ShardedEngine, n=%d, %zu cores)\n",
              n, cores);
  BenchJson json;
  json.AddMeta("bench", "shard_scaling");
  json.AddMeta("n", std::to_string(n));
  json.AddMeta("ops", std::to_string(ops));
  json.AddMeta("host_cores", std::to_string(cores));

  Table table({"shards", "ops/s", "qry p50us", "qry p99us", "upd p50us", "rebal moves",
               "speedup"});
  double baseline_ops_per_sec = 0.0;
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    // Identical stream per configuration: answers are shard-count
    // invariant (the differential tests assert it), only timing moves.
    Rng rng(2024);
    StreamingChurnOptions sopt;
    sopt.initial = n;
    sopt.ops = ops;
    sopt.churn = 0.2;
    sopt.arrival_weight = 1.0;
    sopt.departure_weight = 1.0;
    sopt.drift_weight = 1.0;
    sopt.discrete = true;
    sopt.quantify_fraction = 0.3;
    sopt.span = 200.0;
    sopt.hotspot_fraction = 0.8;  // Drifting arrival hotspot: keeps any
    sopt.hotspot_sigma = 10.0;    // fixed partition lopsided.
    auto full = GenerateStreamingChurn(sopt, &rng);
    std::vector<exec::MixedOp> setup(full.begin(), full.begin() + n);
    std::vector<exec::MixedOp> stream(full.begin() + n, full.end());

    exec::ThreadPool pool(cores);
    shard::Options ropt;
    ropt.num_shards = shards;
    ropt.placement = shard::PlacementKind::kSpatialKdMedian;
    ropt.pool = &pool;
    ropt.auto_rebalance = true;
    ropt.rebalance_min_points = 256;
    ropt.rebalance_max_imbalance = 1.5;
    shard::ShardedEngine engine(ropt);

    exec::BatchOptions bopt;
    bopt.num_threads = cores;
    exec::BatchEngine batch(api::EngineRef(&engine), bopt);
    batch.RequestBatch(exec::ToRequests(setup, 0.1));  // Bulk fill, untimed.
    engine.WaitForMaintenance();

    Timer t;
    auto result = batch.RequestBatch(exec::ToRequests(stream, 0.1));
    double seconds = t.Seconds();
    engine.WaitForMaintenance();
    const exec::BatchStats& s = result.stats;
    double ops_per_sec =
        seconds > 0 ? static_cast<double>(stream.size()) / seconds : 0.0;
    if (shards == 1) baseline_ops_per_sec = ops_per_sec;
    double speedup =
        baseline_ops_per_sec > 0 ? ops_per_sec / baseline_ops_per_sec : 0.0;
    shard::RebalanceStats rs = engine.rebalance_stats();

    table.AddRow({Table::Int(static_cast<int>(shards)), Table::Num(ops_per_sec, 0),
                  Table::Num(s.p50_micros, 1), Table::Num(s.p99_micros, 1),
                  Table::Num(s.update_p50_micros, 1),
                  Table::Int(static_cast<int>(rs.points_moved)),
                  Table::Num(speedup, 2)});
    char name[32];
    std::snprintf(name, sizeof(name), "shards_%u", shards);
    json.Add(name,
             {{"shards", static_cast<double>(shards)},
              {"stream_ops", static_cast<double>(stream.size())},
              {"ops_per_sec", ops_per_sec},
              {"query_p50_micros", s.p50_micros},
              {"query_p99_micros", s.p99_micros},
              {"update_p50_micros", s.update_p50_micros},
              {"update_p99_micros", s.update_p99_micros},
              {"spiral_plans", static_cast<double>(s.spiral_plans)},
              {"monte_carlo_plans", static_cast<double>(s.monte_carlo_plans)},
              {"rebalance_passes", static_cast<double>(rs.passes)},
              {"rebalance_points_moved", static_cast<double>(rs.points_moved)},
              {"speedup_vs_1_shard", speedup}});
  }
  table.Print();

  if (json_path != nullptr) {
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 2;
    }
    std::printf("\nwrote %s\n", json_path);
  }
  std::printf("\nShape note: flat curve expected on few-core hosts; compare "
              "trajectories at equal host_cores.\n");
  return 0;
}

}  // namespace
}  // namespace pnn

int main(int argc, char** argv) {
  int n = 20000, ops = 8000;
  const char* json_path = nullptr;
  std::vector<int> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      n = 4000;
      ops = 2000;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      positional.push_back(std::atoi(argv[i]));
    }
  }
  if (!positional.empty()) n = positional[0];
  if (positional.size() > 1) ops = positional[1];
  if (n <= 0 || ops <= 0) {
    std::fprintf(stderr, "usage: %s [--quick] [--json PATH] [n] [ops]\n", argv[0]);
    return 2;
  }
  return pnn::Run(n, ops, json_path);
}
