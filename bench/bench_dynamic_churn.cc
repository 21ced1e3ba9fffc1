// Dynamic engine churn throughput: interleaved update/query streams
// (arrival + departure + drift churn against NN!=0 queries) through
// pnn::dyn::DynamicEngine at several churn ratios, versus the only option
// the static engine offers — rebuilding the whole Engine on every update.
// Reports ops/sec, update/query latency percentiles and the speedup, and
// optionally emits the results as JSON (the CI bench trajectory).
//
//   ./bench_dynamic_churn [--quick] [--no-gate] [--json PATH] [n] [ops]
//
// Exits nonzero when the speedup over the baseline falls below 10x at any
// churn ratio (the acceptance bar); --no-gate reports without failing, for
// trajectory sampling on noisy CI runners.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/dyn/dynamic_engine.h"
#include "src/exec/batch_engine.h"
#include "src/util/bench_json.h"
#include "src/util/table.h"
#include "src/util/timer.h"
#include "src/workload/streaming.h"

namespace pnn {
namespace {

struct BaselineResult {
  double seconds = 0.0;
  size_t ops = 0;
  size_t rebuilds = 0;
};

// Rebuild-per-update baseline: a static Engine is reconstructed from
// scratch whenever the set changes, which is what DynamicEngine replaces.
BaselineResult RunRebuildBaseline(const std::vector<exec::MixedOp>& setup,
                                  const std::vector<exec::MixedOp>& stream,
                                  size_t max_ops) {
  std::map<dyn::Id, UncertainPoint> live;
  dyn::Id next_id = 0;
  for (const auto& op : setup) live.emplace(next_id++, *op.point);

  auto build = [&] {
    UncertainSet pts;
    pts.reserve(live.size());
    for (const auto& [id, p] : live) pts.push_back(p);
    return std::make_unique<Engine>(std::move(pts));
  };
  std::unique_ptr<Engine> engine = build();

  BaselineResult out;
  Timer t;
  for (const auto& op : stream) {
    if (out.ops == max_ops) break;
    ++out.ops;
    switch (op.kind) {
      case exec::MixedOp::Kind::kInsert:
        live.emplace(next_id++, *op.point);
        engine = build();
        ++out.rebuilds;
        break;
      case exec::MixedOp::Kind::kErase:
        live.erase(op.id);
        engine = build();
        ++out.rebuilds;
        break;
      default:
        engine->NonzeroNN(op.q);
        break;
    }
  }
  out.seconds = t.Seconds();
  return out;
}

int Run(int n, int ops, int baseline_ops, const char* json_path, bool gate) {
  std::printf("# Dynamic churn throughput (pnn::dyn::DynamicEngine, n=%d)\n", n);
  BenchJson json;
  json.AddMeta("bench", "dynamic_churn");
  json.AddMeta("n", std::to_string(n));
  json.AddMeta("ops", std::to_string(ops));
  json.AddMeta("host_cores",
               std::to_string(std::max<size_t>(1, std::thread::hardware_concurrency())));

  Table table({"churn", "ops", "dyn ops/s", "upd p50us", "upd p99us", "qry p50us",
               "rebuild ops/s", "speedup"});
  bool all_fast = true;
  for (double churn : {0.05, 0.2, 0.5}) {
    Rng rng(8080 + static_cast<uint64_t>(churn * 100));
    StreamingChurnOptions sopt;
    sopt.initial = n;
    sopt.ops = ops;
    sopt.churn = churn;
    sopt.arrival_weight = 1.0;
    sopt.departure_weight = 1.0;
    sopt.drift_weight = 1.0;
    sopt.span = 200.0;
    auto full = GenerateStreamingChurn(sopt, &rng);
    std::vector<exec::MixedOp> setup(full.begin(), full.begin() + n);
    std::vector<exec::MixedOp> stream(full.begin() + n, full.end());

    dyn::DynamicEngine dynamic;
    exec::BatchOptions bopt;
    bopt.num_threads = 1;  // Single-thread ops/sec; parallelism is bonus.
    exec::BatchEngine batch(api::EngineRef(&dynamic), bopt);
    batch.RequestBatch(exec::ToRequests(setup));  // Bulk fill, untimed on both sides.
    auto result = batch.RequestBatch(exec::ToRequests(stream));
    const exec::BatchStats& s = result.stats;
    double dyn_ops_per_sec =
        s.wall_seconds > 0 ? static_cast<double>(stream.size()) / s.wall_seconds : 0;

    BaselineResult base =
        RunRebuildBaseline(setup, stream, static_cast<size_t>(baseline_ops));
    double base_ops_per_sec =
        base.seconds > 0 ? static_cast<double>(base.ops) / base.seconds : 0;
    double speedup = base_ops_per_sec > 0 ? dyn_ops_per_sec / base_ops_per_sec : 0;
    all_fast = all_fast && speedup >= 10.0;

    table.AddRow({Table::Num(churn, 2), Table::Int(static_cast<int>(stream.size())),
                  Table::Num(dyn_ops_per_sec, 0), Table::Num(s.update_p50_micros, 1),
                  Table::Num(s.update_p99_micros, 1), Table::Num(s.p50_micros, 1),
                  Table::Num(base_ops_per_sec, 0), Table::Num(speedup, 1)});
    char name[32];
    std::snprintf(name, sizeof(name), "churn_%.2f", churn);
    json.Add(name,
             {{"n", static_cast<double>(n)},
              {"stream_ops", static_cast<double>(stream.size())},
              {"dyn_ops_per_sec", dyn_ops_per_sec},
              {"dyn_update_p50_micros", s.update_p50_micros},
              {"dyn_update_p99_micros", s.update_p99_micros},
              {"dyn_query_p50_micros", s.p50_micros},
              {"dyn_query_p99_micros", s.p99_micros},
              {"rebuild_ops_per_sec", base_ops_per_sec},
              {"rebuild_ops_measured", static_cast<double>(base.ops)},
              {"speedup", speedup}});
  }
  table.Print();

  // Full-surface sample at small n: quantify/threshold queries mixed in
  // (spiral plan over discrete points), exercising the merge paths the
  // NN!=0 stream above does not.
  {
    Rng rng(9090);
    StreamingChurnOptions sopt;
    sopt.initial = 2000;
    sopt.ops = 2000;
    sopt.churn = 0.2;
    sopt.drift_weight = 1.0;
    sopt.discrete = true;
    sopt.quantify_fraction = 0.3;
    sopt.tau = -1.0;
    auto full = GenerateStreamingChurn(sopt, &rng);
    std::vector<exec::MixedOp> setup(full.begin(), full.begin() + sopt.initial);
    std::vector<exec::MixedOp> stream(full.begin() + sopt.initial, full.end());
    dyn::DynamicEngine dynamic;
    exec::BatchEngine batch(api::EngineRef(&dynamic), exec::BatchOptions{1, 32});
    batch.RequestBatch(exec::ToRequests(setup));
    auto result = batch.RequestBatch(exec::ToRequests(stream, 0.1));
    const exec::BatchStats& s = result.stats;
    double ops_per_sec =
        s.wall_seconds > 0 ? static_cast<double>(stream.size()) / s.wall_seconds : 0;
    std::printf("\nquantify mix (discrete n=2000, 20%% churn, 30%% quantify): "
                "%.0f ops/s, quantify plans: %zu spiral / %zu MC\n",
                ops_per_sec, s.spiral_plans, s.monte_carlo_plans);
    json.Add("quantify_mix_n2000",
             {{"ops_per_sec", ops_per_sec},
              {"spiral_plans", static_cast<double>(s.spiral_plans)},
              {"monte_carlo_plans", static_cast<double>(s.monte_carlo_plans)},
              {"query_p50_micros", s.p50_micros},
              {"update_p50_micros", s.update_p50_micros}});
  }

  if (json_path != nullptr) {
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 2;
    }
    std::printf("\nwrote %s\n", json_path);
  }
  std::printf("\nShape check: speedup >= 10x at every churn ratio is the "
              "acceptance bar: %s%s\n",
              all_fast ? "PASS" : "FAIL", gate ? "" : " (gate disabled)");
  return all_fast || !gate ? 0 : 1;
}

}  // namespace
}  // namespace pnn

int main(int argc, char** argv) {
  int n = 50000, ops = 20000, baseline_ops = 200;
  const char* json_path = nullptr;
  bool gate = true;
  std::vector<int> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      n = 5000;
      ops = 4000;
      baseline_ops = 100;
    } else if (std::strcmp(argv[i], "--no-gate") == 0) {
      gate = false;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      positional.push_back(std::atoi(argv[i]));
    }
  }
  if (!positional.empty()) n = positional[0];
  if (positional.size() > 1) ops = positional[1];
  if (n <= 0 || ops <= 0) {
    std::fprintf(stderr, "usage: %s [--quick] [--no-gate] [--json PATH] [n] [ops]\n",
                 argv[0]);
    return 2;
  }
  return pnn::Run(n, ops, baseline_ops, json_path, gate);
}
