// Batch executor scaling: 50k mixed queries (NonzeroNN + Quantify +
// ThresholdNN) through exec::BatchEngine at 1/2/4/8 threads, on a discrete
// and a continuous instance. Reports queries/sec, speedup over the
// 1-thread run, p50/p99 latency, and the spiral-vs-Monte-Carlo plan mix;
// verifies along the way that every thread count returns bit-identical
// results (the executor's determinism contract).

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/exec/batch_engine.h"
#include "src/util/table.h"
#include "src/util/timer.h"
#include "src/workload/generators.h"

namespace pnn {
namespace {

std::vector<Point2> MakeQueries(int count, double span, Rng* rng) {
  std::vector<Point2> out(count);
  for (auto& q : out) q = {rng->Uniform(-span, span), rng->Uniform(-span, span)};
  return out;
}

bool SameQuantifications(const std::vector<std::vector<Quantification>>& a,
                         const std::vector<std::vector<Quantification>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].index != b[i][j].index) return false;
      if (a[i][j].probability != b[i][j].probability) return false;
    }
  }
  return true;
}

struct MixResult {
  double seconds = 0.0;
  exec::BatchStats nn_stats, quantify_stats, threshold_stats;
  std::vector<std::vector<int>> nn;
  std::vector<std::vector<Quantification>> quantify;
  std::vector<std::vector<Quantification>> threshold;
};

MixResult RunMix(const Engine& engine, const std::vector<Point2>& nn_q,
                 const std::vector<Point2>& quant_q,
                 const std::vector<Point2>& thresh_q, size_t threads) {
  exec::BatchOptions opt;
  opt.num_threads = threads;
  exec::BatchEngine batch(api::EngineRef(&engine), opt);
  std::vector<api::QueryRequest> nn_r, quant_r, thresh_r;
  for (Point2 q : nn_q) nn_r.push_back(api::QueryRequest::NonzeroNN(q));
  for (Point2 q : quant_q) quant_r.push_back(api::QueryRequest::Quantify(q, 0.05));
  for (Point2 q : thresh_q) thresh_r.push_back(api::QueryRequest::ThresholdNN(q, 0.2, 0.05));
  MixResult out;
  Timer t;
  auto nn = batch.RequestBatch(nn_r);
  auto quant = batch.RequestBatch(quant_r);
  auto thresh = batch.RequestBatch(thresh_r);
  out.seconds = t.Seconds();
  out.nn_stats = nn.stats;
  out.quantify_stats = quant.stats;
  out.threshold_stats = thresh.stats;
  for (api::QueryResponse& r : nn.values) out.nn.push_back(std::move(r.ids));
  for (api::QueryResponse& r : quant.values) out.quantify.push_back(std::move(r.quants));
  for (api::QueryResponse& r : thresh.values) out.threshold.push_back(std::move(r.quants));
  return out;
}

bool BenchInstance(const char* name, const Engine& engine, Rng* rng, int total_queries) {
  // 60% NonzeroNN, 30% Quantify, 10% ThresholdNN.
  double span = 30.0;
  auto nn_q = MakeQueries(total_queries * 6 / 10, span, rng);
  auto quant_q = MakeQueries(total_queries * 3 / 10, span, rng);
  auto thresh_q = MakeQueries(total_queries / 10, span, rng);
  engine.Prewarm(0.05);  // Keep structure construction out of the timings.

  std::printf(
      "\n### %s — %d mixed queries (60%% NN!=0, 30%% quantify, 10%% threshold)\n",
      name, total_queries);
  std::printf(
      "plan mix per quantify batch: %zu spiral, %zu Monte-Carlo (MC rounds: %zu)\n\n",
              engine.PlanForQuantify(0.05) == QuantifyPlan::kSpiral ? quant_q.size() : 0,
              engine.PlanForQuantify(0.05) == QuantifyPlan::kSpiral ? size_t{0}
                                                                    : quant_q.size(),
              engine.MonteCarloRounds());

  Table table({"threads", "total s", "queries/s", "speedup", "nn p50us", "nn p99us",
               "quant p50us", "quant p99us"});
  MixResult base;
  bool deterministic = true;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    MixResult r = RunMix(engine, nn_q, quant_q, thresh_q, threads);
    if (threads == 1u) {
      base = std::move(r);
      table.AddRow({Table::Int(1), Table::Num(base.seconds, 3),
                    Table::Num(total_queries / base.seconds, 0), Table::Num(1.0, 2),
                    Table::Num(base.nn_stats.p50_micros, 2),
                    Table::Num(base.nn_stats.p99_micros, 2),
                    Table::Num(base.quantify_stats.p50_micros, 2),
                    Table::Num(base.quantify_stats.p99_micros, 2)});
      continue;
    }
    deterministic = deterministic && r.nn == base.nn &&
                    SameQuantifications(r.quantify, base.quantify) &&
                    SameQuantifications(r.threshold, base.threshold);
    table.AddRow({Table::Int(static_cast<int>(threads)), Table::Num(r.seconds, 3),
                  Table::Num(total_queries / r.seconds, 0),
                  Table::Num(base.seconds / r.seconds, 2),
                  Table::Num(r.nn_stats.p50_micros, 2),
                  Table::Num(r.nn_stats.p99_micros, 2),
                  Table::Num(r.quantify_stats.p50_micros, 2),
                  Table::Num(r.quantify_stats.p99_micros, 2)});
  }
  table.Print();
  std::printf("determinism check (all thread counts vs 1 thread): %s\n",
              deterministic ? "PASS (bit-identical)" : "FAIL");
  return deterministic;
}

int Run(int total_queries) {
  Rng rng(4242);

  // Discrete instance: spiral-plan quantifications.
  auto locs = RandomDiscreteLocations(2000, 4, 150, 3, &rng);
  Engine discrete(ToUniformUncertain(locs));
  bool ok = BenchInstance("discrete n=2000 k=4", discrete, &rng, total_queries);

  // Continuous instance: Monte-Carlo-plan quantifications.
  UncertainSet disks;
  Rng disk_rng(777);
  for (const auto& d : RandomDisks(400, 40, 0.5, 2.0, &disk_rng)) {
    disks.push_back(UncertainPoint::UniformDisk(d.center, d.radius));
  }
  Engine::Options eopt;
  eopt.seed = 9;
  eopt.mc_rounds_override = 400;  // Keep the structure small; Query cost dominates.
  Engine continuous(std::move(disks), eopt);
  ok = BenchInstance("continuous n=400 (MC)", continuous, &rng, total_queries) && ok;

  std::printf("\nShape check: queries/s should scale with threads until the "
              "core count; speedup at 4 threads is the headline number.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pnn

int main(int argc, char** argv) {
  int total = 50000;
  if (argc > 1) {
    total = std::atoi(argv[1]);
    if (total <= 0) {
      std::fprintf(stderr, "usage: %s [num_queries]   (num_queries > 0, default 50000)\n",
                   argv[0]);
      return 2;
    }
  }
  std::printf("# Batch executor throughput scaling (exec::BatchEngine)\n");
  return pnn::Run(total);
}
