// Concurrency of the background builds: queries from several threads race
// a dynamic engine's pooled merges and compactions, and the shard router's
// shards race each other's maintenance on one shared pool. Run under
// ThreadSanitizer in CI (the PNN_SANITIZE_THREAD build) to certify the
// plan/build/splice publish protocol; the assertions here pin down basic
// sanity of answers read mid-build.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/dyn/dynamic_engine.h"
#include "src/exec/thread_pool.h"
#include "src/shard/sharded_engine.h"

namespace pnn {
namespace {

UncertainPoint RacePoint(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 3));
  std::vector<Point2> locs(k);
  std::vector<double> w(k);
  double total = 0;
  for (int s = 0; s < k; ++s) {
    locs[s] = {rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
    w[s] = rng->Uniform(0.2, 1.0);
    total += w[s];
  }
  for (int s = 0; s < k; ++s) w[s] /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

TEST(PooledBuildRace, QueriesRacePooledCompactions) {
  exec::ThreadPool pool(3);
  dyn::Options opt;
  opt.engine.mc_rounds_override = 16;
  opt.tail_limit = 16;
  opt.max_dead_fraction = 0.25;
  opt.pool = &pool;
  opt.prewarm_after_build = true;
  dyn::DynamicEngine engine(opt);

  Rng seed_rng(611);
  std::vector<dyn::Id> warm;
  for (int i = 0; i < 64; ++i) warm.push_back(engine.Insert(RacePoint(&seed_rng)));
  engine.WaitForMaintenance();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(613);
    std::vector<dyn::Id> live = warm;
    for (int op = 0; op < 1200; ++op) {
      if (live.size() < 40 || rng.Bernoulli(0.55)) {
        live.push_back(engine.Insert(RacePoint(&rng)));
      } else {
        size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
        engine.Erase(live[pick]);
        live.erase(live.begin() + static_cast<long>(pick));
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  std::atomic<size_t> queries_done{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(617 + t);
      std::vector<Quantification> quant;
      std::vector<dyn::Id> nn;
      while (!stop.load()) {
        Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
        engine.View()->NonzeroNNInto(q, &nn);
        for (size_t i = 1; i < nn.size(); ++i) EXPECT_LT(nn[i - 1], nn[i]);
        engine.View()->QuantifyInto(q, 0.2, &quant);
        double sum = 0;
        for (const auto& e : quant) sum += e.probability;
        EXPECT_LE(sum, 1.0 + 1e-9);
        queries_done.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  engine.WaitForMaintenance();
  EXPECT_GT(queries_done.load(), 0u);
}

TEST(PooledBuildRace, ShardMaintenanceRacesEachOtherAndQueries) {
  exec::ThreadPool pool(3);
  shard::Options sopt;
  sopt.num_shards = 3;
  sopt.pool = &pool;
  sopt.auto_rebalance = true;
  sopt.rebalance_min_points = 64;
  sopt.shard.engine.mc_rounds_override = 12;
  sopt.shard.tail_limit = 12;
  shard::ShardedEngine engine(sopt);

  Rng seed_rng(621);
  std::vector<dyn::Id> warm;
  for (int i = 0; i < 96; ++i) warm.push_back(engine.Insert(RacePoint(&seed_rng)));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(623);
    std::vector<dyn::Id> live = warm;
    for (int op = 0; op < 900; ++op) {
      if (live.size() < 60 || rng.Bernoulli(0.6)) {
        live.push_back(engine.Insert(RacePoint(&rng)));
      } else {
        size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
        engine.Erase(live[pick]);
        live.erase(live.begin() + static_cast<long>(pick));
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(627 + t);
      std::vector<Quantification> quant;
      std::vector<dyn::Id> nn;
      while (!stop.load()) {
        Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
        auto view = engine.View();
        view->NonzeroNNInto(q, &nn);
        view->QuantifyInto(q, 0.2, &quant);
        // Every reported id must be unique (the seqlock gather never
        // shows a mid-move point twice).
        for (size_t i = 1; i < nn.size(); ++i) EXPECT_LT(nn[i - 1], nn[i]);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  engine.WaitForMaintenance();
}

}  // namespace
}  // namespace pnn
