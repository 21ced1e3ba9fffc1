// Concurrency tests for pnn::dyn::DynamicEngine: queries from several
// threads race updates and the background bucket merges / compactions they
// trigger. Run under ThreadSanitizer in CI (the PNN_SANITIZE=thread build)
// to certify the snapshot swap protocol; assertions here pin down basic
// sanity of answers read mid-rebuild.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/dyn/dynamic_engine.h"
#include "src/exec/thread_pool.h"

namespace pnn {
namespace dyn {
namespace {

TEST(DynamicEngineRace, QueriesRaceBackgroundMerges) {
  exec::ThreadPool pool(2);
  Options opt;
  opt.engine.mc_rounds_override = 24;
  opt.tail_limit = 16;
  opt.max_dead_fraction = 0.3;
  opt.pool = &pool;
  DynamicEngine engine(opt);

  // Seed enough points that queries always have something to read.
  Rng seed_rng(71);
  std::vector<Id> warm;
  for (int i = 0; i < 64; ++i) {
    warm.push_back(engine.Insert(UncertainPoint::UniformDisk(
        {seed_rng.Uniform(-30, 30), seed_rng.Uniform(-30, 30)},
        seed_rng.Uniform(0.5, 2.0))));
  }
  engine.WaitForMaintenance();

  std::atomic<bool> stop{false};
  std::atomic<size_t> queries_done{0};

  // Writer: churns hard enough to keep merges and compactions in flight.
  std::thread writer([&] {
    Rng rng(73);
    std::vector<Id> live = warm;
    for (int op = 0; op < 1500; ++op) {
      if (live.size() < 40 || rng.Bernoulli(0.6)) {
        live.push_back(engine.Insert(UncertainPoint::UniformDisk(
            {rng.Uniform(-30, 30), rng.Uniform(-30, 30)}, rng.Uniform(0.5, 2.0))));
      } else {
        size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
        engine.Erase(live[pick]);
        live.erase(live.begin() + static_cast<long>(pick));
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop.load()) {
        Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
        std::vector<Id> nn = engine.View()->NonzeroNN(q);
        // Whatever snapshot the query read, results are sorted unique ids.
        for (size_t i = 1; i < nn.size(); ++i) EXPECT_LT(nn[i - 1], nn[i]);
        auto quant = engine.View()->Quantify(q, 0.2);
        double total = 0.0;
        for (const auto& e : quant) {
          EXPECT_GE(e.probability, 0.0);
          EXPECT_LE(e.probability, 1.0);
          total += e.probability;
        }
        // Monte-Carlo counts partition the rounds exactly.
        if (!quant.empty()) {
          EXPECT_NEAR(total, 1.0, 1e-9);
        }
        queries_done.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  engine.WaitForMaintenance();
  EXPECT_GT(queries_done.load(), 0u);

  // The structure settles to a consistent final state.
  std::vector<Id> ids;
  UncertainSet live = engine.LiveSet(&ids);
  EXPECT_EQ(live.size(), engine.live_size());
  Engine reference(live, engine.ReferenceEngineOptions());
  Point2 q{0, 0};
  std::vector<Id> got = engine.View()->NonzeroNN(q);
  std::vector<Id> want;
  for (int i : reference.NonzeroNN(q)) want.push_back(ids[i]);
  EXPECT_EQ(got, want);
}

TEST(DynamicEngineRace, ConcurrentErasersAgreeOnWinner) {
  // Two threads racing to erase the same ids: exactly one Erase(id) may
  // succeed per id, and the survivor count must reflect every success.
  DynamicEngine engine;
  Rng rng(77);
  std::vector<Id> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(engine.Insert(UncertainPoint::UniformDisk(
        {rng.Uniform(-20, 20), rng.Uniform(-20, 20)}, 1.0)));
  }
  std::atomic<int> successes{0};
  std::vector<std::thread> erasers;
  for (int t = 0; t < 2; ++t) {
    erasers.emplace_back([&] {
      for (Id id : ids) {
        if (engine.Erase(id)) successes.fetch_add(1);
      }
    });
  }
  for (auto& e : erasers) e.join();
  engine.WaitForMaintenance();
  EXPECT_EQ(successes.load(), 200);
  EXPECT_EQ(engine.live_size(), 0u);
}

}  // namespace
}  // namespace dyn
}  // namespace pnn
