// Concurrency tests for pnn::shard::ShardedEngine, written for the TSan CI
// job: updater threads (insert/erase), query threads (NonzeroNN/Quantify),
// and rebalance passes (inline and background) all race, exercising the
// seqlock snapshot gather against the only multi-shard mutation (the
// rebalance erase+reinsert move). Assertions are structural — answers are
// well-formed and the final state reconciles exactly against a fresh
// reference — since racing queries legitimately observe different
// interleavings.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/engine_ref.h"
#include "src/exec/thread_pool.h"
#include "src/shard/sharded_engine.h"
#include "src/util/rng.h"

namespace pnn {
namespace shard {
namespace {

UncertainPoint RacePoint(Rng* rng) {
  if (rng->Bernoulli(0.5)) {
    int k = static_cast<int>(rng->UniformInt(1, 3));
    std::vector<Point2> locs(k);
    std::vector<double> w(k, 1.0 / k);
    for (int s = 0; s < k; ++s) {
      locs[s] = {rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
    }
    return UncertainPoint::Discrete(std::move(locs), std::move(w));
  }
  return UncertainPoint::UniformDisk({rng->Uniform(-30, 30), rng->Uniform(-30, 30)},
                                     rng->Uniform(0.5, 3.0));
}

void RunRace(PlacementKind placement, bool auto_rebalance, uint64_t seed) {
  exec::ThreadPool pool(3);
  Options sopt;
  sopt.num_shards = 4;
  sopt.placement = placement;
  sopt.pool = &pool;
  sopt.auto_rebalance = auto_rebalance;
  sopt.rebalance_min_points = 48;
  sopt.rebalance_max_imbalance = 1.5;
  sopt.shard.tail_limit = 8;
  sopt.shard.engine.mc_rounds_override = 24;
  ShardedEngine engine(sopt);

  constexpr int kUpdaters = 2;
  constexpr int kQueriers = 2;
  constexpr int kOpsPerUpdater = 300;
  std::atomic<bool> done{false};
  std::atomic<long> live_delta{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kUpdaters; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed + static_cast<uint64_t>(t));
      std::vector<Id> mine;
      for (int op = 0; op < kOpsPerUpdater; ++op) {
        if (mine.empty() || rng.Bernoulli(0.6)) {
          mine.push_back(engine.Insert(RacePoint(&rng)));
          live_delta.fetch_add(1, std::memory_order_relaxed);
        } else {
          size_t pick = static_cast<size_t>(rng.UniformInt(0, mine.size() - 1));
          EXPECT_TRUE(engine.Erase(mine[pick]));
          live_delta.fetch_sub(1, std::memory_order_relaxed);
          mine.erase(mine.begin() + static_cast<long>(pick));
        }
      }
    });
  }
  for (int t = 0; t < kQueriers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed + 100 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
        std::vector<Id> nn = engine.NonzeroNN(q);
        // Well-formed: strictly ascending ids (each point exactly once —
        // the seqlock guarantee under concurrent rebalance moves).
        for (size_t i = 1; i < nn.size(); ++i) EXPECT_LT(nn[i - 1], nn[i]);
        std::vector<Quantification> quant = engine.Quantify(q, 0.25);
        double total = 0.0;
        for (size_t i = 0; i < quant.size(); ++i) {
          if (i > 0) {
            EXPECT_LT(quant[i - 1].index, quant[i].index);
          }
          EXPECT_GE(quant[i].probability, 0.0);
          EXPECT_LE(quant[i].probability, 1.0 + 1e-9);
          total += quant[i].probability;
        }
        EXPECT_LE(total, 1.0 + 1e-6);
      }
    });
  }
  // The main thread stirs in inline rebalance passes (legal concurrently
  // with everything else; serialized against background passes by cv).
  for (int i = 0; i < 5; ++i) {
    engine.RebalanceNow();
    std::this_thread::yield();
  }
  for (int t = 0; t < kUpdaters; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kUpdaters; t < threads.size(); ++t) threads[t].join();

  engine.WaitForMaintenance();
  EXPECT_EQ(engine.live_size(),
            static_cast<size_t>(live_delta.load(std::memory_order_relaxed)));

  // Final reconciliation: the union answers exactly like a fresh static
  // Engine over the gathered live set (the dyn equivalence contract,
  // carried across shards).
  std::vector<Id> ids;
  UncertainSet live = engine.LiveSet(&ids);
  ASSERT_EQ(live.size(), ids.size());
  Engine reference(live, engine.ReferenceEngineOptions());
  Rng rng(seed + 999);
  for (int t = 0; t < 10; ++t) {
    Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
    std::vector<int> want_rank = reference.NonzeroNN(q);
    std::vector<Id> want;
    for (int i : want_rank) want.push_back(ids[static_cast<size_t>(i)]);
    EXPECT_EQ(engine.NonzeroNN(q), want);
  }
}

TEST(ShardRace, HashPlacementChurn) { RunRace(PlacementKind::kHashById, false, 7001); }

TEST(ShardRace, SpatialPlacementChurn) {
  RunRace(PlacementKind::kSpatialKdMedian, false, 7003);
}

TEST(ShardRace, SpatialWithAutoRebalance) {
  RunRace(PlacementKind::kSpatialKdMedian, true, 7005);
}

TEST(ShardRace, HashWithAutoRebalance) { RunRace(PlacementKind::kHashById, true, 7007); }

TEST(ShardRace, SnapshotCachePublishRacesUpdaters) {
  // Concurrent updaters race the combined-view cache publish while
  // queriers validate / rebuild it (every query routes through View now):
  // quantify-heavy queriers maximize cache traffic, an updater invalidates
  // continuously, auto-rebalance adds the epoch-bumping multi-shard
  // mutation, and pinned views taken mid-race must keep answering from a
  // consistent gather (ascending ids, bounded probabilities).
  exec::ThreadPool pool(3);
  Options sopt;
  sopt.num_shards = 4;
  sopt.placement = PlacementKind::kSpatialKdMedian;
  sopt.pool = &pool;
  sopt.auto_rebalance = true;
  sopt.rebalance_min_points = 48;
  sopt.rebalance_max_imbalance = 1.5;
  sopt.shard.tail_limit = 8;
  sopt.shard.engine.mc_rounds_override = 24;
  ShardedEngine engine(sopt);
  Rng seed_rng(8101);
  for (int i = 0; i < 64; ++i) engine.Insert(RacePoint(&seed_rng));

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Rng rng(8102);
    std::vector<Id> mine;
    for (int op = 0; op < 400; ++op) {
      if (mine.empty() || rng.Bernoulli(0.55)) {
        mine.push_back(engine.Insert(RacePoint(&rng)));
      } else {
        size_t pick = static_cast<size_t>(rng.UniformInt(0, mine.size() - 1));
        EXPECT_TRUE(engine.Erase(mine[pick]));
        mine.erase(mine.begin() + static_cast<long>(pick));
      }
    }
    done.store(true, std::memory_order_release);
  });
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(8110 + static_cast<uint64_t>(t));
      std::vector<Quantification> out;
      while (!done.load(std::memory_order_acquire)) {
        Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
        // Alternate the cached entry point and an explicitly pinned view.
        if (rng.Bernoulli(0.5)) {
          engine.QuantifyInto(q, 0.25, &out);
        } else {
          api::EngineRef ref(&engine);
          api::EngineRef::Pin pin = ref.Capture();
          api::QueryRequest request = api::QueryRequest::Quantify(q, 0.25);
          out = ref.Call(request, pin).quants;
          // The pinned view must re-answer identically (it is immutable).
          std::vector<Quantification> again = ref.Call(request, pin).quants;
          ASSERT_EQ(again.size(), out.size());
          for (size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(again[i].index, out[i].index);
            EXPECT_EQ(again[i].probability, out[i].probability);
          }
        }
        for (size_t i = 0; i < out.size(); ++i) {
          if (i > 0) {
            EXPECT_LT(out[i - 1].index, out[i].index);
          }
          EXPECT_GE(out[i].probability, 0.0);
          EXPECT_LE(out[i].probability, 1.0 + 1e-9);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  engine.WaitForMaintenance();

  // Post-race reconciliation through the (now stable) cache.
  std::vector<Id> ids;
  UncertainSet live = engine.LiveSet(&ids);
  Engine reference(live, engine.ReferenceEngineOptions());
  Rng rng(8999);
  for (int t = 0; t < 5; ++t) {
    Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
    std::vector<Quantification> got = engine.Quantify(q, 0.2);
    std::vector<Quantification> want = reference.Quantify(q, 0.2);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, ids[static_cast<size_t>(want[i].index)]);
      EXPECT_EQ(got[i].probability, want[i].probability);
    }
  }
}

}  // namespace
}  // namespace shard
}  // namespace pnn
