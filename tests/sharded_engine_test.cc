// Randomized differential tests for pnn::shard::ShardedEngine: after any
// interleaving of inserts, erases and rebalance passes, every query mode
// must answer exactly like a single dyn::DynamicEngine fed the identical
// op stream (bit-identical for NonzeroNN / Quantify / ThresholdNN /
// MostLikelyNN, near-exact for the reassociated QuantifyExact), for hash
// and spatial placement, with and without a thread pool — plus unit tests
// for placement routing, rebalance convergence, and the empty engine.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/engine_ref.h"
#include "src/exec/batch_engine.h"
#include "src/exec/thread_pool.h"
#include "src/shard/sharded_engine.h"
#include "src/workload/streaming.h"

namespace pnn {
namespace shard {
namespace {

enum class Family { kDiscrete, kContinuous, kMixed };

UncertainPoint RandomDiscretePoint(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 4));
  Point2 c{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  std::vector<Point2> locs(k);
  std::vector<double> w(k);
  double total = 0.0;
  for (int s = 0; s < k; ++s) {
    locs[s] = {c.x + rng->Uniform(-3, 3), c.y + rng->Uniform(-3, 3)};
    w[s] = rng->Uniform(0.05, 1.0);
    total += w[s];
  }
  for (int s = 0; s < k; ++s) w[s] /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

UncertainPoint RandomContinuousPoint(Rng* rng) {
  Point2 c{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  double radius = rng->Uniform(0.5, 4.0);
  if (rng->Bernoulli(0.3)) {
    return UncertainPoint::TruncatedGaussian(c, radius, rng->Uniform(0.3, 2.0));
  }
  return UncertainPoint::UniformDisk(c, radius);
}

UncertainPoint RandomPoint(Family family, Rng* rng) {
  switch (family) {
    case Family::kDiscrete:
      return RandomDiscretePoint(rng);
    case Family::kContinuous:
      return RandomContinuousPoint(rng);
    case Family::kMixed:
      return rng->Bernoulli(0.5) ? RandomDiscretePoint(rng)
                                 : RandomContinuousPoint(rng);
  }
  return RandomDiscretePoint(rng);
}

void ExpectBitIdentical(const std::vector<Quantification>& got,
                        const std::vector<Quantification>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index);
    EXPECT_EQ(got[i].probability, want[i].probability);
  }
}

struct DifferentialConfig {
  Family family = Family::kDiscrete;
  PlacementKind placement = PlacementKind::kHashById;
  uint32_t num_shards = 3;
  uint64_t seed = 1;
  exec::ThreadPool* pool = nullptr;
  bool rebalance = false;  // Inline RebalanceNow() passes mid-stream.
  int ops = 1000;
};

// Runs interleaved ops on a ShardedEngine and a single DynamicEngine fed
// the same stream (ids coincide: both assign sequentially from 0), and
// asserts exact agreement on every query step.
void RunDifferential(const DifferentialConfig& cfg) {
  Rng rng(cfg.seed);
  Options sopt;
  sopt.num_shards = cfg.num_shards;
  sopt.placement = cfg.placement;
  sopt.shard.engine.seed = 77;
  sopt.shard.engine.mc_rounds_override = 48;  // Keep reference MC cheap.
  sopt.shard.tail_limit = 8;                  // Force frequent merges.
  sopt.shard.max_dead_fraction = 0.3;
  sopt.pool = cfg.pool;
  sopt.rebalance_min_points = 32;
  sopt.rebalance_max_imbalance = 1.5;
  ShardedEngine sharded(sopt);

  dyn::Options dopt = sopt.shard;
  dopt.pool = cfg.pool;
  dyn::DynamicEngine reference(dopt);

  std::vector<Id> live;
  int quantify_step = 0;
  for (int op = 0; op < cfg.ops; ++op) {
    int r = static_cast<int>(rng.UniformInt(0, 99));
    if (r < 45 || live.empty()) {
      UncertainPoint p = RandomPoint(cfg.family, &rng);
      Id got = sharded.Insert(p);
      Id want = reference.Insert(p);
      ASSERT_EQ(got, want);  // Global ids stay in lockstep.
      live.push_back(got);
      continue;
    }
    if (r < 70) {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      Id victim = live[pick];
      live.erase(live.begin() + static_cast<long>(pick));
      EXPECT_TRUE(sharded.Erase(victim));
      EXPECT_FALSE(sharded.Erase(victim));  // Tombstoned ids stay dead.
      EXPECT_TRUE(reference.Erase(victim));
      continue;
    }
    if (r < 75 && cfg.rebalance) {
      sharded.RebalanceNow();
      EXPECT_EQ(sharded.live_size(), live.size());
      continue;
    }

    // Query step: the sharded answers must match the single engine's.
    Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
    EXPECT_EQ(sharded.NonzeroNN(q), reference.NonzeroNN(q));

    if (++quantify_step % 4 == 0) {
      double eps = 0.1;
      EXPECT_EQ(sharded.PlanForQuantify(eps), reference.PlanForQuantify(eps));
      ExpectBitIdentical(sharded.Quantify(q, eps), reference.Quantify(q, eps));
      ExpectBitIdentical(sharded.ThresholdNN(q, 0.2, eps),
                         reference.ThresholdNN(q, 0.2, eps));
      EXPECT_EQ(sharded.MostLikelyNN(q, eps), reference.MostLikelyNN(q, eps));
    }

    if (cfg.family != Family::kMixed && quantify_step % 10 == 0) {
      std::vector<Quantification> got = sharded.QuantifyExact(q);
      std::vector<Quantification> want = reference.QuantifyExact(q);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].index, want[i].index);
        EXPECT_NEAR(got[i].probability, want[i].probability, 1e-9);
      }
    }
  }
  sharded.WaitForMaintenance();
  reference.WaitForMaintenance();
  EXPECT_EQ(sharded.live_size(), live.size());
  EXPECT_EQ(reference.live_size(), live.size());

  // Final state check: identical live unions, id for id.
  std::vector<Id> sharded_ids, reference_ids;
  sharded.LiveSet(&sharded_ids);
  reference.LiveSet(&reference_ids);
  EXPECT_EQ(sharded_ids, reference_ids);
}

TEST(ShardedDifferential, DiscreteHashPlacement) {
  DifferentialConfig cfg;
  cfg.family = Family::kDiscrete;
  cfg.placement = PlacementKind::kHashById;
  cfg.seed = 9001;
  RunDifferential(cfg);
}

TEST(ShardedDifferential, DiscreteSpatialWithRebalance) {
  DifferentialConfig cfg;
  cfg.family = Family::kDiscrete;
  cfg.placement = PlacementKind::kSpatialKdMedian;
  cfg.rebalance = true;
  cfg.seed = 9003;
  RunDifferential(cfg);
}

TEST(ShardedDifferential, ContinuousSpatialWithRebalance) {
  DifferentialConfig cfg;
  cfg.family = Family::kContinuous;
  cfg.placement = PlacementKind::kSpatialKdMedian;
  cfg.rebalance = true;
  cfg.seed = 9005;
  RunDifferential(cfg);
}

TEST(ShardedDifferential, MixedHashWithRebalance) {
  DifferentialConfig cfg;
  cfg.family = Family::kMixed;
  cfg.placement = PlacementKind::kHashById;
  cfg.rebalance = true;
  cfg.seed = 9007;
  RunDifferential(cfg);
}

TEST(ShardedDifferential, DiscreteHashWithBackgroundPool) {
  exec::ThreadPool pool(3);
  DifferentialConfig cfg;
  cfg.family = Family::kDiscrete;
  cfg.placement = PlacementKind::kHashById;
  cfg.pool = &pool;
  cfg.seed = 9009;
  RunDifferential(cfg);
}

TEST(ShardedDifferential, MixedSpatialWithPoolAndRebalance) {
  exec::ThreadPool pool(3);
  DifferentialConfig cfg;
  cfg.family = Family::kMixed;
  cfg.placement = PlacementKind::kSpatialKdMedian;
  cfg.pool = &pool;
  cfg.rebalance = true;
  cfg.seed = 9011;
  RunDifferential(cfg);
}

TEST(ShardedDifferential, SingleShardDegeneratesToDynamicEngine) {
  DifferentialConfig cfg;
  cfg.num_shards = 1;
  cfg.family = Family::kDiscrete;
  cfg.seed = 9013;
  cfg.ops = 400;
  RunDifferential(cfg);
}

TEST(ShardedEngine, BulkLoadMatchesIncrementalReference) {
  Rng rng(411);
  UncertainSet initial;
  for (int i = 0; i < 200; ++i) initial.push_back(RandomDiscretePoint(&rng));
  for (PlacementKind placement :
       {PlacementKind::kHashById, PlacementKind::kSpatialKdMedian}) {
    Options sopt;
    sopt.num_shards = 4;
    sopt.placement = placement;
    sopt.shard.engine.mc_rounds_override = 32;
    ShardedEngine sharded(initial, sopt);
    EXPECT_EQ(sharded.live_size(), initial.size());

    dyn::DynamicEngine reference(initial, sopt.shard);
    for (int t = 0; t < 20; ++t) {
      Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
      EXPECT_EQ(sharded.NonzeroNN(q), reference.NonzeroNN(q));
      ExpectBitIdentical(sharded.Quantify(q, 0.1), reference.Quantify(q, 0.1));
    }
    // Spatial bulk load spreads the set across all shards.
    if (placement == PlacementKind::kSpatialKdMedian) {
      for (size_t n : sharded.ShardLiveSizes()) EXPECT_GT(n, 0u);
    }
  }
}

TEST(ShardedEngine, EmptyAndErasedToEmpty) {
  Options sopt;
  sopt.num_shards = 3;
  ShardedEngine engine(sopt);
  Point2 q{0, 0};
  EXPECT_TRUE(engine.NonzeroNN(q).empty());
  EXPECT_TRUE(engine.Quantify(q, 0.1).empty());
  EXPECT_TRUE(engine.QuantifyExact(q).empty());
  EXPECT_TRUE(engine.ThresholdNN(q, 0.5, 0.1).empty());
  EXPECT_EQ(engine.MostLikelyNN(q, 0.1), -1);
  EXPECT_FALSE(engine.Erase(0));

  Rng rng(42);
  std::vector<Id> ids;
  for (int i = 0; i < 20; ++i) ids.push_back(engine.Insert(RandomDiscretePoint(&rng)));
  for (Id id : ids) EXPECT_TRUE(engine.Erase(id));
  EXPECT_EQ(engine.live_size(), 0u);
  EXPECT_TRUE(engine.NonzeroNN(q).empty());
  EXPECT_TRUE(engine.Quantify(q, 0.1).empty());
  EXPECT_TRUE(engine.QuantifyExact(q).empty());
  EXPECT_EQ(engine.MostLikelyNN(q, 0.1), -1);
}

TEST(ShardedEngine, RebalanceConvergesOnHotRegion) {
  // All points in one spatial region: the balanced-at-zero initial router
  // sends everything to one shard; rebalance must spread it out and the
  // router must route future inserts of the moved region to the new owner.
  Rng rng(512);
  Options sopt;
  sopt.num_shards = 4;
  sopt.placement = PlacementKind::kSpatialKdMedian;
  sopt.rebalance_min_points = 32;
  sopt.rebalance_max_imbalance = 1.5;
  ShardedEngine engine(sopt);
  for (int i = 0; i < 256; ++i) {
    std::vector<Point2> locs = {{rng.Uniform(1, 50), rng.Uniform(1, 50)}};
    engine.Insert(UncertainPoint::Discrete(std::move(locs), {1.0}));
  }
  std::vector<size_t> before = engine.ShardLiveSizes();
  EXPECT_EQ(*std::max_element(before.begin(), before.end()), 256u);
  EXPECT_TRUE(engine.RebalanceNeeded());

  engine.RebalanceNow();
  EXPECT_FALSE(engine.RebalanceNeeded());
  EXPECT_EQ(engine.live_size(), 256u);
  std::vector<size_t> after = engine.ShardLiveSizes();
  size_t max_after = *std::max_element(after.begin(), after.end());
  EXPECT_LE(static_cast<double>(max_after), 1.5 * 256.0 / 4.0);
  EXPECT_GE(engine.rebalance_stats().points_moved, 64u);
}

TEST(ShardedEngine, AutoRebalanceRunsInBackground) {
  exec::ThreadPool pool(2);
  Rng rng(513);
  Options sopt;
  sopt.num_shards = 4;
  sopt.placement = PlacementKind::kSpatialKdMedian;
  sopt.pool = &pool;
  sopt.auto_rebalance = true;
  sopt.rebalance_min_points = 64;
  sopt.rebalance_max_imbalance = 1.5;
  ShardedEngine engine(sopt);
  for (int i = 0; i < 512; ++i) {
    std::vector<Point2> locs = {{rng.Uniform(1, 50), rng.Uniform(1, 50)}};
    engine.Insert(UncertainPoint::Discrete(std::move(locs), {1.0}));
  }
  engine.WaitForMaintenance();
  EXPECT_EQ(engine.live_size(), 512u);
  EXPECT_GT(engine.rebalance_stats().passes, 0u);
  // One inline pass mops up anything the last inserts unbalanced again.
  engine.RebalanceNow();
  EXPECT_FALSE(engine.RebalanceNeeded());
}

TEST(ShardedEngine, HashPlacementSpreadsSequentialIds) {
  std::vector<int> counts(4, 0);
  for (Id id = 0; id < 1000; ++id) ++counts[HashShard(id, 4)];
  for (int c : counts) {
    EXPECT_GT(c, 150);  // Roughly uniform; exact split is 250 each.
    EXPECT_LT(c, 350);
  }
}

TEST(ShardedEngine, SpatialRouterSplitRelabelsRegion) {
  SpatialRouter router(2);
  // Balanced-at-zero start: everything at x >= 0 routes to the last shard.
  uint32_t right = router.Route({5, 5});
  uint32_t left = router.Route({-5, 5});
  EXPECT_NE(right, left);
  // Split the right shard's region at x = 3: the strictly-less side moves.
  router.SplitShard(right, left, 0, 3.0);
  EXPECT_EQ(router.Route({1, 5}), left);
  EXPECT_EQ(router.Route({5, 5}), right);
  EXPECT_EQ(router.Route({-5, 5}), left);
}

TEST(ShardedSnapshotCache, HotColdInvalidatedStayBitIdenticalToStaticEngine) {
  // The combined-snapshot cache must be invisible: across epochs separated
  // by insert / erase / rebalance (each of which invalidates the cached
  // view), a cold query (first after the update) and hot repeats (cache
  // hits) must all equal a fresh static Engine over the live set,
  // bit-for-bit, on every quantify mode.
  Rng rng(777);
  Options sopt;
  sopt.num_shards = 3;
  sopt.placement = PlacementKind::kSpatialKdMedian;
  sopt.shard.engine.seed = 31;
  sopt.shard.engine.mc_rounds_override = 40;
  sopt.shard.tail_limit = 8;
  sopt.rebalance_min_points = 16;
  sopt.rebalance_max_imbalance = 1.5;
  ShardedEngine engine(sopt);

  std::vector<Id> live;
  for (int i = 0; i < 96; ++i) live.push_back(engine.Insert(RandomDiscretePoint(&rng)));

  uint64_t expected_misses = engine.snapshot_cache_stats().misses;
  for (int epoch = 0; epoch < 12; ++epoch) {
    // Mutate: cycle through the three invalidation sources.
    if (epoch % 3 == 0) {
      live.push_back(engine.Insert(RandomDiscretePoint(&rng)));
    } else if (epoch % 3 == 1) {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      EXPECT_TRUE(engine.Erase(live[pick]));
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      engine.RebalanceNow();
    }

    std::vector<Id> ids;
    UncertainSet live_set = engine.LiveSet(&ids);  // Warms the view once.
    Engine reference(live_set, engine.ReferenceEngineOptions());

    SnapshotCacheStats before = engine.snapshot_cache_stats();
    if (epoch % 3 != 2) {
      // Insert/erase published a new shard snapshot, so the LiveSet()
      // gather above must have rebuilt the view (RebalanceNow may no-op).
      EXPECT_GT(before.misses, expected_misses);
    }
    expected_misses = before.misses;
    for (int pass = 0; pass < 3; ++pass) {  // pass 0 warms, 1-2 must hit.
      Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
      for (int rep = 0; rep < 2; ++rep) {
        std::vector<Quantification> got = engine.Quantify(q, 0.1);
        std::vector<Quantification> want = reference.Quantify(q, 0.1);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].index, ids[want[i].index]);
          EXPECT_EQ(got[i].probability, want[i].probability);
        }
        EXPECT_EQ(engine.MostLikelyNN(q, 0.1),
                  want.empty() ? -1 : ids[pnn::MostLikelyNN(want)]);
      }
    }
    SnapshotCacheStats after = engine.snapshot_cache_stats();
    EXPECT_EQ(after.misses, before.misses);  // No update: hits only.
    EXPECT_GT(after.hits, before.hits);
  }
}

TEST(ShardedSnapshotCache, ViewPinsConsistentStateAcrossUpdates) {
  // A view grabbed before updates keeps answering from its gather: the
  // batch executor relies on this to thread one view through a batch.
  Rng rng(778);
  Options sopt;
  sopt.num_shards = 2;
  sopt.shard.engine.mc_rounds_override = 32;
  ShardedEngine engine(sopt);
  for (int i = 0; i < 40; ++i) engine.Insert(RandomDiscretePoint(&rng));

  api::EngineRef ref(&engine);
  api::EngineRef::Pin pin{engine.View()};
  api::QueryRequest request = api::QueryRequest::Quantify({0, 0}, 0.1);
  std::vector<Quantification> before = ref.Call(request, pin).quants;
  for (int i = 0; i < 20; ++i) engine.Insert(RandomDiscretePoint(&rng));
  // The pinned view still answers as of the gather...
  ExpectBitIdentical(ref.Call(request, pin).quants, before);
  // ...while a fresh view sees the inserts.
  EXPECT_EQ(engine.View()->combined->live_count, 60u);
}

TEST(ShardedBatch, MixedBatchMatchesDynamicBackend) {
  // The same mixed op stream through a ShardedEngine-backed BatchEngine
  // and a DynamicEngine-backed one must produce identical results.
  Rng rng(613);
  StreamingChurnOptions wopt;
  wopt.initial = 128;
  wopt.ops = 400;
  wopt.churn = 0.3;
  wopt.drift_weight = 1.0;
  wopt.discrete = true;
  wopt.quantify_fraction = 0.3;
  std::vector<exec::MixedOp> ops = GenerateStreamingChurn(wopt, &rng);

  Options sopt;
  sopt.num_shards = 3;
  sopt.shard.engine.mc_rounds_override = 32;
  sopt.shard.tail_limit = 16;
  ShardedEngine sharded(sopt);
  dyn::DynamicEngine reference(sopt.shard);

  exec::BatchOptions bopt;
  bopt.num_threads = 2;
  bopt.min_parallel_batch = 8;
  exec::BatchEngine sharded_batch(api::EngineRef(&sharded), bopt);
  exec::BatchEngine reference_batch(api::EngineRef(&reference), bopt);

  std::vector<api::QueryRequest> requests = exec::ToRequests(ops, 0.1);
  auto got = sharded_batch.RequestBatch(requests);
  auto want = reference_batch.RequestBatch(requests);
  ASSERT_EQ(got.values.size(), want.values.size());
  for (size_t i = 0; i < got.values.size(); ++i) {
    EXPECT_EQ(got.values[i].id, want.values[i].id);
    EXPECT_EQ(got.values[i].ids, want.values[i].ids);
    ASSERT_EQ(got.values[i].quants.size(), want.values[i].quants.size());
    for (size_t j = 0; j < got.values[i].quants.size(); ++j) {
      EXPECT_EQ(got.values[i].quants[j].index, want.values[i].quants[j].index);
      EXPECT_EQ(got.values[i].quants[j].probability,
                want.values[i].quants[j].probability);
    }
  }
  EXPECT_EQ(got.stats.num_updates, want.stats.num_updates);
  EXPECT_EQ(sharded_batch.ref().sharded_engine(), &sharded);
}

}  // namespace
}  // namespace shard
}  // namespace pnn
