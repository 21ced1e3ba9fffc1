// Unit tests for pnn::dyn::DynamicEngine: lifecycle, Bentley–Saxe
// maintenance behavior (merges, compaction), option validation, and the
// small invariants the differential tests don't pin down.

#include "src/dyn/dynamic_engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/dyn/merge.h"
#include "src/dyn/tail_cache.h"
#include "src/exec/thread_pool.h"
#include "src/workload/generators.h"

namespace pnn {
namespace dyn {
namespace {

UncertainPoint Disk(double x, double y, double r = 1.0) {
  return UncertainPoint::UniformDisk({x, y}, r);
}

TEST(DynamicEngine, EmptyEngineAnswersEmpty) {
  DynamicEngine engine;
  EXPECT_EQ(engine.live_size(), 0u);
  EXPECT_TRUE(engine.NonzeroNN({0, 0}).empty());
  EXPECT_TRUE(engine.Quantify({0, 0}, 0.1).empty());
  EXPECT_TRUE(engine.QuantifyExact({0, 0}).empty());
  EXPECT_TRUE(engine.ThresholdNN({0, 0}, 0.5).empty());
  EXPECT_EQ(engine.MostLikelyNN({0, 0}), -1);
  EXPECT_FALSE(engine.Erase(0));
}

TEST(DynamicEngine, InsertAssignsSequentialIds) {
  DynamicEngine engine;
  EXPECT_EQ(engine.Insert(Disk(0, 0)), 0);
  EXPECT_EQ(engine.Insert(Disk(5, 0)), 1);
  EXPECT_EQ(engine.Insert(Disk(10, 0)), 2);
  EXPECT_EQ(engine.live_size(), 3u);
  // Ids are never recycled, even after an erase.
  EXPECT_TRUE(engine.Erase(1));
  EXPECT_EQ(engine.Insert(Disk(5, 0)), 3);
}

TEST(DynamicEngine, NonzeroNNIsolatedPoint) {
  DynamicEngine engine;
  Id far = engine.Insert(Disk(100, 100, 0.5));
  Id near_a = engine.Insert(Disk(0, 0, 1.0));
  Id near_b = engine.Insert(Disk(1, 0, 1.0));
  std::vector<Id> nn = engine.NonzeroNN({0.2, 0});
  EXPECT_EQ(nn, (std::vector<Id>{near_a, near_b}));
  EXPECT_TRUE(engine.Erase(near_a));
  EXPECT_TRUE(engine.Erase(near_b));
  EXPECT_EQ(engine.NonzeroNN({0.2, 0}), std::vector<Id>{far});
}

TEST(DynamicEngine, MergesKeepBucketCountLogarithmic) {
  Options opt;
  opt.tail_limit = 4;
  DynamicEngine engine(opt);
  Rng rng(31);
  for (int i = 0; i < 400; ++i) {
    engine.Insert(Disk(rng.Uniform(-50, 50), rng.Uniform(-50, 50)));
  }
  engine.WaitForMaintenance();
  EXPECT_EQ(engine.live_size(), 400u);
  // Bentley–Saxe: every merge at least doubles the absorbed bucket, so the
  // bucket count stays O(log n).
  EXPECT_LE(engine.num_buckets(), 10u);
  EXPECT_LT(engine.tail_size(), opt.tail_limit);
}

TEST(DynamicEngine, CompactionDropsTombstones) {
  Options opt;
  opt.tail_limit = 8;
  opt.max_dead_fraction = 0.25;
  DynamicEngine engine(opt);
  Rng rng(33);
  std::vector<Id> ids;
  for (int i = 0; i < 128; ++i) {
    ids.push_back(engine.Insert(Disk(rng.Uniform(-50, 50), rng.Uniform(-50, 50))));
  }
  engine.WaitForMaintenance();
  // Erase well past the dead-fraction trigger: compaction must kick in and
  // drop the tombstones from the structure.
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(engine.Erase(ids[i]));
  engine.WaitForMaintenance();
  EXPECT_EQ(engine.live_size(), 28u);
  EXPECT_LT(engine.dead_size(), 40u);
  std::vector<Id> live_ids;
  UncertainSet live = engine.LiveSet(&live_ids);
  EXPECT_EQ(live.size(), 28u);
  EXPECT_EQ(live_ids.front(), ids[100]);
}

TEST(DynamicEngine, BulkConstructorBuildsOneBucket) {
  Rng rng(35);
  UncertainSet initial;
  for (int i = 0; i < 64; ++i) {
    initial.push_back(Disk(rng.Uniform(-20, 20), rng.Uniform(-20, 20)));
  }
  DynamicEngine engine(initial);
  EXPECT_EQ(engine.live_size(), 64u);
  EXPECT_EQ(engine.num_buckets(), 1u);
  EXPECT_EQ(engine.tail_size(), 0u);
  // Bulk ids are 0..n-1 in input order.
  std::vector<Id> ids;
  engine.LiveSet(&ids);
  EXPECT_EQ(ids.front(), 0);
  EXPECT_EQ(ids.back(), 63);
}

TEST(DynamicEngine, ReferenceOptionsCarryLiveIds) {
  DynamicEngine engine;
  engine.Insert(Disk(0, 0));
  Id middle = engine.Insert(Disk(5, 0));
  engine.Insert(Disk(10, 0));
  EXPECT_TRUE(engine.Erase(middle));
  Engine::Options ref = engine.ReferenceEngineOptions();
  EXPECT_EQ(ref.mc_stream_ids, (std::vector<uint64_t>{0, 2}));
}

TEST(DynamicEngine, PlanTracksLiveComposition) {
  // All-discrete with tiny spread: spiral. After inserting a continuous
  // point the plan must fall back to Monte Carlo, and recover once the
  // continuous point is erased.
  Rng rng(37);
  DynamicEngine engine;
  for (int i = 0; i < 12; ++i) {
    std::vector<Point2> locs{{rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
                             {rng.Uniform(-5, 5), rng.Uniform(-5, 5)}};
    engine.Insert(UncertainPoint::Discrete(locs, {0.5, 0.5}));
  }
  EXPECT_EQ(engine.PlanForQuantify(0.1), QuantifyPlan::kSpiral);
  Id disk = engine.Insert(Disk(0, 0));
  EXPECT_EQ(engine.PlanForQuantify(0.1), QuantifyPlan::kMonteCarlo);
  EXPECT_TRUE(engine.Erase(disk));
  EXPECT_EQ(engine.PlanForQuantify(0.1), QuantifyPlan::kSpiral);
}

TEST(DynamicEngine, PrewarmMakesQuantifyCheap) {
  Options opt;
  opt.engine.mc_rounds_override = 64;
  DynamicEngine engine(opt);
  Rng rng(39);
  for (int i = 0; i < 20; ++i) {
    engine.Insert(Disk(rng.Uniform(-10, 10), rng.Uniform(-10, 10)));
  }
  engine.Prewarm(0.1);
  auto result = engine.Quantify({0, 0}, 0.1);
  double total = 0;
  for (const auto& e : result) total += e.probability;
  EXPECT_NEAR(total, 1.0, 1e-12);  // Counts over rounds partition unity.
}

TEST(DynamicEngineDeath, ValidatesOptions) {
EXPECT_DEATH(
      [] {
        Options opt;
        opt.engine.default_eps = 1.5;
        DynamicEngine engine(opt);
      }(),
      "default_eps");
  EXPECT_DEATH(
      [] {
        Options opt;
        opt.engine.mc_delta = 0.0;
        DynamicEngine engine(opt);
      }(),
      "mc_delta");
  EXPECT_DEATH(
      [] {
        Options opt;
        opt.engine.spiral_budget_fraction = 0.0;
        DynamicEngine engine(opt);
      }(),
      "spiral_budget_fraction");
  EXPECT_DEATH(
      [] {
        Options opt;
        opt.max_dead_fraction = 1.5;
        DynamicEngine engine(opt);
      }(),
      "max_dead_fraction");
}

TEST(DynamicEngineDeath, ValidatesQueryArguments) {
DynamicEngine engine;
  engine.Insert(Disk(0, 0));
  EXPECT_DEATH(engine.ThresholdNN({0, 0}, -0.1), "tau");
  EXPECT_DEATH(engine.ThresholdNN({0, 0}, 1.1), "tau");
  EXPECT_DEATH(engine.Quantify({0, 0}, 0.0), "eps");
}

// Two nearby locations, so delta < Delta strictly and Lemma 2.1 reporting
// includes the point when it is the sole live candidate.
UncertainPoint Loc(double x, double y) {
  return UncertainPoint::Discrete({{x, y}, {x + 0.5, y}}, {0.5, 0.5});
}

// Regression tests for the Merged* degenerate-snapshot edges: an empty
// snapshot, or one where every bucket and tail entry is tombstoned, must
// yield empty results from every recombination — not a degenerate infinite
// Delta report, a stream over dead parts, or a tripped all-discrete check.
TEST(MergedEdges, DefaultSnapshotAnswersEmpty) {
  Snapshot snap;  // No parts at all; tail pointer never published.
  Point2 q{0, 0};
  EXPECT_TRUE(MergedNonzeroNN(snap, q).empty());
  EXPECT_TRUE(MergedSpiralQuantify(snap, q, 0.1).empty());
  EXPECT_TRUE(MergedMonteCarloQuantify(snap, q, 8, 1, nullptr).empty());
  EXPECT_TRUE(MergedQuantifyExact(snap, q).empty());
  EXPECT_TRUE(SnapshotLiveSet(snap, nullptr).empty());
  EXPECT_EQ(SnapshotNonzeroDelta(snap, q),
            std::numeric_limits<double>::infinity());
}

TEST(MergedEdges, AllTombstonedPartsAnswerEmpty) {
  // Hand-build a snapshot whose only bucket and only tail entry are both
  // dead — live_count 0 with non-empty parts, the shape a snapshot has
  // right after the last erase and before compaction.
  Engine::Options eopt;
  auto bucket = std::make_shared<const Bucket>(
      std::vector<Id>{0, 1}, UncertainSet{Loc(0, 0), Loc(4, 0)}, eopt);
  Snapshot snap;
  snap.buckets.push_back(
      {bucket, std::make_shared<const std::vector<char>>(std::vector<char>{1, 1}), 0});
  snap.tail = std::make_shared<const std::vector<TailEntry>>(
      std::vector<TailEntry>{{2, Loc(8, 0)}});
  snap.tail_dead =
      std::make_shared<const std::vector<char>>(std::vector<char>{1});
  snap.live_count = 0;

  Point2 q{1, 1};
  EXPECT_TRUE(MergedNonzeroNN(snap, q).empty());
  EXPECT_TRUE(MergedSpiralQuantify(snap, q, 0.1).empty());
  EXPECT_TRUE(MergedMonteCarloQuantify(snap, q, 8, 1, nullptr).empty());
  EXPECT_TRUE(MergedQuantifyExact(snap, q).empty());
  EXPECT_TRUE(SnapshotLiveSet(snap, nullptr).empty());
  EXPECT_EQ(SnapshotNonzeroDelta(snap, q),
            std::numeric_limits<double>::infinity());
}

TEST(MergedEdges, HandBuiltTailWithoutCacheMatchesCachedTail) {
  // A hand-built snapshot with live tail entries but no tail_mc samples the
  // tail through a query-local cache: the answer must be bit-identical to
  // the same snapshot with a cache attached, as the publishers build it.
  Engine::Options eopt;
  auto bucket = std::make_shared<const Bucket>(
      std::vector<Id>{0, 1, 2}, UncertainSet{Loc(0, 0), Loc(1, 0), Loc(0, 1)}, eopt);
  Snapshot snap;
  snap.buckets.push_back({bucket, nullptr, 3});
  snap.tail = std::make_shared<const std::vector<TailEntry>>(std::vector<TailEntry>{
      {5, Loc(1, 1)}, {3, Loc(0.5, 0.5)}, {4, UncertainPoint::UniformDisk({1, 0.5}, 1)}});
  snap.tail_dead = std::make_shared<const std::vector<char>>(std::vector<char>{0, 1, 0});
  snap.live_count = 5;

  Point2 q{0.6, 0.4};
  std::vector<Quantification> local = MergedMonteCarloQuantify(snap, q, 64, 9, nullptr);
  snap.tail_mc = std::make_shared<TailMcCache>();
  std::vector<Quantification> cached = MergedMonteCarloQuantify(snap, q, 64, 9, nullptr);
  ASSERT_EQ(local.size(), cached.size());
  bool tail_won = false;
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(local[i].index, cached[i].index);
    EXPECT_EQ(local[i].probability, cached[i].probability);
    EXPECT_NE(local[i].index, 3);  // Tombstoned tail entry.
    tail_won |= local[i].index >= 4;
  }
  EXPECT_TRUE(tail_won);
}

TEST(MergedEdges, WholeBucketMatchesGeneralMerge) {
  // A snapshot that is one whole bucket is answered by the bucket engine
  // itself (NonzeroNN; Monte Carlo without a pool). The general merge must
  // agree bit-identically and under the same ids: here reached through a
  // pool, or through a second, fully tombstoned bucket beside it.
  Rng rng(41);
  std::vector<Id> ids;
  UncertainSet points;
  for (int i = 0; i < 30; ++i) {
    ids.push_back(3 * i + 2);
    Point2 c{rng.Uniform(0, 4), rng.Uniform(0, 4)};
    points.push_back(i % 3 == 0 ? Loc(c.x, c.y) : UncertainPoint::UniformDisk(c, 1));
  }
  auto bucket = std::make_shared<const Bucket>(ids, points, Engine::Options{});
  Snapshot whole;
  whole.buckets.push_back({bucket, nullptr, ids.size()});
  whole.live_count = ids.size();
  whole.discrete_count = 10;
  whole.continuous_count = 20;
  Snapshot split = whole;
  split.buckets.push_back(
      {std::make_shared<const Bucket>(std::vector<Id>{200}, UncertainSet{Loc(2, 2)},
                                      Engine::Options{}),
       std::make_shared<const std::vector<char>>(std::vector<char>{1}), 0});
  ASSERT_EQ(WholeBucket(whole), bucket.get());
  ASSERT_EQ(WholeBucket(split), nullptr);

  exec::ThreadPool pool(2);
  for (Point2 q : {Point2{2, 2}, Point2{0.5, 3}, Point2{6, -1}}) {
    std::vector<Id> nonzero = MergedNonzeroNN(whole, q);
    ASSERT_FALSE(nonzero.empty());
    EXPECT_EQ(nonzero, MergedNonzeroNN(split, q));
    for (Id id : nonzero) EXPECT_EQ(id % 3, 2);

    std::vector<Quantification> mc = MergedMonteCarloQuantify(whole, q, 64, 1, nullptr);
    ASSERT_FALSE(mc.empty());
    for (const auto& other : {MergedMonteCarloQuantify(whole, q, 64, 1, &pool),
                              MergedMonteCarloQuantify(split, q, 64, 1, nullptr)}) {
      ASSERT_EQ(mc.size(), other.size());
      for (size_t i = 0; i < mc.size(); ++i) {
        EXPECT_EQ(mc[i].index, other[i].index);
        EXPECT_EQ(mc[i].probability, other[i].probability);
        EXPECT_EQ(mc[i].index % 3, 2);
      }
    }
  }
}

TEST(MergedEdges, DeadBucketAlongsideLiveTail) {
  // A fully tombstoned bucket next to a live tail: the dead part must not
  // contribute to Delta or to any stream, and the engine must agree with a
  // fresh engine over just the live point. Erase everything in the first
  // bucket of a real engine to get the shape.
  Options dopt;
  dopt.tail_limit = 4;
  DynamicEngine engine(dopt);
  std::vector<Id> first;
  for (int i = 0; i < 4; ++i) first.push_back(engine.Insert(Loc(i, 0)));
  engine.WaitForMaintenance();
  ASSERT_GE(engine.num_buckets(), 1u);
  Id tail_id = engine.Insert(Loc(10, 10));
  for (Id id : first) EXPECT_TRUE(engine.Erase(id));

  Point2 q{9, 9};
  EXPECT_EQ(engine.NonzeroNN(q), std::vector<Id>{tail_id});
  std::vector<Quantification> quant = engine.QuantifyExact(q);
  ASSERT_EQ(quant.size(), 1u);
  EXPECT_EQ(quant[0].index, tail_id);
  EXPECT_DOUBLE_EQ(quant[0].probability, 1.0);
  // And fully erased: everything answers empty (compaction may or may not
  // have run yet; both shapes must degrade cleanly).
  EXPECT_TRUE(engine.Erase(tail_id));
  EXPECT_TRUE(engine.NonzeroNN(q).empty());
  EXPECT_TRUE(engine.Quantify(q, 0.1).empty());
  EXPECT_TRUE(engine.QuantifyExact(q).empty());
}

TEST(DynamicEngine, InsertWithIdKeepsGlobalIdentity) {
  // The shard-migration shape: an id erased here may come back later (via
  // InsertWithId) while tombstoned copies of it still sit in a bucket or
  // the tail; queries must see exactly the one live copy.
  Options dopt;
  dopt.tail_limit = 4;
  DynamicEngine engine(dopt);
  std::vector<Id> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(engine.Insert(Loc(i, 0)));
  engine.WaitForMaintenance();  // Bucket now holds ids 0..3.
  EXPECT_TRUE(engine.Erase(ids[1]));
  engine.InsertWithId(ids[1], Loc(1, 0));  // Round trip back into the tail.
  EXPECT_EQ(engine.live_size(), 4u);
  std::vector<Id> nn = engine.NonzeroNN({1, 0});
  EXPECT_EQ(std::count(nn.begin(), nn.end(), ids[1]), 1);
  // Erase again: must kill the live tail copy, not re-kill the bucket copy.
  EXPECT_TRUE(engine.Erase(ids[1]));
  EXPECT_EQ(engine.live_size(), 3u);
  nn = engine.NonzeroNN({1, 0});
  EXPECT_EQ(std::count(nn.begin(), nn.end(), ids[1]), 0);
  // Fresh ids continue past any id ever seen.
  engine.InsertWithId(100, Loc(50, 50));
  EXPECT_EQ(engine.Insert(Loc(51, 51)), 101);
}

TEST(DynamicEngineDeath, InsertWithIdRejectsLiveId) {
  DynamicEngine engine;
  Id id = engine.Insert(Disk(0, 0));
  EXPECT_DEATH(engine.InsertWithId(id, Disk(1, 1)), "already live");
  EXPECT_DEATH(engine.InsertWithId(-1, Disk(1, 1)), "nonnegative");
}

TEST(DynamicEngineDeath, InsertWithIdRejectsIdSpaceEnd) {
  // The last Id would leave no next id (next_id_ = id + 1 overflows); no
  // caller ever assigns it.
  DynamicEngine engine;
  EXPECT_DEATH(engine.InsertWithId(std::numeric_limits<Id>::max(), Disk(0, 0)),
               "id space exhausted");
  engine.InsertWithId(std::numeric_limits<Id>::max() - 1, Disk(0, 0));
  EXPECT_TRUE(engine.IsLive(std::numeric_limits<Id>::max() - 1));
  EXPECT_DEATH(DynamicEngine(std::vector<Id>{std::numeric_limits<Id>::max()},
                             UncertainSet{Disk(0, 0)}),
               "id space exhausted");
}

// Recovered buckets with their masks, as the durable store hands them over.
std::vector<RecoveredBucket> TwoRecoveredBuckets(std::vector<char> second_dead) {
  Engine::Options options;
  std::vector<RecoveredBucket> out;
  out.push_back({std::make_shared<const Bucket>(std::vector<Id>{1, 5},
                                                UncertainSet{Disk(0, 0), Disk(5, 0)},
                                                options),
                 {}});
  out.push_back({std::make_shared<const Bucket>(std::vector<Id>{5, 9},
                                                UncertainSet{Disk(5, 1), Disk(9, 0)},
                                                options),
                 std::move(second_dead)});
  return out;
}

TEST(DynamicEngineDeath, RecoveryRejectsDuplicateLiveIds) {
  // Id 5 sits in both buckets. Dead in the second it is a stale copy (a
  // shard migration round trip); live in both, the store is corrupt.
  DynamicEngine ok(TwoRecoveredBuckets({1, 0}), /*next_id_floor=*/0);
  EXPECT_EQ(ok.live_size(), 3u);
  EXPECT_TRUE(ok.IsLive(5));
  EXPECT_EQ(ok.Insert(Disk(20, 20)), 10);
  EXPECT_TRUE(ok.Erase(5));
  EXPECT_FALSE(ok.IsLive(5));
  EXPECT_DEATH(DynamicEngine(TwoRecoveredBuckets({}), 0), "duplicate live id");
}

TEST(DynamicEngine, TailSampleCacheRepeatsBitIdentically) {
  // Repeated Monte-Carlo quantifications against one snapshot go through
  // the tail-sample cache after the first; the answers must not move, and
  // must survive a rounds extension (a tighter eps on the same snapshot).
  Options opt;
  opt.engine.spiral_budget_fraction = 1e-9;  // Force the MC plan.
  opt.engine.mc_rounds_override = 0;         // Rounds scale with eps.
  opt.tail_limit = 64;                       // Keep everything in the tail.
  DynamicEngine engine(opt);
  for (int i = 0; i < 12; ++i) engine.Insert(Loc(i, i % 3));
  ASSERT_GT(engine.tail_size(), 0u);
  ASSERT_EQ(engine.PlanForQuantify(0.2), QuantifyPlan::kMonteCarlo);

  Point2 q{2, 1};
  std::vector<Quantification> cold = engine.Quantify(q, 0.2);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<Quantification> warm = engine.Quantify(q, 0.2);
    ASSERT_EQ(warm.size(), cold.size());
    for (size_t i = 0; i < warm.size(); ++i) {
      EXPECT_EQ(warm[i].index, cold[i].index);
      EXPECT_EQ(warm[i].probability, cold[i].probability);
    }
  }
  // Tighter eps: more rounds, the cache extends in place; the tighter
  // answers must agree with a fresh engine fed the same set.
  std::vector<Quantification> tight = engine.Quantify(q, 0.1);
  DynamicEngine fresh(engine.LiveSet(), opt);
  // fresh holds one bucket, engine holds a pure tail: both decompose to
  // the same id-keyed sample streams.
  std::vector<Quantification> want = fresh.Quantify(q, 0.1);
  ASSERT_EQ(tight.size(), want.size());
  for (size_t i = 0; i < tight.size(); ++i) {
    EXPECT_EQ(tight[i].index, want[i].index);
    EXPECT_EQ(tight[i].probability, want[i].probability);
  }
}

TEST(DynamicEngine, PrewarmAfterBuildKeepsAnswersIdentical) {
  // prewarm_after_build only moves construction work into the maintenance
  // job; every answer must match an engine without it, op for op.
  Options warm_opt;
  warm_opt.engine.spiral_budget_fraction = 1e-9;
  warm_opt.engine.mc_rounds_override = 24;
  warm_opt.tail_limit = 8;
  warm_opt.prewarm_after_build = true;
  Options cold_opt = warm_opt;
  cold_opt.prewarm_after_build = false;

  DynamicEngine warm(warm_opt), cold(cold_opt);
  Rng rng(661);
  for (int i = 0; i < 60; ++i) {
    UncertainPoint p = Loc(rng.Uniform(-20, 20), rng.Uniform(-20, 20));
    ASSERT_EQ(warm.Insert(p), cold.Insert(p));
    if (i % 5 == 4) {
      Point2 q{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
      std::vector<Quantification> a = warm.Quantify(q, 0.15);
      std::vector<Quantification> b = cold.Quantify(q, 0.15);
      ASSERT_EQ(a.size(), b.size());
      for (size_t j = 0; j < a.size(); ++j) {
        EXPECT_EQ(a[j].index, b[j].index);
        EXPECT_EQ(a[j].probability, b[j].probability);
      }
    }
  }
  warm.WaitForMaintenance();
  ASSERT_GE(warm.num_buckets(), 1u);
}

}  // namespace
}  // namespace dyn
}  // namespace pnn
