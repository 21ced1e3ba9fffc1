// Zero-allocation guarantees of the steady-state query hot path: with warm
// caches (bucket Monte-Carlo rounds, tail samples, the shard router's
// combined view) and a warm per-thread scratch arena, QuantifyInto on the
// spiral and Monte-Carlo paths of both the dynamic engine and the shard
// router performs zero heap allocations. Referencing
// util::AllocationCount() links in the counting operator new override
// (util/alloc_hook.cc), so the assertions see every allocation in the
// process.

#include <vector>

#include <gtest/gtest.h>

#include "src/api/engine_ref.h"
#include "src/dyn/dynamic_engine.h"
#include "src/shard/sharded_engine.h"
#include "src/util/alloc_hook.h"
#include "src/util/rng.h"

namespace pnn {
namespace {

UncertainPoint SmallDiscrete(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 3));
  std::vector<Point2> locs(k);
  std::vector<double> w(k);
  double total = 0;
  for (int s = 0; s < k; ++s) {
    locs[s] = {rng->Uniform(-40, 40), rng->Uniform(-40, 40)};
    w[s] = rng->Uniform(0.2, 1.0);
    total += w[s];
  }
  for (int s = 0; s < k; ++s) w[s] /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

// Engines are built with churn so the structure has several buckets, live
// tombstone masks and a non-empty tail — the worst steady-state shape.
template <typename EngineT>
void Churn(EngineT* engine, Rng* rng, int n) {
  for (int i = 0; i < n; ++i) engine->Insert(SmallDiscrete(rng));
  for (int i = 0; i < n / 4; ++i) {
    engine->Erase(static_cast<dyn::Id>(i * 3 % n));
    engine->Insert(SmallDiscrete(rng));
  }
}

// Warm with the exact query set (settles caches and every scratch/output
// capacity), then assert the same queries allocate nothing.
template <typename EngineT>
void ExpectZeroAllocQueries(EngineT* engine, const std::vector<Point2>& queries,
                            double eps) {
  std::vector<Quantification> out;
  for (int pass = 0; pass < 2; ++pass) {
    for (Point2 q : queries) engine->View()->QuantifyInto(q, eps, &out);
  }
  for (Point2 q : queries) {
    int64_t before = util::AllocationCount();
    engine->View()->QuantifyInto(q, eps, &out);
    int64_t delta = util::AllocationCount() - before;
    EXPECT_EQ(delta, 0) << "allocations in a warm query at (" << q.x << ", " << q.y
                        << ")";
    EXPECT_FALSE(out.empty());
  }
}

std::vector<Point2> TestQueries(Rng* rng, int count) {
  std::vector<Point2> qs(count);
  for (auto& q : qs) q = {rng->Uniform(-45, 45), rng->Uniform(-45, 45)};
  return qs;
}

dyn::Options DynOptions(bool monte_carlo) {
  dyn::Options opt;
  opt.engine.seed = 99;
  if (monte_carlo) {
    opt.engine.spiral_budget_fraction = 1e-9;  // Force the MC plan.
    opt.engine.mc_rounds_override = 24;
  }
  return opt;
}

TEST(AllocHotpath, DynamicSpiralQueriesAllocateNothing) {
  Rng rng(501);
  dyn::DynamicEngine engine(DynOptions(false));
  Churn(&engine, &rng, 300);
  ASSERT_EQ(engine.View()->PlanForQuantify(0.1), QuantifyPlan::kSpiral);
  ExpectZeroAllocQueries(&engine, TestQueries(&rng, 8), 0.1);
}

TEST(AllocHotpath, DynamicMonteCarloQueriesAllocateNothing) {
  Rng rng(503);
  dyn::DynamicEngine engine(DynOptions(true));
  Churn(&engine, &rng, 300);
  ASSERT_EQ(engine.View()->PlanForQuantify(0.1), QuantifyPlan::kMonteCarlo);
  ASSERT_GT(engine.tail_size(), 0u);  // The tail-sample cache is exercised.
  ExpectZeroAllocQueries(&engine, TestQueries(&rng, 8), 0.1);
}

TEST(AllocHotpath, ShardedSpiralQueriesAllocateNothing) {
  Rng rng(505);
  shard::Options sopt;
  sopt.num_shards = 3;
  sopt.shard = DynOptions(false);
  shard::ShardedEngine engine(sopt);
  Churn(&engine, &rng, 300);
  ASSERT_EQ(engine.View()->PlanForQuantify(0.1), QuantifyPlan::kSpiral);
  shard::SnapshotCacheStats before = engine.snapshot_cache_stats();
  ExpectZeroAllocQueries(&engine, TestQueries(&rng, 8), 0.1);
  // The warm queries all hit the combined-snapshot cache.
  shard::SnapshotCacheStats after = engine.snapshot_cache_stats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(AllocHotpath, ShardedMonteCarloQueriesAllocateNothing) {
  Rng rng(507);
  shard::Options sopt;
  sopt.num_shards = 3;
  sopt.shard = DynOptions(true);
  shard::ShardedEngine engine(sopt);
  Churn(&engine, &rng, 300);
  ASSERT_EQ(engine.View()->PlanForQuantify(0.1), QuantifyPlan::kMonteCarlo);
  ExpectZeroAllocQueries(&engine, TestQueries(&rng, 8), 0.1);
}

// NonzeroNN joins Quantify at zero allocations per warm query: stage 1
// runs on scratch-backed kd walks, stage 2 reports through the
// NonzeroNNWithinInto chain into scratch, and the merged ids land in the
// caller's buffer.
template <typename EngineT>
void ExpectZeroAllocNonzeroNN(EngineT* engine, const std::vector<Point2>& queries) {
  std::vector<dyn::Id> out;
  for (int pass = 0; pass < 2; ++pass) {
    for (Point2 q : queries) engine->View()->NonzeroNNInto(q, &out);
  }
  bool any_nonempty = false;
  for (Point2 q : queries) {
    int64_t before = util::AllocationCount();
    engine->View()->NonzeroNNInto(q, &out);
    int64_t delta = util::AllocationCount() - before;
    EXPECT_EQ(delta, 0) << "allocations in a warm NonzeroNN at (" << q.x << ", "
                        << q.y << ")";
    // Empty answers are legitimate (a k=1 point that attains Delta(q)
    // reports nothing under the strict bound); just ensure the workload
    // isn't vacuous overall.
    any_nonempty = any_nonempty || !out.empty();
  }
  EXPECT_TRUE(any_nonempty);
}

TEST(AllocHotpath, DynamicNonzeroNNAllocatesNothing) {
  Rng rng(511);
  dyn::DynamicEngine engine(DynOptions(false));
  Churn(&engine, &rng, 300);
  ASSERT_GT(engine.tail_size(), 0u);
  ExpectZeroAllocNonzeroNN(&engine, TestQueries(&rng, 8));
}

TEST(AllocHotpath, ShardedNonzeroNNAllocatesNothing) {
  Rng rng(513);
  shard::Options sopt;
  sopt.num_shards = 3;
  sopt.shard = DynOptions(false);
  shard::ShardedEngine engine(sopt);
  Churn(&engine, &rng, 300);
  ExpectZeroAllocNonzeroNN(&engine, TestQueries(&rng, 8));
}

// EngineRef::Capture() pins every batch-executor query run and every
// served network batch. With a warm view it is one atomic load on a
// dynamic engine (the one-part view is published with each snapshot) and
// the cache validation on a shard router: no allocation either way.
template <typename EngineT>
void ExpectZeroAllocCapture(EngineT* engine) {
  api::EngineRef ref(engine);
  api::EngineRef::Pin warm = ref.Capture();  // Rebuilds a stale shard view.
  ASSERT_NE(warm.view, nullptr);
  for (int i = 0; i < 8; ++i) {
    int64_t before = util::AllocationCount();
    api::EngineRef::Pin pin = ref.Capture();
    int64_t delta = util::AllocationCount() - before;
    EXPECT_EQ(delta, 0) << "allocations in a warm Capture()";
    EXPECT_EQ(pin.view, warm.view);
  }
}

TEST(AllocHotpath, DynamicCaptureAllocatesNothing) {
  Rng rng(517);
  dyn::DynamicEngine engine(DynOptions(false));
  Churn(&engine, &rng, 300);
  ExpectZeroAllocCapture(&engine);
}

TEST(AllocHotpath, ShardedCaptureAllocatesNothing) {
  Rng rng(519);
  shard::Options sopt;
  sopt.num_shards = 3;
  sopt.shard = DynOptions(false);
  shard::ShardedEngine engine(sopt);
  Churn(&engine, &rng, 300);
  ExpectZeroAllocCapture(&engine);
}

TEST(AllocHotpath, ByteCountersTrackLiveAndPeak) {
  int64_t live_before = util::LiveAllocatedBytes();
  util::ResetPeakAllocatedBytes();
  {
    auto big = std::make_unique<char[]>(1 << 20);
    big[0] = 1;
    EXPECT_GE(util::LiveAllocatedBytes() - live_before, 1 << 20);
    EXPECT_GE(util::PeakAllocatedBytes() - live_before, 1 << 20);
  }
  // Freed: live falls back; the peak remembers.
  EXPECT_LT(util::LiveAllocatedBytes() - live_before, 1 << 20);
  EXPECT_GE(util::PeakAllocatedBytes() - live_before, 1 << 20);
}

// The dynamic engine stores its live set once: in its buckets (and tail),
// with no id -> point map beside them. A bulk-loaded engine is one bucket,
// whose static engine is built exactly like a standalone Engine over the
// same points; what the dynamic engine holds beyond that (its bucket's
// stream ids, the aggregate multisets, one snapshot) must stay below the
// bytes of one more copy of the points.
TEST(AllocHotpath, DynamicEngineHoldsEachPointOnce) {
  Rng rng(517);
  UncertainSet points;
  for (int i = 0; i < 2000; ++i) points.push_back(SmallDiscrete(&rng));
  dyn::Options opt = DynOptions(false);

  int64_t base = util::LiveAllocatedBytes();
  int64_t one_copy;
  {
    UncertainSet copy = points;
    one_copy = util::LiveAllocatedBytes() - base;
  }
  int64_t static_bytes;
  {
    Engine reference(points, opt.engine);
    static_bytes = util::LiveAllocatedBytes() - base;
  }
  int64_t dynamic_bytes;
  {
    dyn::DynamicEngine engine(points, opt);
    dynamic_bytes = util::LiveAllocatedBytes() - base;
  }
  ASSERT_GT(one_copy, 0);
  EXPECT_GT(dynamic_bytes, static_bytes);
  EXPECT_LT(dynamic_bytes - static_bytes, one_copy)
      << "dynamic " << dynamic_bytes << "B vs static " << static_bytes
      << "B: the live set is held twice";
}

// Theorem 4.3's rounds are s instantiations of the set, so the samples
// are nearly all of a Monte-Carlo engine's memory. The sample block holds
// each sample once as two doubles (16 B) in one point-major row per point,
// with no per-round search structure: a kd tree per round (about 36 B a
// sample) or a second copy of the samples (32 B) fails the upper bound.
TEST(AllocHotpath, SampleBlockHoldsEachSampleOnce) {
  Rng rng(519);
  UncertainSet disks;
  for (int i = 0; i < 2000; ++i) {
    disks.push_back(UncertainPoint::UniformDisk(
        {rng.Uniform(-40, 40), rng.Uniform(-40, 40)}, rng.Uniform(0.5, 3.0)));
  }
  Engine::Options options;
  options.seed = 99;
  Engine engine(disks, options);

  const size_t rounds = 256;
  int64_t before = util::LiveAllocatedBytes();
  std::shared_ptr<const McSamples> block = engine.EnsureRounds(rounds);
  int64_t block_bytes = util::LiveAllocatedBytes() - before;
  ASSERT_EQ(block->rounds, rounds);
  ASSERT_EQ(engine.MonteCarloRounds(), rounds);
  double per_sample =
      static_cast<double>(block_bytes) / static_cast<double>(rounds * disks.size());
  EXPECT_GT(per_sample, 15.0);  // The samples themselves are in there.
  EXPECT_LT(per_sample, 17.0) << block_bytes << " B over " << rounds << " rounds";
}

// Transient memory of a sliced compaction: the maintenance build reuses
// the gathered live set as the new structure's own storage, so its peak
// must stay below a naive rebuild that copies the live set and builds an
// engine from the copy (live set + structure + copy). This is the
// "live set + one chunk, not 2x the structure" bound in a directly
// measurable form.
TEST(AllocHotpath, SlicedCompactionTransientPeakBounded) {
  Rng rng(515);
  dyn::Options opt = DynOptions(false);
  opt.tail_limit = 64;
  opt.max_dead_fraction = 0.25;
  opt.build_chunk = 512;
  dyn::DynamicEngine engine(opt);
  for (int i = 0; i < 4000; ++i) engine.Insert(SmallDiscrete(&rng));
  engine.WaitForMaintenance();

  // Naive baseline: gather a copy, build a throwaway engine from it.
  UncertainSet live_set = engine.LiveSet(nullptr);
  int64_t live0 = util::LiveAllocatedBytes();
  util::ResetPeakAllocatedBytes();
  {
    UncertainSet copy = live_set;
    Engine naive(copy, engine.ReferenceEngineOptions());
  }
  int64_t naive_peak = util::PeakAllocatedBytes() - live0;

  // Sliced maintenance compaction over the same live set: erase a third
  // (crossing max_dead_fraction) to force the full rebuild.
  size_t live = engine.live_size();
  int64_t live1 = util::LiveAllocatedBytes();
  util::ResetPeakAllocatedBytes();
  for (size_t i = 0; i < live / 3; ++i) {
    engine.Erase(static_cast<dyn::Id>(i));
  }
  engine.WaitForMaintenance();
  int64_t maintenance_peak = util::PeakAllocatedBytes() - live1;

  EXPECT_GT(maintenance_peak, 0);
  EXPECT_LT(maintenance_peak, naive_peak)
      << "sliced compaction transient (" << maintenance_peak
      << "B) should undercut a copy-and-rebuild (" << naive_peak << "B)";
}

TEST(AllocHotpath, UpdatesInvalidateThenQueriesRewarm) {
  // After an update the first query may allocate (view + tail cache
  // rebuild); the steady state after it must return to zero.
  Rng rng(509);
  shard::Options sopt;
  sopt.num_shards = 3;
  sopt.shard = DynOptions(true);
  shard::ShardedEngine engine(sopt);
  Churn(&engine, &rng, 200);
  std::vector<Point2> queries = TestQueries(&rng, 4);
  ExpectZeroAllocQueries(&engine, queries, 0.1);
  engine.Insert(SmallDiscrete(&rng));
  ExpectZeroAllocQueries(&engine, queries, 0.1);
}

}  // namespace
}  // namespace pnn
