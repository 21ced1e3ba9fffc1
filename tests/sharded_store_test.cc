// Durable sharded store: per-shard write-ahead logs wired into the shard
// router's UpdateListener hook. Covers round-trip recovery of interleaved
// churn, rebalance moves logged as deltas on both shards, and the torn
// mid-move crash (kMoveIn durable on the destination, kMoveOut missing on
// the source) resolving to a single consistent placement by move_seq.
// Also pins the open-time layout guard (a directory written with more
// shards, or in the retired single-engine layout, is refused; reopening
// with more shards keeps every point) and id-space exhaustion being
// refused before anything is logged.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/store/log.h"
#include "src/store/manifest.h"
#include "src/store/sharded_store.h"
#include "src/util/check.h"

namespace pnn {
namespace store {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

UncertainPoint TestPoint(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 3));
  Point2 c{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  std::vector<Point2> locs(k);
  std::vector<double> w(k);
  double total = 0.0;
  for (int s = 0; s < k; ++s) {
    locs[s] = {c.x + rng->Uniform(-2, 2), c.y + rng->Uniform(-2, 2)};
    w[s] = rng->Uniform(0.1, 1.0);
    total += w[s];
  }
  for (int s = 0; s < k; ++s) w[s] /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

ShardedStore::Options SmallOptions(uint32_t shards) {
  ShardedStore::Options options;
  options.sharded.num_shards = shards;
  options.sharded.shard.engine.seed = 77;
  options.sharded.shard.engine.mc_rounds_override = 48;
  return options;
}

std::vector<dyn::Id> LiveIds(const shard::ShardedEngine& engine) {
  std::vector<dyn::Id> ids;
  engine.LiveSet(&ids);
  return ids;
}

/// Recovered answers must bit-match a fresh static Engine over the live
/// set — the same contract the in-memory router holds.
void ExpectBitIdenticalToReference(const shard::ShardedEngine& engine,
                                   uint64_t query_seed, int queries) {
  std::vector<dyn::Id> ids;
  UncertainSet live = engine.LiveSet(&ids);
  if (live.empty()) return;
  Engine reference(live, engine.ReferenceEngineOptions());
  Rng rng(query_seed);
  for (int t = 0; t < queries; ++t) {
    Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
    std::vector<dyn::Id> want_nn;
    for (int i : reference.NonzeroNN(q)) want_nn.push_back(ids[i]);
    EXPECT_EQ(engine.NonzeroNN(q), want_nn);
    std::vector<Quantification> got = engine.Quantify(q, 0.1);
    std::vector<Quantification> want = reference.Quantify(q, 0.1);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, ids[want[i].index]);
      EXPECT_EQ(got[i].probability, want[i].probability);
    }
  }
}

TEST(ShardedStore, ChurnReopenBitIdentical) {
  std::string dir = FreshDir("sharded_churn");
  ShardedStore::Options options = SmallOptions(3);
  options.sharded.shard.tail_limit = 8;  // Per-shard merges -> segments.
  std::vector<dyn::Id> acked;
  std::unordered_map<dyn::Id, int> ignore;
  {
    auto store = ShardedStore::Open(dir, options);
    Rng rng(99);
    for (int op = 0; op < 250; ++op) {
      if (acked.empty() || rng.Bernoulli(0.65)) {
        acked.push_back(store->Insert(TestPoint(&rng)).value());
      } else {
        size_t pick = static_cast<size_t>(rng.UniformInt(0, acked.size() - 1));
        EXPECT_TRUE(store->Erase(acked[pick]).value());
        acked.erase(acked.begin() + static_cast<long>(pick));
      }
    }
    ExpectBitIdenticalToReference(store->engine(), 1, 6);
  }
  std::sort(acked.begin(), acked.end());

  auto reopened = ShardedStore::Open(dir, options);
  EXPECT_EQ(LiveIds(reopened->engine()), acked);
  ExpectBitIdenticalToReference(reopened->engine(), 2, 12);

  // New ids continue after the recovered counter.
  Rng rng(7);
  dyn::Id next = reopened->Insert(TestPoint(&rng)).value();
  EXPECT_GT(next, acked.back());
}

TEST(ShardedStore, RebalanceMovesAreDurable) {
  std::string dir = FreshDir("sharded_rebalance");
  ShardedStore::Options options = SmallOptions(2);
  // The fresh spatial router splits at 0, so points confined to the
  // positive quadrant all land in one shard: guaranteed imbalance, and
  // RebalanceNow really moves points through the OnMove ->
  // kMoveIn/kMoveOut logging path.
  options.sharded.placement = shard::PlacementKind::kSpatialKdMedian;
  options.sharded.rebalance_min_points = 32;
  options.sharded.rebalance_max_imbalance = 1.2;
  std::vector<dyn::Id> acked;
  {
    auto store = ShardedStore::Open(dir, options);
    Rng rng(13);
    for (int i = 0; i < 160; ++i) {
      Point2 c{rng.Uniform(10, 60), rng.Uniform(10, 60)};
      acked.push_back(store->Insert(UncertainPoint::Discrete({c}, {1.0})).value());
    }
    store->engine().RebalanceNow();
    ASSERT_GT(store->engine().rebalance_stats().points_moved, 0u);
    EXPECT_EQ(store->engine().live_size(), acked.size());
    ExpectBitIdenticalToReference(store->engine(), 3, 5);
  }

  auto reopened = ShardedStore::Open(dir, options);
  EXPECT_EQ(LiveIds(reopened->engine()), acked);
  ExpectBitIdenticalToReference(reopened->engine(), 4, 10);
}

TEST(ShardedStore, CheckpointRotatesEveryShard) {
  std::string dir = FreshDir("sharded_checkpoint");
  ShardedStore::Options options = SmallOptions(2);
  options.sharded.shard.tail_limit = 4;
  std::vector<dyn::Id> acked;
  {
    auto store = ShardedStore::Open(dir, options);
    Rng rng(17);
    for (int i = 0; i < 60; ++i) acked.push_back(store->Insert(TestPoint(&rng)).value());
    PNN_CHECK_MSG(store->Checkpoint().ok(), "checkpoint failed");
    std::vector<Stats> stats = store->stats();
    for (const Stats& s : stats) EXPECT_GE(s.checkpoints, 1u);
  }
  auto reopened = ShardedStore::Open(dir, options);
  EXPECT_EQ(LiveIds(reopened->engine()), acked);
  std::vector<Stats> stats = reopened->stats();
  uint64_t recovered_buckets = 0;
  for (const Stats& s : stats) recovered_buckets += s.recovered_buckets;
  EXPECT_GE(recovered_buckets, 1u) << "post-checkpoint recovery loads segments";
  ExpectBitIdenticalToReference(reopened->engine(), 5, 10);
}

TEST(ShardedStore, TornMoveRecoversToSinglePlacement) {
  std::string dir = FreshDir("sharded_torn_move");
  ShardedStore::Options options = SmallOptions(2);
  Rng rng(23);
  std::vector<UncertainPoint> points;
  const int kN = 6;
  {
    auto store = ShardedStore::Open(dir, options);
    for (int i = 0; i < kN; ++i) {
      points.push_back(TestPoint(&rng));
      ASSERT_EQ(store->Insert(points.back()).value(), i);
    }
  }

  // Find the shard that owns id 0 (its log holds the kInsert), and forge
  // the first half of a move: a durable kMoveIn on the OTHER shard with
  // no matching kMoveOut — exactly what a crash between the two listener
  // appends leaves behind.
  int src = -1;
  for (int s = 0; s < 2; ++s) {
    LogReplay replay = ReadLog(dir + "/shard-" + std::to_string(s) + "/oplog-1");
    for (const LogRecord& rec : replay.records) {
      if (rec.type == LogRecordType::kInsert && rec.id == 0) src = s;
    }
  }
  ASSERT_NE(src, -1);
  int dst = 1 - src;
  std::string dst_log = dir + "/shard-" + std::to_string(dst) + "/oplog-1";
  LogReplay dst_replay = ReadLog(dst_log);
  ASSERT_FALSE(dst_replay.records.empty());
  LogRecord move_in;
  move_in.type = LogRecordType::kMoveIn;
  move_in.seqno = dst_replay.records.back().seqno + 1;
  move_in.id = 0;
  move_in.move_seq = 5;  // Any seq > 0 beats the source's plain insert.
  move_in.point = points[0];
  std::string frame;
  AppendLogRecord(move_in, &frame);
  {
    std::ofstream out(dst_log, std::ios::binary | std::ios::app);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }

  // Recovery: id 0 is live in both shards' logged state; the destination
  // (higher move_seq) must win, exactly once, and the loser's erase must
  // be made durable so a second recovery agrees.
  std::vector<dyn::Id> all_ids;
  for (int i = 0; i < kN; ++i) all_ids.push_back(i);
  {
    auto store = ShardedStore::Open(dir, options);
    EXPECT_EQ(store->engine().live_size(), static_cast<size_t>(kN));
    EXPECT_EQ(LiveIds(store->engine()), all_ids);
    ExpectBitIdenticalToReference(store->engine(), 6, 8);
  }
  // The loser's log now carries the resolving erase.
  LogReplay src_replay = ReadLog(dir + "/shard-" + std::to_string(src) + "/oplog-1");
  bool saw_erase = false;
  for (const LogRecord& rec : src_replay.records) {
    if (rec.type == LogRecordType::kErase && rec.id == 0) saw_erase = true;
  }
  EXPECT_TRUE(saw_erase);

  // Second recovery: stable, no duplicate, same answers.
  auto again = ShardedStore::Open(dir, options);
  EXPECT_EQ(LiveIds(again->engine()), all_ids);
  ExpectBitIdenticalToReference(again->engine(), 7, 8);
}

TEST(ShardedStore, EmptyStoreReopens) {
  std::string dir = FreshDir("sharded_empty");
  ShardedStore::Options options = SmallOptions(4);
  { auto store = ShardedStore::Open(dir, options); }
  auto reopened = ShardedStore::Open(dir, options);
  EXPECT_EQ(reopened->engine().live_size(), 0u);
  Rng rng(1);
  EXPECT_EQ(reopened->Insert(TestPoint(&rng)).value(), 0);
}

TEST(ShardedStore, ReopenWithMoreShardsKeepsEveryPoint) {
  std::string dir = FreshDir("sharded_grow");
  std::vector<dyn::Id> acked;
  {
    auto store = ShardedStore::Open(dir, SmallOptions(2));
    Rng rng(31);
    for (int i = 0; i < 200; ++i) {
      acked.push_back(store->Insert(TestPoint(&rng)).value());
    }
  }
  // The two new shards open empty; the id->shard map is rebuilt from the
  // recovered live sets, so every old point stays where it was logged.
  auto grown = ShardedStore::Open(dir, SmallOptions(4));
  EXPECT_EQ(grown->num_shards(), 4u);
  EXPECT_EQ(LiveIds(grown->engine()), acked);
  ExpectBitIdenticalToReference(grown->engine(), 8, 50);
  Rng rng(32);
  dyn::Id next = grown->Insert(TestPoint(&rng)).value();
  EXPECT_EQ(next, 200);
  EXPECT_TRUE(grown->Erase(0).value());
}

TEST(ShardedStoreDeathTest, FewerShardsThanOnDiskAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string dir = FreshDir("sharded_shrink");
  {
    auto store = ShardedStore::Open(dir, SmallOptions(4));
    Rng rng(33);
    for (int i = 0; i < 100; ++i) store->Insert(TestPoint(&rng)).value();
  }
  // Opening shards 0 and 1 alone would serve about half the acked points.
  EXPECT_DEATH(ShardedStore::Open(dir, SmallOptions(2)), "beyond num_shards");
}

TEST(ShardedStoreDeathTest, RootManifestAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string dir = FreshDir("sharded_root_manifest");
  fs::create_directories(dir);
  // The retired single-engine layout kept its MANIFEST at the root.
  Manifest m;
  m.generation = 1;
  m.engine_seed = 77;
  ASSERT_TRUE(WriteManifest(dir + "/MANIFEST", m).ok());
  EXPECT_DEATH(ShardedStore::Open(dir, SmallOptions(1)), "single-engine layout");
}

TEST(ShardedStoreDeathTest, IdExhaustionAbortsBeforeLogging) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string dir = FreshDir("sharded_id_exhaustion");
  { auto store = ShardedStore::Open(dir, SmallOptions(1)); }
  // Start the id counter at the top of the id space.
  const std::string manifest_path = dir + "/shard-0/MANIFEST";
  Manifest m;
  ASSERT_TRUE(ReadManifest(manifest_path, &m));
  m.next_id = std::numeric_limits<dyn::Id>::max();
  ASSERT_TRUE(WriteManifest(manifest_path, m).ok());

  {
    auto store = ShardedStore::Open(dir, SmallOptions(1));
    Rng rng(34);
    EXPECT_DEATH((void)store->Insert(TestPoint(&rng)), "id space exhausted");
  }
  // The refused insert never reached the log: nothing to replay.
  auto reopened = ShardedStore::Open(dir, SmallOptions(1));
  EXPECT_EQ(LiveIds(reopened->engine()), std::vector<dyn::Id>{});
  EXPECT_EQ(reopened->stats()[0].recovered_ops, 0u);
}

}  // namespace
}  // namespace store
}  // namespace pnn
