// A DynamicEngine's snapshot is the durable store's read surface: its
// buckets with their positional tombstone masks and live counts, and its
// live tail as one bucket (tail_bucket, ascending ids). Its live view must
// always equal LiveSet(), across merges, compactions and interleaved
// erases, and a pinned snapshot keeps describing its own live set.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/dyn/dynamic_engine.h"

namespace pnn {
namespace dyn {
namespace {

UncertainPoint TestPoint(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 3));
  std::vector<Point2> locs(k);
  std::vector<double> w(k, 1.0 / k);
  for (int s = 0; s < k; ++s) {
    locs[s] = {rng->Uniform(-20, 20), rng->Uniform(-20, 20)};
  }
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

/// Gathers the live ids a snapshot describes: each bucket's unmasked ids,
/// then the tail bucket's.
std::vector<Id> SnapshotLiveIds(const Snapshot& snap) {
  std::vector<Id> live;
  for (const Snapshot::BucketRef& ref : snap.buckets) {
    size_t bucket_live = 0;
    for (size_t i = 0; i < ref.bucket->size(); ++i) {
      if (ref.dead == nullptr || (*ref.dead)[i] == 0) {
        live.push_back(ref.bucket->id(i));
        ++bucket_live;
      }
    }
    EXPECT_EQ(bucket_live, ref.live_count);
    if (ref.dead != nullptr) {
      EXPECT_EQ(ref.dead->size(), ref.bucket->size());
    }
  }
  if (snap.tail_bucket != nullptr) {
    for (size_t i = 0; i < snap.tail_bucket->size(); ++i) {
      if (i > 0) {
        EXPECT_LT(snap.tail_bucket->id(i - 1), snap.tail_bucket->id(i));
      }
      live.push_back(snap.tail_bucket->id(i));
    }
  }
  return live;
}

TEST(SnapshotContents, MatchesLiveSetThroughChurn) {
  Rng rng(77);
  Options options;
  options.tail_limit = 8;  // Frequent merges.
  options.max_dead_fraction = 0.3;
  DynamicEngine engine(options);

  std::vector<Id> live;
  for (int op = 0; op < 400; ++op) {
    int r = static_cast<int>(rng.UniformInt(0, 9));
    if (r < 6 || live.empty()) {
      live.push_back(engine.Insert(TestPoint(&rng)));
    } else {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      ASSERT_TRUE(engine.Erase(live[pick]));
      live.erase(live.begin() + static_cast<long>(pick));
    }
    if (op % 20 != 0) continue;

    std::shared_ptr<const Snapshot> snap = engine.snapshot();
    EXPECT_EQ(snap->live_count, live.size());

    std::vector<Id> got = SnapshotLiveIds(*snap);
    EXPECT_EQ(got.size(), live.size());
    // Each live id appears exactly once across the whole partition.
    std::set<Id> unique(got.begin(), got.end());
    EXPECT_EQ(unique.size(), got.size());

    std::vector<Id> want_ids;
    engine.LiveSet(&want_ids);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want_ids);
  }
}

TEST(SnapshotContents, EmptyEngine) {
  DynamicEngine engine;
  std::shared_ptr<const Snapshot> snap = engine.snapshot();
  EXPECT_EQ(snap->live_count, 0u);
  EXPECT_TRUE(snap->buckets.empty());
  EXPECT_EQ(snap->tail_bucket, nullptr);
}

TEST(SnapshotContents, PinnedSnapshotKeepsItsLiveSet) {
  // A pinned snapshot stays valid while the engine moves on — the store
  // serializes from a pin, not from live state.
  Rng rng(5);
  Options options;
  options.tail_limit = 4;
  DynamicEngine engine(options);
  for (int i = 0; i < 20; ++i) engine.Insert(TestPoint(&rng));

  std::shared_ptr<const Snapshot> pinned = engine.snapshot();
  std::vector<Id> before = SnapshotLiveIds(*pinned);

  for (int i = 0; i < 50; ++i) engine.Insert(TestPoint(&rng));
  engine.Erase(0);
  engine.WaitForMaintenance();

  std::vector<Id> after = SnapshotLiveIds(*pinned);
  EXPECT_EQ(before, after);
  EXPECT_EQ(pinned->live_count, 20u);
}

}  // namespace
}  // namespace dyn
}  // namespace pnn
