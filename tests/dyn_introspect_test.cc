// The snapshot-introspection hook (dyn::Introspect) is the durable
// store's read surface: it must enumerate exactly the frozen state — per
// bucket the ids with their positional tombstone masks, the tail in
// insertion order with its mask — and its live view must always equal
// LiveSet(), across merges, compactions and interleaved erases.

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

/// Gathers the live ids an introspection view describes.
std::vector<Id> IntrospectedLiveIds(const SnapshotIntrospection& in) {
  std::vector<Id> live;
  for (const SnapshotIntrospection::BucketView& bv : in.buckets) {
    size_t bucket_live = 0;
    for (size_t i = 0; i < bv.bucket->size(); ++i) {
      if (bv.dead == nullptr || (*bv.dead)[i] == 0) {
        live.push_back(bv.bucket->id(i));
        ++bucket_live;
      }
    }
    EXPECT_EQ(bucket_live, bv.live_count);
    if (bv.dead != nullptr) {
      EXPECT_EQ(bv.dead->size(), bv.bucket->size());
    }
  }
  EXPECT_NE(in.tail, nullptr);
  for (size_t i = 0; i < in.tail->size(); ++i) {
    if (in.tail_dead == nullptr || (*in.tail_dead)[i] == 0) {
      live.push_back((*in.tail)[i].id);
    }
  }
  if (in.tail_dead != nullptr) {
    EXPECT_EQ(in.tail_dead->size(), in.tail->size());
  }
  return live;
}

TEST(DynIntrospect, MatchesLiveSetThroughChurn) {
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
    SnapshotIntrospection in = Introspect(*snap);
    EXPECT_EQ(in.live_count, live.size());

    std::vector<Id> got = IntrospectedLiveIds(in);
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

TEST(DynIntrospect, EmptyEngine) {
  DynamicEngine engine;
  SnapshotIntrospection in = Introspect(*engine.snapshot());
  EXPECT_EQ(in.live_count, 0u);
  EXPECT_TRUE(in.buckets.empty());
  ASSERT_NE(in.tail, nullptr);
  EXPECT_TRUE(in.tail->empty());
}

TEST(DynIntrospect, ViewsBorrowFromAPinnedSnapshot) {
  // The introspection stays valid against its snapshot while the engine
  // moves on — the store serializes from a pin, not from live state.
  Rng rng(5);
  Options options;
  options.tail_limit = 4;
  DynamicEngine engine(options);
  for (int i = 0; i < 20; ++i) engine.Insert(TestPoint(&rng));

  std::shared_ptr<const Snapshot> pinned = engine.snapshot();
  SnapshotIntrospection in = Introspect(*pinned);
  std::vector<Id> before = IntrospectedLiveIds(in);

  for (int i = 0; i < 50; ++i) engine.Insert(TestPoint(&rng));
  engine.Erase(0);
  engine.WaitForMaintenance();

  std::vector<Id> after = IntrospectedLiveIds(in);
  EXPECT_EQ(before, after);
  EXPECT_EQ(in.live_count, 20u);
}

}  // namespace
}  // namespace dyn
}  // namespace pnn
