// Cross-width differential: KdBuildOptions::leaf_size is a pure layout
// knob — every backend must answer BIT-IDENTICALLY at every leaf width,
// under both SIMD dispatch modes. This is the tie contract of kdtree.cc
// made load-bearing: leaf order is index-sorted, traversals never prune a
// tying bound, argmin updates and the incremental heap break distance ties
// by lowest point index — so the winner is a function of the point set,
// not of where leaf boundaries fall.
//
// Point sets here contain deliberate exact duplicates (shared locations,
// concentric disks) so distance ties actually occur and the contract is
// exercised, not just stated.
//
// Also here: the recovery round trip at a non-default width — a store
// checkpointed at leaf_size 32 reopens with trees that report the built
// width and answer bit-identically.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/prob/monte_carlo.h"
#include "src/dyn/dynamic_engine.h"
#include "src/shard/sharded_engine.h"
#include "src/spatial/kdtree.h"
#include "src/store/sharded_store.h"
#include "src/util/simd.h"

namespace pnn {
namespace {

const int kWidths[] = {4, 8, 16, 32, 64};
constexpr int kBaseWidth = 8;

// Discrete set with shared exact locations across points (tie fodder).
UncertainSet TieProneDiscreteSet(int n, Rng* rng) {
  std::vector<Point2> shared(8);
  for (auto& p : shared) p = {rng->Uniform(-20, 20), rng->Uniform(-20, 20)};
  UncertainSet set;
  for (int i = 0; i < n; ++i) {
    int k = static_cast<int>(rng->UniformInt(1, 3));
    std::vector<Point2> locs(k);
    std::vector<double> w(k, 1.0 / k);
    for (int s = 0; s < k; ++s) {
      if (rng->Bernoulli(0.4)) {
        locs[s] = shared[rng->UniformInt(0, shared.size() - 1)];
      } else {
        locs[s] = {rng->Uniform(-20, 20), rng->Uniform(-20, 20)};
      }
    }
    set.push_back(UncertainPoint::Discrete(std::move(locs), std::move(w)));
  }
  return set;
}

// Continuous set with repeated center/radius pairs (equal Delta_i ties).
UncertainSet TieProneContinuousSet(int n, Rng* rng) {
  std::vector<Point2> shared(6);
  for (auto& p : shared) p = {rng->Uniform(-20, 20), rng->Uniform(-20, 20)};
  UncertainSet set;
  for (int i = 0; i < n; ++i) {
    Point2 c = rng->Bernoulli(0.4)
                   ? shared[rng->UniformInt(0, shared.size() - 1)]
                   : Point2{rng->Uniform(-20, 20), rng->Uniform(-20, 20)};
    double r = rng->Bernoulli(0.5) ? 1.5 : rng->Uniform(0.5, 3.0);
    set.push_back(UncertainPoint::UniformDisk(c, r));
  }
  return set;
}

std::vector<Point2> Queries(int n, Rng* rng) {
  std::vector<Point2> qs(n);
  for (auto& q : qs) q = {rng->Uniform(-25, 25), rng->Uniform(-25, 25)};
  return qs;
}

/// Everything one backend answered for one query set, compared with
/// operator== (probabilities bitwise via EXPECT_EQ below).
struct Answers {
  std::vector<std::vector<int>> nonzero;
  std::vector<std::vector<Quantification>> quantify;
  std::vector<std::vector<Quantification>> threshold;
  std::vector<std::vector<Quantification>> exact;
  std::vector<int> most_likely;
};

void ExpectSame(const Answers& got, const Answers& want, int width) {
  ASSERT_EQ(got.nonzero.size(), want.nonzero.size());
  for (size_t i = 0; i < got.nonzero.size(); ++i) {
    EXPECT_EQ(got.nonzero[i], want.nonzero[i]) << "width " << width << " q" << i;
    auto expect_quants = [&](const std::vector<Quantification>& g,
                             const std::vector<Quantification>& w,
                             const char* what) {
      ASSERT_EQ(g.size(), w.size()) << what << " width " << width << " q" << i;
      for (size_t j = 0; j < g.size(); ++j) {
        EXPECT_EQ(g[j].index, w[j].index) << what << " width " << width << " q" << i;
        EXPECT_EQ(g[j].probability, w[j].probability)
            << what << " width " << width << " q" << i;
      }
    };
    expect_quants(got.quantify[i], want.quantify[i], "quantify");
    expect_quants(got.threshold[i], want.threshold[i], "threshold");
    expect_quants(got.exact[i], want.exact[i], "exact");
    EXPECT_EQ(got.most_likely[i], want.most_likely[i]) << "width " << width;
  }
}

// `source` is a static Engine or a pinned dyn::CombinedView.
template <typename Source>
Answers Collect(const Source& source, const std::vector<Point2>& queries,
                double eps) {
  Answers a;
  for (Point2 q : queries) {
    a.nonzero.push_back(source.NonzeroNN(q));
    a.quantify.push_back(source.Quantify(q, eps));
    a.threshold.push_back(source.ThresholdNN(q, 0.25, eps));
    a.exact.push_back(source.QuantifyExact(q));
    a.most_likely.push_back(source.MostLikelyNN(q, eps));
  }
  return a;
}

Answers RunStatic(const UncertainSet& set, const std::vector<Point2>& queries,
                  int width, double eps) {
  Engine::Options opt;
  opt.kd_leaf_size = width;
  opt.mc_rounds_override = 32;
  Engine engine(set, opt);
  return Collect(engine, queries, eps);
}

Answers RunDyn(const UncertainSet& set, const std::vector<Point2>& queries,
               int width, double eps) {
  dyn::Options opt;
  opt.engine.kd_leaf_size = width;
  opt.engine.mc_rounds_override = 32;
  opt.tail_limit = 8;  // Frequent merges: several buckets at every width.
  dyn::DynamicEngine engine(set, opt);
  // Same churn at every width (ids are deterministic).
  int n = static_cast<int>(set.size());
  for (int i = 0; i < n / 4; ++i) engine.Erase(static_cast<dyn::Id>(i * 3 % n));
  return Collect(*engine.View(), queries, eps);
}

Answers RunShard(const UncertainSet& set, const std::vector<Point2>& queries,
                 int width, double eps) {
  shard::Options opt;
  opt.num_shards = 3;
  opt.shard.engine.kd_leaf_size = width;
  opt.shard.engine.mc_rounds_override = 32;
  opt.shard.tail_limit = 8;
  shard::ShardedEngine engine(set, opt);
  int n = static_cast<int>(set.size());
  for (int i = 0; i < n / 4; ++i) engine.Erase(static_cast<dyn::Id>(i * 3 % n));
  return Collect(*engine.View(), queries, eps);
}

enum class Backend { kStatic, kDyn, kShard };

void RunDifferential(Backend backend, bool discrete, bool force_scalar) {
  simd::ForceScalarForTest(force_scalar);
  Rng rng(discrete ? 9101 : 9102);
  UncertainSet set =
      discrete ? TieProneDiscreteSet(120, &rng) : TieProneContinuousSet(120, &rng);
  std::vector<Point2> queries = Queries(30, &rng);
  // Query some shared centers exactly: equidistant-at-zero ties.
  queries.push_back(discrete ? set[0].discrete().locations[0] : queries[0]);
  double eps = 0.1;

  auto run = [&](int width) {
    switch (backend) {
      case Backend::kStatic:
        return RunStatic(set, queries, width, eps);
      case Backend::kDyn:
        return RunDyn(set, queries, width, eps);
      case Backend::kShard:
        return RunShard(set, queries, width, eps);
    }
    return RunStatic(set, queries, width, eps);
  };
  Answers base = run(kBaseWidth);
  for (int width : kWidths) {
    if (width == kBaseWidth) continue;
    ExpectSame(run(width), base, width);
  }
  simd::ForceScalarForTest(false);
}

TEST(KdWidth, StaticDiscrete) { RunDifferential(Backend::kStatic, true, false); }
TEST(KdWidth, StaticContinuous) { RunDifferential(Backend::kStatic, false, false); }
TEST(KdWidth, DynDiscrete) { RunDifferential(Backend::kDyn, true, false); }
TEST(KdWidth, DynContinuous) { RunDifferential(Backend::kDyn, false, false); }
TEST(KdWidth, ShardDiscrete) { RunDifferential(Backend::kShard, true, false); }
TEST(KdWidth, ShardContinuous) { RunDifferential(Backend::kShard, false, false); }

TEST(KdWidth, StaticDiscreteScalarDispatch) {
  RunDifferential(Backend::kStatic, true, true);
}
TEST(KdWidth, StaticContinuousScalarDispatch) {
  RunDifferential(Backend::kStatic, false, true);
}
TEST(KdWidth, DynDiscreteScalarDispatch) {
  RunDifferential(Backend::kDyn, true, true);
}
TEST(KdWidth, ShardDiscreteScalarDispatch) {
  RunDifferential(Backend::kShard, true, true);
}

// Raw kd level: tie-heavy point sets (exact duplicates) through every
// query mode, all widths against the width-8 layout, both dispatch modes.
TEST(KdWidth, RawTreeModesAgreeAcrossWidths) {
  Rng rng(9103);
  std::vector<Point2> pts;
  std::vector<double> weights;
  for (int i = 0; i < 300; ++i) {
    Point2 p{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    int copies = rng.Bernoulli(0.3) ? 3 : 1;  // Exact duplicates.
    for (int c = 0; c < copies; ++c) {
      pts.push_back(p);
      weights.push_back(rng.Bernoulli(0.5) ? 1.25 : rng.Uniform(0, 2));
    }
  }
  std::vector<Point2> queries = Queries(50, &rng);
  queries.push_back(pts[0]);  // Distance-zero tie across duplicates.

  for (bool scalar : {false, true}) {
    simd::ForceScalarForTest(scalar);
    KdBuildOptions base_build;
    base_build.leaf_size = kBaseWidth;
    KdTree base(pts, weights, Metric::kEuclidean, base_build);
    for (int width : kWidths) {
      if (width == kBaseWidth) continue;
      KdBuildOptions build;
      build.leaf_size = width;
      KdTree tree(pts, weights, Metric::kEuclidean, build);
      EXPECT_EQ(tree.leaf_width() <= width, true);
      for (Point2 q : queries) {
        double d0 = 0, d1 = 0, s0 = 0, s1 = 0;
        EXPECT_EQ(tree.Nearest(q, &d1), base.Nearest(q, &d0)) << "width " << width;
        EXPECT_EQ(d1, d0);
        EXPECT_EQ(tree.NearestSquared(q, &s1), base.NearestSquared(q, &s0));
        EXPECT_EQ(s1, s0);
        EXPECT_EQ(tree.KNearest(q, 7), base.KNearest(q, 7)) << "width " << width;
        int a0 = -1, a1 = -1;
        EXPECT_EQ(tree.MinAdditivelyWeighted(q, &a1),
                  base.MinAdditivelyWeighted(q, &a0));
        EXPECT_EQ(a1, a0) << "width " << width;
        // Report modes emit in traversal order, which depends on leaf
        // geometry; the width-independent contract is the reported SET
        // (engine callers sort/merge downstream before answering).
        std::vector<int> r1 = tree.ReportSubtractiveLess(q, 2.5);
        std::vector<int> r0 = base.ReportSubtractiveLess(q, 2.5);
        std::sort(r1.begin(), r1.end());
        std::sort(r0.begin(), r0.end());
        EXPECT_EQ(r1, r0) << "width " << width;
      }
    }
  }
  simd::ForceScalarForTest(false);
}

TEST(KdWidth, LeafWidthReportsBuiltExtent) {
  Rng rng(9104);
  std::vector<Point2> pts(100);
  for (auto& p : pts) p = {rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
  for (int width : kWidths) {
    KdBuildOptions build;
    build.leaf_size = width;
    KdTree tree(pts, {}, Metric::kEuclidean, build);
    EXPECT_GT(tree.leaf_width(), 0);
    EXPECT_LE(tree.leaf_width(), width);
    // A split halves >width ranges, so the widest leaf exceeds width/2
    // whenever the tree has enough points to fill one.
    if (static_cast<int>(pts.size()) > width) {
      EXPECT_GT(tree.leaf_width(), width / 2);
    }
  }
}

// Monte-Carlo round trees are built at the requested width on both paths
// that build them: MonteCarloPNN (the static Engine's structure) and the
// dynamic engine's per-bucket round caches, which take the width from
// Engine::Options::kd_leaf_size. Each round tree must have exactly the
// layout a fresh build of its samples at that width produces.
TEST(KdWidth, McRoundTreesHonorWidth) {
  Rng rng(9106);
  UncertainSet set = TieProneContinuousSet(120, &rng);
  constexpr size_t kRounds = 4;
  auto expect_width = [](const KdTree& tree, int width) {
    KdBuildOptions build;
    build.leaf_size = width;
    KdTree fresh(tree.points(), {}, Metric::kEuclidean, build);
    EXPECT_TRUE(tree.SameStructure(fresh)) << "width " << width;
    EXPECT_LE(tree.leaf_width(), width);
    if (static_cast<int>(tree.size()) > width) {
      EXPECT_GT(tree.leaf_width(), width / 2);
    }
  };
  for (int width : kWidths) {
    MonteCarloPNN::Options mco;
    mco.rounds_override = kRounds;
    mco.build.leaf_size = width;
    MonteCarloPNN mc(set, mco);
    ASSERT_EQ(mc.rounds(), kRounds);
    for (const auto& tree : mc.round_trees().trees) expect_width(*tree, width);

    dyn::Options dopt;
    dopt.engine.kd_leaf_size = width;
    dopt.tail_limit = 8;
    dyn::DynamicEngine engine(set, dopt);
    auto snap = engine.snapshot();
    ASSERT_FALSE(snap->buckets.empty());
    for (const auto& bref : snap->buckets) {
      auto rounds = bref.bucket->engine().EnsureRounds(kRounds);
      for (const auto& tree : rounds->trees) expect_width(*tree, width);
    }
  }
}

// Recovery round trip at a non-default width: the adopted trees report the
// width they were built with and answer bit-identically to the pre-crash
// engine (no format bump — width is derived from the layout).
TEST(KdWidth, StoreRecoveryAdoptsBuiltWidth) {
  std::string dir = testing::TempDir() + "/kd_width_store";
  std::filesystem::remove_all(dir);
  store::ShardedStore::Options sopt;
  sopt.sharded.num_shards = 1;
  sopt.sharded.shard.engine.kd_leaf_size = 32;
  sopt.sharded.shard.tail_limit = 16;

  Rng rng(9105);
  UncertainSet set = TieProneDiscreteSet(200, &rng);
  std::vector<Point2> queries = Queries(25, &rng);
  Answers before;
  {
    auto store = store::ShardedStore::Open(dir, sopt);
    ASSERT_NE(store, nullptr);
    for (const auto& p : set) ASSERT_TRUE(store->Insert(p).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    before = Collect(*store->engine().View(), queries, 0.1);
  }
  auto reopened = store::ShardedStore::Open(dir, sopt);
  ASSERT_NE(reopened, nullptr);
  Answers after = Collect(*reopened->engine().View(), queries, 0.1);
  ExpectSame(after, before, 32);

  // Every recovered bucket's kd trees carry the built width: > the
  // default 8 would allow (buckets here are big enough to fill leaves),
  // and <= the configured 32.
  auto snap = reopened->engine().ShardSnapshot(0);
  ASSERT_FALSE(snap->buckets.empty());
  for (const auto& ref : snap->buckets) {
    const Engine& e = ref.bucket->engine();
    ASSERT_NE(e.discrete_index(), nullptr);
    for (const KdTree* tree :
         {&e.discrete_index()->centroid_tree(), &e.discrete_index()->location_tree(),
          &e.spiral()->tree()}) {
      EXPECT_GT(tree->leaf_width(), KdBuildOptions().leaf_size);
      EXPECT_LE(tree->leaf_width(), 32);
    }
  }
}

}  // namespace
}  // namespace pnn
