// kd-tree tests: every query mode validated against a linear scan on random
// inputs, plus edge cases (duplicates, collinear points, tiny sets).

#include "src/spatial/kdtree.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace pnn {
namespace {

std::vector<Point2> RandomPoints(int n, Rng* rng, double span = 100.0) {
  std::vector<Point2> pts(n);
  for (auto& p : pts) p = {rng->Uniform(-span, span), rng->Uniform(-span, span)};
  return pts;
}

TEST(KdTree, NearestMatchesLinearScan) {
  Rng rng(31);
  auto pts = RandomPoints(500, &rng);
  KdTree tree(pts);
  for (int t = 0; t < 200; ++t) {
    Point2 q{rng.Uniform(-120, 120), rng.Uniform(-120, 120)};
    double best = 1e300;
    for (const auto& p : pts) best = std::min(best, Distance(q, p));
    double d;
    int idx = tree.Nearest(q, &d);
    EXPECT_NEAR(d, best, 1e-9);
    EXPECT_NEAR(Distance(q, pts[idx]), best, 1e-9);
  }
}

TEST(KdTree, KNearestSortedAndComplete) {
  Rng rng(37);
  auto pts = RandomPoints(300, &rng);
  KdTree tree(pts);
  for (int t = 0; t < 50; ++t) {
    Point2 q{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    int k = static_cast<int>(rng.UniformInt(1, 40));
    auto got = tree.KNearest(q, k);
    ASSERT_EQ(static_cast<int>(got.size()), k);
    // Ascending distances.
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(Distance(q, pts[got[i - 1]]), Distance(q, pts[got[i]]) + 1e-12);
    }
    // Matches a sorted linear scan.
    std::vector<double> dists;
    for (const auto& p : pts) dists.push_back(Distance(q, p));
    std::sort(dists.begin(), dists.end());
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(Distance(q, pts[got[i]]), dists[i], 1e-9);
    }
  }
}

TEST(KdTree, KNearestMoreThanN) {
  Rng rng(41);
  auto pts = RandomPoints(10, &rng);
  KdTree tree(pts);
  auto got = tree.KNearest({0, 0}, 25);
  EXPECT_EQ(got.size(), 10u);
}

TEST(KdTree, UnweightedReportIsOpenDiskMatchesLinearScan) {
  // On an unweighted tree ReportSubtractiveLess is the open disk
  // d(q, p_i) < r — the stage-2 location report of the discrete index.
  Rng rng(43);
  auto pts = RandomPoints(400, &rng);
  KdTree tree(pts);
  for (int t = 0; t < 100; ++t) {
    Point2 q{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    double r = rng.Uniform(1, 60);
    auto got = tree.ReportSubtractiveLess(q, r);
    std::sort(got.begin(), got.end());
    std::vector<int> expect;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (Distance(q, pts[i]) < r) expect.push_back(static_cast<int>(i));
    }
    EXPECT_EQ(got, expect);
  }
}

TEST(KdTree, MinAdditivelyWeightedMatchesLinearScan) {
  Rng rng(47);
  auto pts = RandomPoints(400, &rng);
  std::vector<double> w(pts.size());
  for (auto& v : w) v = rng.Uniform(0.1, 30);
  KdTree tree(pts, w);
  for (int t = 0; t < 200; ++t) {
    Point2 q{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    double best = 1e300;
    for (size_t i = 0; i < pts.size(); ++i) {
      best = std::min(best, Distance(q, pts[i]) + w[i]);
    }
    int arg;
    double got = tree.MinAdditivelyWeighted(q, &arg);
    EXPECT_NEAR(got, best, 1e-9);
    EXPECT_NEAR(Distance(q, pts[arg]) + w[arg], best, 1e-9);
  }
}

TEST(KdTree, ReportSubtractiveLessMatchesLinearScan) {
  Rng rng(53);
  auto pts = RandomPoints(400, &rng);
  std::vector<double> w(pts.size());
  for (auto& v : w) v = rng.Uniform(0.1, 20);
  KdTree tree(pts, w);
  for (int t = 0; t < 100; ++t) {
    Point2 q{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    double bound = rng.Uniform(0, 80);
    auto got = tree.ReportSubtractiveLess(q, bound);
    std::sort(got.begin(), got.end());
    std::vector<int> expect;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (Distance(q, pts[i]) - w[i] < bound) expect.push_back(static_cast<int>(i));
    }
    EXPECT_EQ(got, expect);
  }
}

TEST(KdTree, IncrementalEnumeratesAllInOrder) {
  Rng rng(59);
  auto pts = RandomPoints(150, &rng);
  KdTree tree(pts);
  Point2 q{3, -7};
  KdTree::Incremental inc(tree, q);
  double prev = -1;
  int count = 0;
  std::vector<bool> seen(pts.size(), false);
  while (inc.HasNext()) {
    double d;
    int idx = inc.Next(&d);
    EXPECT_GE(d, prev - 1e-12);  // Non-decreasing distances.
    EXPECT_NEAR(d, Distance(q, pts[idx]), 1e-12);
    EXPECT_FALSE(seen[idx]);     // Each point exactly once.
    seen[idx] = true;
    prev = d;
    ++count;
  }
  EXPECT_EQ(count, 150);
}

TEST(KdTree, DuplicatesAndCollinear) {
  std::vector<Point2> pts = {{0, 0}, {0, 0}, {1, 0}, {2, 0}, {3, 0},
                             {4, 0}, {5, 0}, {6, 0}, {7, 0}, {8, 0},
                             {9, 0}, {9, 0}, {9, 0}};
  KdTree tree(pts);
  double d;
  tree.Nearest({-1, 0}, &d);
  EXPECT_DOUBLE_EQ(d, 1.0);
  EXPECT_EQ(tree.ReportSubtractiveLess({9, 0}, 0.5).size(), 3u);
  EXPECT_TRUE(tree.ReportSubtractiveLess({9, 0}, 0.0).empty());  // Strict.
  EXPECT_EQ(tree.KNearest({0, 0}, 13).size(), 13u);
}

TEST(KdTree, UnweightedStorageIsTheSameTreeEveryWay) {
  // An unweighted tree stores no weights, whether it was built with {},
  // built with explicit zeros, or adopted from an exported layout with no
  // weight array (a flag-0 segment blob). All three are one structure and
  // answer the weighted queries identically, reading every weight as 0.
  Rng rng(61);
  auto pts = RandomPoints(300, &rng);
  KdTree implicit(pts);
  KdTree zeros(pts, std::vector<double>(pts.size(), 0.0));
  KdTree adopted(implicit.points(), {}, implicit.metric(), implicit.order(),
                 implicit.nodes(), implicit.root());
  EXPECT_FALSE(implicit.weighted());
  EXPECT_FALSE(zeros.weighted());
  EXPECT_FALSE(adopted.weighted());
  EXPECT_TRUE(implicit.SameStructure(zeros));
  EXPECT_TRUE(implicit.SameStructure(adopted));
  EXPECT_EQ(implicit.weights(), std::vector<double>(pts.size(), 0.0));
  std::vector<Point2> exported = implicit.points();
  ASSERT_EQ(exported.size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(exported[i].x, pts[i].x);
    EXPECT_EQ(exported[i].y, pts[i].y);
  }
  for (const KdTree::Node& node : implicit.nodes()) {
    EXPECT_EQ(node.min_w, 0.0);
    EXPECT_EQ(node.max_w, 0.0);
  }
  for (int t = 0; t < 100; ++t) {
    Point2 q{rng.Uniform(-120, 120), rng.Uniform(-120, 120)};
    double bound = rng.Uniform(0, 60);
    int arg_i = -1, arg_z = -1, arg_a = -1;
    double vi = implicit.MinAdditivelyWeighted(q, &arg_i);
    EXPECT_EQ(vi, zeros.MinAdditivelyWeighted(q, &arg_z));
    EXPECT_EQ(vi, adopted.MinAdditivelyWeighted(q, &arg_a));
    EXPECT_EQ(arg_i, arg_z);
    EXPECT_EQ(arg_i, arg_a);
    double nearest;
    EXPECT_EQ(arg_i, implicit.Nearest(q, &nearest));
    EXPECT_EQ(vi, nearest);  // d + 0 == d, bit for bit.
    std::vector<int> ri = implicit.ReportSubtractiveLess(q, bound);
    EXPECT_EQ(ri, zeros.ReportSubtractiveLess(q, bound));
    EXPECT_EQ(ri, adopted.ReportSubtractiveLess(q, bound));
  }
}

TEST(KdTree, SinglePoint) {
  KdTree tree({{5, 5}});
  double d;
  EXPECT_EQ(tree.Nearest({0, 0}, &d), 0);
  EXPECT_NEAR(d, std::sqrt(50.0), 1e-12);
}

}  // namespace
}  // namespace pnn
