// Tests for the Monte-Carlo quantifier (Theorems 4.3 / 4.5): error within
// eps against the exact quantifiers, the round trees against a Delaunay
// nearest-neighbor oracle, continuous and discrete inputs, and the
// round-count formula.

#include "src/core/prob/monte_carlo.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/prob/quantify.h"
#include "src/delaunay/delaunay.h"
#include "src/util/rng.h"

namespace pnn {
namespace {

UncertainSet RandomDiscrete(int n, int k, Rng* rng, double span = 20) {
  UncertainSet out;
  for (int i = 0; i < n; ++i) {
    Point2 c{rng->Uniform(-span, span), rng->Uniform(-span, span)};
    std::vector<Point2> locs;
    std::vector<double> w(k, 1.0 / k);
    for (int j = 0; j < k; ++j) {
      locs.push_back(c + Point2{rng->Uniform(-4, 4), rng->Uniform(-4, 4)});
    }
    out.push_back(UncertainPoint::Discrete(locs, w));
  }
  return out;
}

double MaxErrorVsExact(const UncertainSet& pts, const MonteCarloPNN& mc, Point2 q,
                       bool continuous) {
  auto est = mc.Query(q);
  auto exact = continuous ? QuantifyNumericContinuous(pts, q, 1e-9)
                          : QuantifyExactDiscrete(pts, q);
  std::vector<double> e(pts.size(), 0.0), g(pts.size(), 0.0);
  for (const auto& x : exact) e[x.index] = x.probability;
  for (const auto& x : est) g[x.index] = x.probability;
  double err = 0;
  for (size_t i = 0; i < pts.size(); ++i) err = std::max(err, std::abs(e[i] - g[i]));
  return err;
}

TEST(MonteCarloPNN, TheoreticalRoundsFormula) {
  // s = (1/2eps^2) ln(2 n (nk)^4 / delta): spot-check monotonicity and a
  // hand-computed value.
  size_t s1 = MonteCarloPNN::TheoreticalRounds(10, 2, 0.1, 0.1);
  double expect = std::log(2.0 * 10 * (std::pow(20.0, 4.0) + 1) / 0.1) / (2 * 0.01);
  EXPECT_EQ(s1, static_cast<size_t>(std::ceil(expect)));
  EXPECT_GT(MonteCarloPNN::TheoreticalRounds(10, 2, 0.05, 0.1), s1);
  EXPECT_GT(MonteCarloPNN::TheoreticalRounds(100, 2, 0.1, 0.1), s1);
}

TEST(MonteCarloPNN, DiscreteErrorWithinEps) {
  Rng rng(701);
  auto pts = RandomDiscrete(8, 3, &rng);
  MonteCarloPNN::Options opt;
  opt.eps = 0.05;
  opt.delta = 0.01;
  opt.seed = 42;
  MonteCarloPNN mc(pts, opt);
  for (int t = 0; t < 25; ++t) {
    Point2 q{rng.Uniform(-25, 25), rng.Uniform(-25, 25)};
    EXPECT_LE(MaxErrorVsExact(pts, mc, q, false), opt.eps)
        << "query " << t << " exceeded eps";
  }
}

// Exact oracle for the round structure: every round tree's NearestSquared
// winner is at exactly the squared distance of the Delaunay nearest
// neighbor (the paper's Voronoi + point location), and is the same point
// wherever the minimum is attained once. Half the instances share exact
// locations across points, so rounds contain duplicate samples.
TEST(MonteCarloPNN, RoundTreesMatchDelaunayOracle) {
  Rng rng(703);
  int unique_checked = 0, tied_checked = 0;
  for (int instance = 0; instance < 8; ++instance) {
    bool duplicates = instance % 2 == 1;
    UncertainSet pts;
    std::vector<Point2> shared(5);
    for (auto& p : shared) p = {rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
    for (int i = 0; i < 60; ++i) {
      std::vector<Point2> locs(2);
      for (auto& l : locs) {
        l = duplicates && rng.Bernoulli(0.5)
                ? shared[rng.UniformInt(0, shared.size() - 1)]
                : Point2{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
      }
      pts.push_back(UncertainPoint::Discrete(std::move(locs), {0.5, 0.5}));
    }
    McRounds rounds;
    BuildMcRounds(pts, 11 + instance, 0, 6, {}, KdBuildOptions(), &rounds);
    for (const auto& tree : rounds.trees) {
      const std::vector<Point2>& sample = tree->points();
      Delaunay dt(sample);
      std::vector<Point2> queries(40);
      for (auto& q : queries) q = {rng.Uniform(-25, 25), rng.Uniform(-25, 25)};
      queries.push_back(shared[0]);  // Distance-zero ties on duplicates.
      for (Point2 q : queries) {
        double kd_sq;
        int kd = tree->NearestSquared(q, &kd_sq);
        int oracle = dt.Nearest(q);
        ASSERT_EQ(kd_sq, SquaredDistance(q, sample[oracle]));
        int attained = 0;
        for (Point2 s : sample) attained += SquaredDistance(q, s) == kd_sq;
        if (attained == 1) {
          EXPECT_EQ(kd, oracle);
          ++unique_checked;
        } else {
          // Ties go to the lowest index attaining the minimum.
          for (int i = 0; i < kd; ++i) EXPECT_GT(SquaredDistance(q, sample[i]), kd_sq);
          ++tied_checked;
        }
      }
    }
  }
  EXPECT_GT(unique_checked, 1000);
  EXPECT_GT(tied_checked, 0);
}

TEST(MonteCarloPNN, ContinuousDisksWithinEps) {
  Rng rng(707);
  UncertainSet pts;
  pts.push_back(UncertainPoint::UniformDisk({0, 0}, 2));
  pts.push_back(UncertainPoint::UniformDisk({4, 1}, 1.5));
  pts.push_back(UncertainPoint::TruncatedGaussian({-2, 3}, 2.0, 0.8));
  pts.push_back(UncertainPoint::UniformDisk({1, -4}, 1));
  MonteCarloPNN::Options opt;
  opt.eps = 0.05;
  opt.delta = 0.05;
  opt.rounds_override = 20000;  // ~sqrt(ln/2s) error ~ 0.012 << eps.
  MonteCarloPNN mc(pts, opt);
  for (int t = 0; t < 8; ++t) {
    Point2 q{rng.Uniform(-6, 6), rng.Uniform(-6, 6)};
    EXPECT_LE(MaxErrorVsExact(pts, mc, q, true), opt.eps);
  }
}

TEST(MonteCarloPNN, EstimatesSumToAtMostOne) {
  Rng rng(709);
  auto pts = RandomDiscrete(10, 3, &rng);
  MonteCarloPNN::Options opt;
  opt.rounds_override = 500;
  MonteCarloPNN mc(pts, opt);
  for (int t = 0; t < 20; ++t) {
    Point2 q{rng.Uniform(-25, 25), rng.Uniform(-25, 25)};
    double total = 0;
    for (const auto& e : mc.Query(q)) total += e.probability;
    EXPECT_NEAR(total, 1.0, 1e-12);  // Counts partition the rounds.
  }
}

// One sampling scheme: without stream ids, point i draws from the stream
// of id i, so the structure is bit-identical to one given ids 0..n-1.
TEST(MonteCarloPNN, DefaultStreamIdsAreIndices) {
  Rng rng(713);
  auto pts = RandomDiscrete(30, 3, &rng);
  pts.push_back(UncertainPoint::UniformDisk({1, 2}, 3));
  pts.push_back(UncertainPoint::TruncatedGaussian({-4, 0}, 2, 0.7));
  MonteCarloPNN::Options opt;
  opt.rounds_override = 64;
  opt.seed = 5;
  MonteCarloPNN implicit(pts, opt);
  for (size_t i = 0; i < pts.size(); ++i) opt.stream_ids.push_back(i);
  MonteCarloPNN explicit_ids(pts, opt);
  ASSERT_EQ(implicit.rounds(), explicit_ids.rounds());
  for (size_t r = 0; r < implicit.rounds(); ++r) {
    const std::vector<Point2>& a = implicit.round_trees().trees[r]->points();
    const std::vector<Point2>& b = explicit_ids.round_trees().trees[r]->points();
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].x, b[j].x);
      EXPECT_EQ(a[j].y, b[j].y);
    }
  }
  for (int t = 0; t < 20; ++t) {
    Point2 q{rng.Uniform(-25, 25), rng.Uniform(-25, 25)};
    auto ra = implicit.Query(q), rb = explicit_ids.Query(q);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].index, rb[i].index);
      EXPECT_EQ(ra[i].probability, rb[i].probability);
    }
  }
}

TEST(MonteCarloPNN, DeterministicGivenSeed) {
  Rng rng(711);
  auto pts = RandomDiscrete(5, 2, &rng);
  MonteCarloPNN::Options opt;
  opt.rounds_override = 200;
  opt.seed = 99;
  MonteCarloPNN a(pts, opt), b(pts, opt);
  Point2 q{0, 0};
  auto ra = a.Query(q), rb = b.Query(q);
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].index, rb[i].index);
    EXPECT_DOUBLE_EQ(ra[i].probability, rb[i].probability);
  }
}

}  // namespace
}  // namespace pnn
