// Tests for the quantification primitives: the exact Eq. (2) sweep against
// direct per-point evaluation and Monte-Carlo ground truth; the continuous
// Eq. (1) quadrature against sampling; threshold/most-likely helpers.

#include "src/core/prob/quantify.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "tests/point_bits.h"

namespace pnn {
namespace {

// Direct O(N^2) evaluation of Eq. (2) for validation.
std::vector<double> DirectEq2(const UncertainSet& points, Point2 q) {
  size_t n = points.size();
  std::vector<double> pi(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const auto& di = points[i].discrete();
    for (size_t s = 0; s < di.locations.size(); ++s) {
      double d = Distance(q, di.locations[s]);
      double prod = 1.0;
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        prod *= 1.0 - points[j].DistanceCdf(q, d);
      }
      pi[i] += di.weights[s] * prod;
    }
  }
  return pi;
}

UncertainSet RandomDiscrete(int n, int k, Rng* rng, double span = 20,
                            double cluster = 4) {
  UncertainSet out;
  for (int i = 0; i < n; ++i) {
    Point2 c{rng->Uniform(-span, span), rng->Uniform(-span, span)};
    std::vector<Point2> locs;
    std::vector<double> w;
    double total = 0;
    for (int j = 0; j < k; ++j) {
      locs.push_back(c + Point2{rng->Uniform(-cluster, cluster),
                                rng->Uniform(-cluster, cluster)});
      double wi = rng->Uniform(0.2, 1.0);
      w.push_back(wi);
      total += wi;
    }
    for (auto& wi : w) wi /= total;
    out.push_back(UncertainPoint::Discrete(locs, w));
  }
  return out;
}

TEST(QuantifyExactDiscrete, MatchesDirectEvaluation) {
  Rng rng(601);
  for (int trial = 0; trial < 20; ++trial) {
    auto pts = RandomDiscrete(8, 3, &rng);
    Point2 q{rng.Uniform(-25, 25), rng.Uniform(-25, 25)};
    auto got = QuantifyExactDiscrete(pts, q);
    auto expect = DirectEq2(pts, q);
    std::vector<double> dense(pts.size(), 0.0);
    for (const auto& e : got) dense[e.index] = e.probability;
    for (size_t i = 0; i < pts.size(); ++i) {
      EXPECT_NEAR(dense[i], expect[i], 1e-10) << "i=" << i << " trial=" << trial;
    }
  }
}

TEST(QuantifyExactDiscrete, ProbabilitiesSumToOne) {
  Rng rng(603);
  for (int trial = 0; trial < 20; ++trial) {
    auto pts = RandomDiscrete(10, 4, &rng);
    Point2 q{rng.Uniform(-25, 25), rng.Uniform(-25, 25)};
    double total = 0;
    for (const auto& e : QuantifyExactDiscrete(pts, q)) {
      EXPECT_GE(e.probability, 0.0);
      EXPECT_LE(e.probability, 1.0 + 1e-12);
      total += e.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(QuantifyExactDiscrete, MatchesSampling) {
  Rng rng(605);
  auto pts = RandomDiscrete(6, 3, &rng, 10, 6);
  Point2 q{1, 2};
  auto exact = QuantifyExactDiscrete(pts, q);
  std::vector<double> dense(pts.size(), 0.0);
  for (const auto& e : exact) dense[e.index] = e.probability;
  // Monte-Carlo ground truth.
  const int kRounds = 200000;
  std::vector<int> wins(pts.size(), 0);
  for (int r = 0; r < kRounds; ++r) {
    double best = 1e300;
    int arg = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
      double d = Distance(q, pts[i].Sample(&rng));
      if (d < best) {
        best = d;
        arg = static_cast<int>(i);
      }
    }
    ++wins[arg];
  }
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(dense[i], double(wins[i]) / kRounds, 0.01) << "i=" << i;
  }
}

TEST(QuantifyExactDiscrete, TiesHandledConsistently) {
  // Two points, each one location, both at distance 5 from q: by Eq. (2)
  // with <= semantics each sees the other as "already arrived":
  // pi_0 = pi_1 = w * (1 - 1) = 0 ... the literal formula gives zero mass
  // at exact ties. Verify no crash and symmetric output.
  UncertainSet pts;
  pts.push_back(UncertainPoint::Discrete({{5, 0}}, {1.0}));
  pts.push_back(UncertainPoint::Discrete({{-5, 0}}, {1.0}));
  auto got = QuantifyExactDiscrete(pts, {0, 0});
  EXPECT_TRUE(got.empty());  // Literal Eq. (2): both vanish at the tie.
  // Slightly off-center the tie breaks cleanly: (5, 0) is now closer.
  got = QuantifyExactDiscrete(pts, {0.01, 0});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].index, 0);
  EXPECT_DOUBLE_EQ(got[0].probability, 1.0);
}

TEST(QuantifyExactDiscrete, FarPointHasZero) {
  UncertainSet pts;
  pts.push_back(UncertainPoint::Discrete({{0, 0}, {1, 0}}, {0.5, 0.5}));
  pts.push_back(UncertainPoint::Discrete({{100, 0}, {101, 0}}, {0.5, 0.5}));
  auto got = QuantifyExactDiscrete(pts, {0.2, 0});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].index, 0);
  EXPECT_DOUBLE_EQ(got[0].probability, 1.0);
}

TEST(QuantifyExactDiscrete, FarPointsLeaveAnswersBitIdentical) {
  // Equal-weight locations on a shared integer grid, every fourth point a
  // copy of the one before: distance ties within and across points. Points
  // interleaved among them whose delta is beyond Delta(q) only ever
  // multiply by exactly 1 or add exactly 0, so no answer may change a bit:
  // the sweep's tie order must not depend on them.
  Rng rng(617);
  auto grid_point = [&](double offset) {
    int k = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<Point2> locs;
    for (int s = 0; s < k; ++s) {
      locs.push_back({offset + double(rng.UniformInt(0, 5)),
                      offset + double(rng.UniformInt(0, 5))});
    }
    return UncertainPoint::Discrete(locs, std::vector<double>(k, 1.0 / k));
  };
  UncertainSet near;
  for (int i = 0; i < 48; ++i) near.push_back(i % 4 == 3 ? near.back() : grid_point(0));
  UncertainSet with_far;
  std::vector<int> index_in_with_far;
  for (size_t i = 0; i < near.size(); ++i) {
    index_in_with_far.push_back(static_cast<int>(with_far.size()));
    with_far.push_back(near[i]);
    if (i % 2 == 0) with_far.push_back(grid_point(1000));
  }
  for (int t = 0; t < 200; ++t) {
    Point2 q{0.5 * double(rng.UniformInt(0, 10)), 0.5 * double(rng.UniformInt(0, 10))};
    std::vector<Quantification> want = QuantifyExactDiscrete(near, q);
    std::vector<Quantification> got = QuantifyExactDiscrete(with_far, q);
    ASSERT_EQ(got.size(), want.size()) << "q=" << q.x << "," << q.y;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, index_in_with_far[want[i].index]);
      EXPECT_EQ(Bits(got[i].probability), Bits(want[i].probability))
          << "q=" << q.x << "," << q.y << " index " << want[i].index;
    }
  }
}

TEST(QuantifyNumericContinuous, TwoSymmetricDisksHalfHalf) {
  UncertainSet pts;
  pts.push_back(UncertainPoint::UniformDisk({-4, 0}, 1));
  pts.push_back(UncertainPoint::UniformDisk({4, 0}, 1));
  auto got = QuantifyNumericContinuous(pts, {0, 0});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_NEAR(got[0].probability, 0.5, 1e-6);
  EXPECT_NEAR(got[1].probability, 0.5, 1e-6);
}

TEST(QuantifyNumericContinuous, MatchesSampling) {
  Rng rng(607);
  UncertainSet pts;
  pts.push_back(UncertainPoint::UniformDisk({0, 0}, 2));
  pts.push_back(UncertainPoint::UniformDisk({3, 1}, 1.5));
  pts.push_back(UncertainPoint::UniformDisk({-1, 4}, 1));
  pts.push_back(UncertainPoint::TruncatedGaussian({2, -3}, 2.0, 1.0));
  Point2 q{1, 0};
  auto exact = QuantifyNumericContinuous(pts, q, 1e-8);
  std::vector<double> dense(pts.size(), 0.0);
  for (const auto& e : exact) dense[e.index] = e.probability;
  double total = 0;
  for (double v : dense) total += v;
  EXPECT_NEAR(total, 1.0, 1e-5);

  const int kRounds = 300000;
  std::vector<int> wins(pts.size(), 0);
  for (int r = 0; r < kRounds; ++r) {
    double best = 1e300;
    int arg = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
      double d = Distance(q, pts[i].Sample(&rng));
      if (d < best) {
        best = d;
        arg = static_cast<int>(i);
      }
    }
    ++wins[arg];
  }
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(dense[i], double(wins[i]) / kRounds, 0.01) << "i=" << i;
  }
}

TEST(Helpers, ThresholdAndMostLikely) {
  std::vector<Quantification> all = {{0, 0.55}, {1, 0.05}, {2, 0.4}};
  auto big = ThresholdFilter(all, 0.3);
  ASSERT_EQ(big.size(), 2u);
  EXPECT_EQ(big[0].index, 0);
  EXPECT_EQ(big[1].index, 2);
  EXPECT_EQ(MostLikelyNN(all), 0);
  EXPECT_EQ(MostLikelyNN({}), -1);
}

TEST(QuantifyPrefixSweep, FullPrefixEqualsExactSweep) {
  // Sweeping the complete location set through the truncated sweep must
  // reproduce the exact quantifier (the truncation error vanishes).
  Rng rng(613);
  UncertainSet pts;
  for (int i = 0; i < 10; ++i) {
    std::vector<Point2> locs{{rng.Uniform(-8, 8), rng.Uniform(-8, 8)},
                             {rng.Uniform(-8, 8), rng.Uniform(-8, 8)}};
    pts.push_back(UncertainPoint::Discrete(std::move(locs), {0.5, 0.5}));
  }
  Point2 q{0.3, -0.7};
  std::vector<WeightedLocation> locs;
  std::vector<int> counts(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    const auto& d = pts[i].discrete();
    counts[i] = static_cast<int>(d.locations.size());
    for (size_t s = 0; s < d.locations.size(); ++s) {
      locs.push_back(
          {Distance(q, d.locations[s]), static_cast<int>(i), d.weights[s]});
    }
  }
  std::sort(locs.begin(), locs.end(),
            [](const WeightedLocation& a, const WeightedLocation& b) {
              return a.dist < b.dist;
            });
  auto got = QuantifyPrefixSweep(locs, counts);
  auto want = QuantifyExactDiscrete(pts, q);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index);
    EXPECT_NEAR(got[i].probability, want[i].probability, 1e-12);
  }
}

}  // namespace
}  // namespace pnn
