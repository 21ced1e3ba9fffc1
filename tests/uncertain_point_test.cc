// Tests for the uncertain-point model: distance extremes, cdfs/pdfs against
// closed forms and Monte-Carlo ground truth, sampling correctness.

#include "src/uncertain/uncertain_point.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace pnn {
namespace {

TEST(UncertainPoint, DiskDistanceExtremes) {
  auto p = UncertainPoint::UniformDisk({0, 0}, 5);
  EXPECT_DOUBLE_EQ(p.MinDistance({10, 0}), 5.0);
  EXPECT_DOUBLE_EQ(p.MaxDistance({10, 0}), 15.0);
  EXPECT_DOUBLE_EQ(p.MinDistance({1, 0}), 0.0);  // Inside the support.
  EXPECT_DOUBLE_EQ(p.MaxDistance({1, 0}), 6.0);
  EXPECT_DOUBLE_EQ(p.MinDistance({0, 0}), 0.0);
}

TEST(UncertainPoint, DiscreteDistanceExtremes) {
  auto p = UncertainPoint::Discrete({{0, 0}, {4, 0}, {0, 3}}, {0.5, 0.25, 0.25});
  EXPECT_DOUBLE_EQ(p.MinDistance({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(p.MaxDistance({0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(p.MinDistance({4, 3}), 3.0);
  EXPECT_DOUBLE_EQ(p.MaxDistance({4, 3}), 5.0);
}

TEST(UncertainPoint, DiscreteWeightsRenormalized) {
  auto p = UncertainPoint::Discrete({{0, 0}, {1, 0}}, {0.5000001, 0.5});
  double total = 0;
  for (double w : p.discrete().weights) total += w;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(UncertainPoint, UniformDiskCdfClosedForm) {
  // Paper Figure 1 setup: disk radius 5 at origin, q = (6, 8); |q| = 10.
  auto p = UncertainPoint::UniformDisk({0, 0}, 5);
  Point2 q{6, 8};
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 4.9), 0.0);     // Below delta = 5.
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 15.0), 1.0);    // Above Delta = 15.
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 16.0), 1.0);
  // Monotonicity and continuity.
  double prev = 0.0;
  for (double r = 5.0; r <= 15.0; r += 0.1) {
    double g = p.DistanceCdf(q, r);
    EXPECT_GE(g, prev - 1e-12);
    EXPECT_LE(g, 1.0 + 1e-12);
    prev = g;
  }
}

TEST(UncertainPoint, UniformDiskCdfVsSampling) {
  Rng rng(101);
  auto p = UncertainPoint::UniformDisk({2, 1}, 3);
  Point2 q{7, 2};
  const int kSamples = 200000;
  for (double r : {3.0, 5.0, 7.0}) {
    int hits = 0;
    for (int i = 0; i < kSamples; ++i) {
      if (Distance(p.Sample(&rng), q) <= r) ++hits;
    }
    EXPECT_NEAR(p.DistanceCdf(q, r), static_cast<double>(hits) / kSamples, 0.01);
  }
}

TEST(UncertainPoint, UniformDiskPdfIntegratesToCdf) {
  auto p = UncertainPoint::UniformDisk({0, 0}, 5);
  Point2 q{6, 8};
  // Numerically integrate the pdf and compare against the cdf.
  double acc = 0.0;
  const int kSteps = 20000;
  double lo = 5.0, hi = 15.0;
  for (int i = 0; i < kSteps; ++i) {
    double r = lo + (hi - lo) * (i + 0.5) / kSteps;
    acc += p.DistancePdf(q, r) * (hi - lo) / kSteps;
    if (i % 4000 == 3999) {
      double r_end = lo + (hi - lo) * (i + 1) / kSteps;
      EXPECT_NEAR(acc, p.DistanceCdf(q, r_end), 2e-3);
    }
  }
  EXPECT_NEAR(acc, 1.0, 1e-3);
}

TEST(UncertainPoint, GaussianCdfVsSampling) {
  Rng rng(103);
  auto p = UncertainPoint::TruncatedGaussian({1, -1}, 4.0, 1.5);
  Point2 q{4, 1};
  const int kSamples = 200000;
  for (double r : {1.5, 3.5, 6.0}) {
    int hits = 0;
    for (int i = 0; i < kSamples; ++i) {
      if (Distance(p.Sample(&rng), q) <= r) ++hits;
    }
    EXPECT_NEAR(p.DistanceCdf(q, r), static_cast<double>(hits) / kSamples, 0.01);
  }
}

TEST(UncertainPoint, GaussianSamplesStayInSupport) {
  Rng rng(105);
  auto p = UncertainPoint::TruncatedGaussian({0, 0}, 2.0, 5.0);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LE(Norm(p.Sample(&rng)), 2.0 + 1e-12);
  }
}

TEST(UncertainPoint, GaussianWideSigmaApproachesUniform) {
  // sigma >> R: truncated Gaussian converges to the uniform disk.
  auto g = UncertainPoint::TruncatedGaussian({0, 0}, 2.0, 1e9);
  auto u = UncertainPoint::UniformDisk({0, 0}, 2.0);
  Point2 q{3, 0};
  for (double r : {1.2, 2.0, 3.0, 4.0}) {
    EXPECT_NEAR(g.DistanceCdf(q, r), u.DistanceCdf(q, r), 1e-6) << "r=" << r;
  }
}

TEST(UncertainPoint, DiscreteCdfStepFunction) {
  auto p = UncertainPoint::Discrete({{1, 0}, {3, 0}, {6, 0}}, {0.2, 0.3, 0.5});
  Point2 q{0, 0};
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 1.0), 0.2);  // Closed: includes r = d.
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 2.9), 0.2);
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, 100.0), 1.0);
}

TEST(UncertainPoint, DiscreteSamplingFrequencies) {
  Rng rng(107);
  auto p = UncertainPoint::Discrete({{0, 0}, {1, 0}, {2, 0}}, {0.6, 0.3, 0.1});
  int counts[3] = {0, 0, 0};
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    Point2 s = p.Sample(&rng);
    counts[static_cast<int>(s.x + 0.5)]++;
  }
  EXPECT_NEAR(counts[0] / double(kSamples), 0.6, 0.01);
  EXPECT_NEAR(counts[1] / double(kSamples), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / double(kSamples), 0.1, 0.01);
}

TEST(UncertainPoint, ExpectedDistanceDiscrete) {
  auto p = UncertainPoint::Discrete({{3, 0}, {0, 4}}, {0.5, 0.5});
  EXPECT_DOUBLE_EQ(p.ExpectedDistance({0, 0}), 3.5);
}

TEST(UncertainPoint, ExpectedDistanceUniformDiskVsSampling) {
  Rng rng(109);
  auto p = UncertainPoint::UniformDisk({0, 0}, 2.0);
  Point2 q{5, 0};
  double acc = 0.0;
  const int kSamples = 400000;
  for (int i = 0; i < kSamples; ++i) acc += Distance(p.Sample(&rng), q);
  EXPECT_NEAR(p.ExpectedDistance(q), acc / kSamples, 5e-3);
}

TEST(UncertainPoint, BoundsAndCentroid) {
  auto d = UncertainPoint::UniformDisk({1, 2}, 3);
  Box2 b = d.Bounds();
  EXPECT_DOUBLE_EQ(b.xmin, -2);
  EXPECT_DOUBLE_EQ(b.ymax, 5);
  EXPECT_DOUBLE_EQ(d.Centroid().x, 1);

  auto p = UncertainPoint::Discrete({{0, 0}, {4, 0}}, {0.25, 0.75});
  EXPECT_DOUBLE_EQ(p.Centroid().x, 3.0);
  EXPECT_DOUBLE_EQ(p.Bounds().xmax, 4.0);
}

TEST(NonzeroNNBruteForce, SimpleConfigurations) {
  // Two far-apart disks: each is the sole nonzero NN near itself.
  UncertainSet pts;
  pts.push_back(UncertainPoint::UniformDisk({0, 0}, 1));
  pts.push_back(UncertainPoint::UniformDisk({100, 0}, 1));
  EXPECT_EQ(NonzeroNNBruteForce(pts, {0, 0}), (std::vector<int>{0}));
  EXPECT_EQ(NonzeroNNBruteForce(pts, {100, 0}), (std::vector<int>{1}));
  // Near the middle both are possible NNs.
  EXPECT_EQ(NonzeroNNBruteForce(pts, {50, 0}), (std::vector<int>{0, 1}));
}

TEST(NonzeroNNBruteForce, OverlappingDisksAlwaysBoth) {
  UncertainSet pts;
  pts.push_back(UncertainPoint::UniformDisk({0, 0}, 2));
  pts.push_back(UncertainPoint::UniformDisk({1, 0}, 2));
  // Overlapping disks: delta_i < Delta_j everywhere nearby.
  for (double x : {-3.0, 0.0, 0.5, 4.0}) {
    EXPECT_EQ(NonzeroNNBruteForce(pts, {x, 0}).size(), 2u) << "x=" << x;
  }
}

TEST(UncertainPointDeath, RejectsInvalidInputs) {
  EXPECT_DEATH(UncertainPoint::UniformDisk({0, 0}, 0.0), "radius");
  EXPECT_DEATH(UncertainPoint::Discrete({{0, 0}}, {0.5}), "sum to 1");
  EXPECT_DEATH(UncertainPoint::Discrete({{0, 0}, {1, 1}}, {1.5, -0.5}), "positive");
  EXPECT_DEATH(UncertainPoint::Discrete({}, {}), "location");
  // Non-finite values and a normalized sum off by 5e-7 are what the store
  // and wire codec refuse to decode, so no factory may build them.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(UncertainPoint::UniformDisk({inf, 0}, 1.0), "finite");
  EXPECT_DEATH(UncertainPoint::UniformDisk({0, 0}, inf), "finite");
  EXPECT_DEATH(UncertainPoint::TruncatedGaussian({0, 0}, 1.0, inf), "finite");
  EXPECT_DEATH(UncertainPoint::Discrete({{0, std::nan("")}}, {1.0}), "finite");
  EXPECT_DEATH(
      UncertainPoint::DiscreteFromNormalized({{0, 0}, {1, 1}}, {0.5, 0.5 + 6e-7}),
      "sum to 1");
}

}  // namespace
}  // namespace pnn
