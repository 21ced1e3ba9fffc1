// Property-based parameterized sweeps: core invariants validated across a
// grid of (seed, size, workload regime) combinations. Each TEST_P body
// checks one invariant; INSTANTIATE_TEST_SUITE_P fans each out over many
// configurations.

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/core/nnquery/nn_index.h"
#include "src/core/pnn.h"
#include "src/core/prob/quantify.h"
#include "src/core/prob/spiral.h"
#include "src/core/v0/nonzero_voronoi.h"
#include "src/uncertain/uncertain_point.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"
#include "tests/point_bits.h"

namespace pnn {
namespace {

struct Config {
  uint64_t seed;
  int n;
  int regime;  // 0 sparse, 1 dense, 2 clustered, 3 disjoint.
};

std::ostream& operator<<(std::ostream& os, const Config& c) {
  return os << "seed" << c.seed << "_n" << c.n << "_r" << c.regime;
}

std::vector<Circle> MakeDisks(const Config& c, Rng* rng) {
  switch (c.regime) {
    case 0:
      return RandomDisks(c.n, 6.0 * std::sqrt(double(c.n)), 0.5, 2.0, rng);
    case 1:
      return RandomDisks(c.n, 2.0 * std::sqrt(double(c.n)), 0.5, 3.0, rng);
    case 2:
      return ClusteredDisks(c.n, 3, 5.0 * std::sqrt(double(c.n)), 1.5, rng);
    default:
      return DisjointDisks(c.n, 3.0, rng);
  }
}

// ---------------- Continuous V!=0 invariants ----------------

class V0Property : public ::testing::TestWithParam<Config> {};

TEST_P(V0Property, EulerAndLabelsAndQueries) {
  Config cfg = GetParam();
  Rng rng(cfg.seed);
  auto disks = MakeDisks(cfg, &rng);
  NonzeroVoronoi v0(disks);

  // Invariant 1: Euler's formula holds on the arrangement.
  EXPECT_TRUE(v0.arrangement().EulerCheck());

  // Invariant 2: every face label matches the Lemma 2.1 brute force.
  EXPECT_TRUE(v0.Validate());

  // Invariant 3: complexity counters are internally consistent.
  const auto& c = v0.complexity();
  EXPECT_GE(c.faces, 1u);
  EXPECT_LE(c.crossings, c.vertices);

  // Invariant 4: point queries match brute force away from boundaries.
  UncertainSet upts;
  for (const auto& d : disks) {
    upts.push_back(UncertainPoint::UniformDisk(d.center, d.radius));
  }
  const Box2& box = v0.box();
  for (int t = 0; t < 60; ++t) {
    Point2 q{rng.Uniform(box.xmin, box.xmax), rng.Uniform(box.ymin, box.ymax)};
    auto got = v0.Query(q);
    auto expect = NonzeroNNBruteForce(upts, q);
    if (got == expect) continue;
    // Discrepancies must be boundary elements only.
    double min_max = 1e300;
    for (const auto& p : upts) min_max = std::min(min_max, p.MaxDistance(q));
    std::vector<int> sym;
    std::set_symmetric_difference(got.begin(), got.end(), expect.begin(), expect.end(),
                                  std::back_inserter(sym));
    for (int i : sym) {
      EXPECT_NEAR(upts[i].MinDistance(q), min_max, 1e-6 * (1 + min_max))
          << cfg << " query " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, V0Property,
    ::testing::Values(Config{1, 8, 0}, Config{2, 8, 1}, Config{3, 8, 2},
                      Config{4, 8, 3}, Config{5, 16, 0}, Config{6, 16, 1},
                      Config{7, 16, 2}, Config{8, 16, 3}, Config{9, 32, 0},
                      Config{10, 32, 1}, Config{11, 32, 2}, Config{12, 32, 3},
                      Config{13, 24, 0}, Config{14, 24, 2}));

// ---------------- Index-vs-diagram agreement ----------------

class IndexAgreement : public ::testing::TestWithParam<Config> {};

TEST_P(IndexAgreement, TwoStructuresOneAnswer) {
  Config cfg = GetParam();
  Rng rng(cfg.seed * 31 + 7);
  auto disks = MakeDisks(cfg, &rng);
  NonzeroNNIndex index(disks);
  UncertainSet upts;
  for (const auto& d : disks) {
    upts.push_back(UncertainPoint::UniformDisk(d.center, d.radius));
  }
  for (int t = 0; t < 150; ++t) {
    double span = 8.0 * std::sqrt(double(cfg.n));
    Point2 q{rng.Uniform(-span, span), rng.Uniform(-span, span)};
    EXPECT_EQ(index.Query(q), NonzeroNNBruteForce(upts, q)) << cfg;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexAgreement,
                         ::testing::Values(Config{21, 10, 0}, Config{22, 40, 1},
                                           Config{23, 80, 2}, Config{24, 120, 3},
                                           Config{25, 200, 0}, Config{26, 200, 1}));

// ---------------- Quantification invariants ----------------

struct QuantConfig {
  uint64_t seed;
  int n;
  int k;
  double rho;
};

std::ostream& operator<<(std::ostream& os, const QuantConfig& c) {
  return os << "seed" << c.seed << "_n" << c.n << "_k" << c.k << "_rho" << c.rho;
}

class QuantifyProperty : public ::testing::TestWithParam<QuantConfig> {};

TEST_P(QuantifyProperty, ExactSumsToOneAndSpiralIsOneSided) {
  QuantConfig cfg = GetParam();
  Rng rng(cfg.seed * 13 + 1);
  auto pts = DiscreteWithSpread(cfg.n, cfg.k, cfg.rho,
                                4.0 * std::sqrt(double(cfg.n)), 3.0, &rng);
  SpiralSearchPNN spiral(pts);
  EXPECT_NEAR(spiral.rho(), cfg.rho, 1e-9);
  const double eps = 0.05;
  for (int t = 0; t < 25; ++t) {
    double span = 5.0 * std::sqrt(double(cfg.n));
    Point2 q{rng.Uniform(-span, span), rng.Uniform(-span, span)};
    auto exact = QuantifyExactDiscrete(pts, q);
    // Invariant 1: exact probabilities form a distribution.
    double total = 0;
    for (const auto& e : exact) {
      EXPECT_GT(e.probability, 0.0);
      EXPECT_LE(e.probability, 1.0 + 1e-12);
      total += e.probability;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << cfg;
    // Invariant 2: the nonzero support of pi is a subset of NN!=0.
    auto nn = NonzeroNNBruteForce(pts, q);
    for (const auto& e : exact) {
      EXPECT_TRUE(std::binary_search(nn.begin(), nn.end(), e.index)) << cfg;
    }
    // Invariant 3: spiral is one-sided within eps (Lemma 4.6).
    auto est = spiral.Query(q, eps);
    std::vector<double> ev(pts.size(), 0.0), gv(pts.size(), 0.0);
    for (const auto& x : exact) ev[x.index] = x.probability;
    for (const auto& x : est) gv[x.index] = x.probability;
    for (size_t i = 0; i < pts.size(); ++i) {
      EXPECT_LE(gv[i], ev[i] + 1e-9) << cfg;
      EXPECT_GE(gv[i], ev[i] - eps - 1e-9) << cfg;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantifyProperty,
    ::testing::Values(QuantConfig{1, 10, 2, 1.0}, QuantConfig{2, 10, 4, 4.0},
                      QuantConfig{3, 30, 3, 2.0}, QuantConfig{4, 30, 5, 16.0},
                      QuantConfig{5, 80, 2, 1.0}, QuantConfig{6, 80, 4, 8.0},
                      QuantConfig{7, 150, 3, 2.0}, QuantConfig{8, 150, 3, 64.0}));

// ---------------- Distance distribution invariants ----------------

struct DistConfig {
  uint64_t seed;
  int kind;  // 0 uniform disk, 1 gaussian, 2 discrete.
};

std::ostream& operator<<(std::ostream& os, const DistConfig& c) {
  return os << "seed" << c.seed << "_kind" << c.kind;
}

class DistributionProperty : public ::testing::TestWithParam<DistConfig> {};

TEST_P(DistributionProperty, CdfMonotoneMatchesSupportAndSamples) {
  DistConfig cfg = GetParam();
  Rng rng(cfg.seed * 7 + 3);
  UncertainPoint p = [&] {
    Point2 c{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    switch (cfg.kind) {
      case 0:
        return UncertainPoint::UniformDisk(c, rng.Uniform(0.5, 3.0));
      case 1:
        return UncertainPoint::TruncatedGaussian(c, rng.Uniform(0.5, 3.0),
                                                 rng.Uniform(0.3, 2.0));
      default: {
        std::vector<Point2> locs;
        std::vector<double> w;
        int k = static_cast<int>(rng.UniformInt(2, 6));
        double total = 0;
        for (int j = 0; j < k; ++j) {
          locs.push_back(c + Point2{rng.Uniform(-2, 2), rng.Uniform(-2, 2)});
          double wi = rng.Uniform(0.1, 1.0);
          w.push_back(wi);
          total += wi;
        }
        for (auto& wi : w) wi /= total;
        return UncertainPoint::Discrete(locs, w);
      }
    }
  }();
  Point2 q{rng.Uniform(-8, 8), rng.Uniform(-8, 8)};
  double lo = p.MinDistance(q), hi = p.MaxDistance(q);
  EXPECT_LE(lo, hi);
  // Cdf: 0 below support, 1 above, monotone within.
  EXPECT_DOUBLE_EQ(p.DistanceCdf(q, lo - 1e-6), 0.0);
  EXPECT_NEAR(p.DistanceCdf(q, hi + 1e-6), 1.0, 1e-9);
  double prev = -1e-12;
  for (int s = 0; s <= 50; ++s) {
    double r = lo + (hi - lo) * s / 50.0;
    double g = p.DistanceCdf(q, r);
    EXPECT_GE(g, prev - 1e-9);
    EXPECT_LE(g, 1.0 + 1e-9);
    prev = g;
  }
  // Samples live in the support and respect the cdf at the median.
  double mid = 0.5 * (lo + hi);
  double cdf_mid = p.DistanceCdf(q, mid);
  int below = 0;
  const int kSamples = 20000;
  for (int s = 0; s < kSamples; ++s) {
    double d = Distance(q, p.Sample(&rng));
    EXPECT_GE(d, lo - 1e-9);
    EXPECT_LE(d, hi + 1e-9);
    if (d <= mid) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / kSamples, cdf_mid, 0.02) << cfg;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributionProperty,
                         ::testing::Values(DistConfig{1, 0}, DistConfig{2, 0},
                                           DistConfig{3, 1}, DistConfig{4, 1},
                                           DistConfig{5, 2}, DistConfig{6, 2},
                                           DistConfig{7, 0}, DistConfig{8, 1},
                                           DistConfig{9, 2}, DistConfig{10, 0}));

// ---------------- Exact quantification over the NN!=0 candidates ----------------

enum class ExactFamily { kRandom, kTieHeavy, kLemma41, kLowerBoundCubic };
enum class ExactShape { kDiscrete, kUniformDisk, kTruncatedGaussian };

struct ExactConfig {
  ExactFamily family;
  ExactShape shape;
};

std::ostream& operator<<(std::ostream& os, const ExactConfig& c) {
  static const char* const kFamilies[] = {"random", "tie_heavy", "lemma41",
                                          "lower_bound_cubic"};
  static const char* const kShapes[] = {"discrete", "uniform_disk", "gaussian"};
  return os << kFamilies[static_cast<int>(c.family)] << "_"
            << kShapes[static_cast<int>(c.shape)];
}

// Equal-weight locations on the integer grid [0, 6]^2, every fourth point
// a copy of the one before: distance ties within points and across them.
UncertainSet TieHeavyDiscrete(int n, Rng* rng) {
  UncertainSet out;
  for (int i = 0; i < n; ++i) {
    if (i % 4 == 3) {
      out.push_back(out.back());
      continue;
    }
    int k = static_cast<int>(rng->UniformInt(1, 3));
    std::vector<Point2> locs;
    for (int s = 0; s < k; ++s) {
      locs.push_back({double(rng->UniformInt(0, 6)), double(rng->UniformInt(0, 6))});
    }
    out.push_back(UncertainPoint::Discrete(locs, std::vector<double>(k, 1.0 / k)));
  }
  return out;
}

// A family's n points, each as a discrete point and as its support disk
// (the continuous shapes' support), and its queries.
struct ExactInstance {
  UncertainSet discrete;
  std::vector<Circle> disks;
  std::vector<Point2> queries;
};

ExactInstance MakeExactInstance(ExactFamily family, int n, Rng* rng) {
  ExactInstance out;
  auto uniform = [&](double x0, double x1, double y0, double y1, int count) {
    for (int t = 0; t < count; ++t) {
      out.queries.push_back({rng->Uniform(x0, x1), rng->Uniform(y0, y1)});
    }
  };
  switch (family) {
    case ExactFamily::kRandom:
      out.discrete = DiscreteWithSpread(n, 3, 4.0, 10.0, 3.0, rng);
      uniform(-12, 12, -12, 12, 40);
      break;
    case ExactFamily::kTieHeavy:
      out.discrete = TieHeavyDiscrete(n, rng);
      for (int t = 0; t < 40; ++t) {
        // Integer and half-integer queries put many locations at one
        // distance.
        out.queries.push_back({0.5 * double(rng->UniformInt(-2, 14)),
                               0.5 * double(rng->UniformInt(-2, 14))});
      }
      break;
    case ExactFamily::kLemma41:
      out.discrete = Lemma41Instance(n, rng);
      uniform(-1.5, 1.5, -1.5, 1.5, 30);
      uniform(99.5, 100.5, -0.5, 0.5, 10);  // Every far location nearby.
      break;
    case ExactFamily::kLowerBoundCubic:
      out.disks = LowerBoundCubic(std::max(1, n / 4));
      for (const Circle& c : out.disks) {
        Point2 o = c.center;
        double r = c.radius;
        out.discrete.push_back(UncertainPoint::Discrete(
            {o, o + Point2{r, 0}, o + Point2{-r, 0}, o + Point2{0, r}, o + Point2{0, -r}},
            std::vector<double>(5, 0.2)));
      }
      uniform(-3, 3, -8, 8, 30);
      for (int t = 0; t < 10; ++t) {
        out.queries.push_back({0.0, double(rng->UniformInt(-8, 8))});  // On the axis.
      }
      break;
  }
  if (out.disks.empty()) {
    for (const UncertainPoint& p : out.discrete) {
      Point2 c = p.Centroid();
      double r = 0.5;
      for (Point2 l : p.discrete().locations) r = std::max(r, Distance(c, l));
      out.disks.push_back({c, r});
    }
  }
  return out;
}

class RestrictedExactProperty : public ::testing::TestWithParam<ExactConfig> {};

// The exact evaluator over the widened NN!=0 candidates answers exactly
// what it answers over the whole set: the bound's brute-force candidates
// through QuantifyExactOver, and Engine::QuantifyExact through its index.
// Every point of the family gets a far copy right after it, so the
// candidates are a subsequence that leaves points out between them.
TEST_P(RestrictedExactProperty, MatchesFullSetBitwise) {
  ExactConfig cfg = GetParam();
  Rng rng(977 + 31 * static_cast<uint64_t>(cfg.family));
  const bool discrete = cfg.shape == ExactShape::kDiscrete;
  // Quadrature costs O(t^2) cdf evaluations a node (a truncated Gaussian's
  // cdf is itself a quadrature), so the continuous shapes run smaller.
  const bool gaussian = cfg.shape == ExactShape::kTruncatedGaussian;
  ExactInstance inst = MakeExactInstance(cfg.family, discrete ? 40 : gaussian ? 4 : 8,
                                         &rng);
  if (!discrete) inst.queries.resize(gaussian ? 2 : 8);
  double reach = 0.0;
  for (const Circle& c : inst.disks) {
    reach = std::max(reach, Norm(c.center) + c.radius);
  }
  const Point2 shift{4.0 * reach + 100.0, 0.0};
  UncertainSet pts;
  for (size_t i = 0; i < inst.disks.size(); ++i) {
    for (Point2 d : {Point2{0, 0}, shift}) {
      if (discrete) {
        const DiscreteDistribution& dist = inst.discrete[i].discrete();
        std::vector<Point2> locs;
        for (Point2 l : dist.locations) locs.push_back(l + d);
        pts.push_back(UncertainPoint::DiscreteFromNormalized(locs, dist.weights));
      } else {
        const Circle& c = inst.disks[i];
        pts.push_back(cfg.shape == ExactShape::kUniformDisk
                          ? UncertainPoint::UniformDisk(c.center + d, c.radius)
                          : UncertainPoint::TruncatedGaussian(c.center + d, c.radius,
                                                              0.5 * c.radius));
      }
    }
  }
  Engine engine(pts);

  for (Point2 q : inst.queries) {
    std::vector<Quantification> full =
        discrete ? QuantifyExactDiscrete(pts, q) : QuantifyNumericContinuous(pts, q);
    double delta = std::numeric_limits<double>::infinity();
    for (const UncertainPoint& p : pts) delta = std::min(delta, p.MaxDistance(q));
    double bound = McCandidateBound(delta);
    std::vector<int> ids;
    std::vector<const UncertainPoint*> candidates;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (pts[i].MinDistance(q) < bound) {
        ids.push_back(static_cast<int>(i));
        candidates.push_back(&pts[i]);
      }
    }
    ASSERT_LT(candidates.size(), pts.size()) << cfg;
    std::vector<Quantification> restricted = QuantifyExactOver(candidates, q);
    for (Quantification& e : restricted) e.index = ids[e.index];

    for (const auto& got : {restricted, engine.QuantifyExact(q)}) {
      ASSERT_EQ(got.size(), full.size()) << cfg << " q=" << q.x << "," << q.y;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].index, full[i].index) << cfg;
        EXPECT_EQ(Bits(got[i].probability), Bits(full[i].probability))
            << cfg << " q=" << q.x << "," << q.y << " index " << full[i].index;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RestrictedExactProperty,
    ::testing::Values(
        ExactConfig{ExactFamily::kRandom, ExactShape::kDiscrete},
        ExactConfig{ExactFamily::kRandom, ExactShape::kUniformDisk},
        ExactConfig{ExactFamily::kRandom, ExactShape::kTruncatedGaussian},
        ExactConfig{ExactFamily::kTieHeavy, ExactShape::kDiscrete},
        ExactConfig{ExactFamily::kTieHeavy, ExactShape::kUniformDisk},
        ExactConfig{ExactFamily::kTieHeavy, ExactShape::kTruncatedGaussian},
        ExactConfig{ExactFamily::kLemma41, ExactShape::kDiscrete},
        ExactConfig{ExactFamily::kLemma41, ExactShape::kUniformDisk},
        ExactConfig{ExactFamily::kLemma41, ExactShape::kTruncatedGaussian},
        ExactConfig{ExactFamily::kLowerBoundCubic, ExactShape::kDiscrete},
        ExactConfig{ExactFamily::kLowerBoundCubic, ExactShape::kUniformDisk},
        ExactConfig{ExactFamily::kLowerBoundCubic, ExactShape::kTruncatedGaussian}));

}  // namespace
}  // namespace pnn
