// End-to-end tests of the pnn::Engine facade and the workload generators,
// including the lower-bound construction validators.

#include "src/core/pnn.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/gamma/gamma_curves.h"
#include "src/dyn/dynamic_engine.h"
#include "src/workload/generators.h"

namespace pnn {
namespace {

TEST(Engine, DiscreteEndToEnd) {
  Rng rng(1001);
  auto pts = ToUniformUncertain(RandomDiscreteLocations(12, 3, 20, 4, &rng));
  Engine engine(pts);
  EXPECT_TRUE(engine.all_discrete());
  for (int t = 0; t < 50; ++t) {
    Point2 q{rng.Uniform(-25, 25), rng.Uniform(-25, 25)};
    // NonzeroNN agrees with brute force.
    EXPECT_EQ(engine.NonzeroNN(q), NonzeroNNBruteForce(pts, q));
    // Quantify within eps of exact.
    double eps = 0.05;
    auto est = engine.Quantify(q, eps);
    auto exact = engine.QuantifyExact(q);
    std::vector<double> e(pts.size(), 0.0), g(pts.size(), 0.0);
    for (const auto& x : exact) e[x.index] = x.probability;
    for (const auto& x : est) g[x.index] = x.probability;
    for (size_t i = 0; i < pts.size(); ++i) {
      EXPECT_NEAR(g[i], e[i], eps + 1e-9);
    }
    // Every quantified point is a nonzero NN candidate.
    auto nn = engine.NonzeroNN(q);
    for (const auto& x : exact) {
      EXPECT_TRUE(std::binary_search(nn.begin(), nn.end(), x.index));
    }
  }
}

TEST(Engine, ContinuousEndToEnd) {
  Rng rng(1003);
  UncertainSet pts;
  for (int i = 0; i < 8; ++i) {
    pts.push_back(UncertainPoint::UniformDisk(
        {rng.Uniform(-15, 15), rng.Uniform(-15, 15)}, rng.Uniform(0.5, 2.5)));
  }
  Engine::Options opt;
  opt.mc_rounds_override = 8000;
  Engine engine(pts, opt);
  EXPECT_TRUE(engine.all_continuous());
  for (int t = 0; t < 5; ++t) {
    Point2 q{rng.Uniform(-18, 18), rng.Uniform(-18, 18)};
    EXPECT_EQ(engine.NonzeroNN(q), NonzeroNNBruteForce(pts, q));
    auto est = engine.Quantify(q, 0.05);
    auto exact = engine.QuantifyExact(q);
    std::vector<double> e(pts.size(), 0.0), g(pts.size(), 0.0);
    for (const auto& x : exact) e[x.index] = x.probability;
    for (const auto& x : est) g[x.index] = x.probability;
    for (size_t i = 0; i < pts.size(); ++i) EXPECT_NEAR(g[i], e[i], 0.05);
  }
}

TEST(Engine, ThresholdAndMostLikelyConsistent) {
  Rng rng(1005);
  auto pts = ToUniformUncertain(RandomDiscreteLocations(10, 2, 15, 3, &rng));
  Engine engine(pts);
  for (int t = 0; t < 30; ++t) {
    Point2 q{rng.Uniform(-18, 18), rng.Uniform(-18, 18)};
    auto all = engine.Quantify(q, 0.02);
    auto thr = engine.ThresholdNN(q, 0.3, 0.02);
    for (const auto& x : thr) EXPECT_GT(x.probability, 0.3);
    int ml = engine.MostLikelyNN(q, 0.02);
    for (const auto& x : all) {
      EXPECT_LE(x.probability,
                1e-12 + [&] {
                  for (const auto& y : all) {
                    if (y.index == ml) return y.probability;
                  }
                  return 0.0;
                }());
    }
  }
}

TEST(Engine, ExpectedDistanceNNDiffersFromMostLikely) {
  // The YTX+10 point the paper cites: under large uncertainty the
  // expected-distance NN can disagree with the most-probable NN. A point
  // with a huge spread can have the smaller expected distance yet lose
  // the probability race almost always... construct the classic case:
  UncertainSet pts;
  // P_0: usually very near, sometimes very far: E[d] ~ 40, but it is the
  // nearest neighbor 60% of the time.
  pts.push_back(UncertainPoint::Discrete({{0.1, 0}, {100, 0}}, {0.6, 0.4}));
  // P_1: certain-ish at distance 2: E[d] ~ 2.05.
  pts.push_back(UncertainPoint::Discrete({{2, 0}, {2.1, 0}}, {0.5, 0.5}));
  Engine engine(pts);
  Point2 q{0, 0};
  EXPECT_EQ(engine.ExpectedDistanceNN(q), 1);   // Expected distance favors P_1...
  auto exact = engine.QuantifyExact(q);
  std::vector<double> pi(2, 0.0);
  for (const auto& e : exact) pi[e.index] = e.probability;
  EXPECT_NEAR(pi[0], 0.6, 1e-12);               // ...but P_0 wins 60/40.
  EXPECT_EQ(engine.MostLikelyNN(q, 0.01), 0);
}

// A Monte-Carlo answer depends on (points, options, q, eps) only: a
// Quantify at a tighter eps extends the engine's round cache, and a later
// query at a looser eps still counts exactly its own first rounds(eps)
// trees — as a fresh engine and a DynamicEngine over the same points do.
TEST(Engine, QuantifyIgnoresEarlierTighterEps) {
  Rng rng(3);
  UncertainSet pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back(UncertainPoint::UniformDisk(
        {rng.Uniform(-20, 20), rng.Uniform(-20, 20)}, rng.Uniform(0.5, 3.0)));
  }
  std::vector<Point2> queries;
  for (int i = 0; i < 50; ++i) {
    queries.push_back({rng.Uniform(-22, 22), rng.Uniform(-22, 22)});
  }
  Engine fresh(pts);
  Engine used(pts);
  dyn::DynamicEngine dynamic(pts);
  ASSERT_EQ(fresh.PlanForQuantify(0.2), QuantifyPlan::kMonteCarlo);
  used.Quantify(queries[0], 0.1);
  fresh.Prewarm(0.2);
  ASSERT_GT(used.MonteCarloRounds(), fresh.MonteCarloRounds());

  auto expect_identical = [](const std::vector<Quantification>& got,
                             const std::vector<Quantification>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, want[i].index);
      EXPECT_EQ(got[i].probability, want[i].probability);
    }
  };
  for (Point2 q : queries) {
    std::vector<Quantification> want = fresh.Quantify(q, 0.2);
    expect_identical(used.Quantify(q, 0.2), want);
    expect_identical(dynamic.View()->Quantify(q, 0.2), want);
  }
}

TEST(Engine, RejectsInvalidEps) {
  UncertainSet pts;
  pts.push_back(UncertainPoint::Discrete({{0, 0}}, {1.0}));
  Engine engine(pts);
  EXPECT_DEATH(engine.Quantify({0, 0}, 0.0), "eps");
  EXPECT_DEATH(engine.Quantify({0, 0}, 1.5), "eps");
}

TEST(Engine, ValidatesOptionsAtConstruction) {
  UncertainSet pts;
  pts.push_back(UncertainPoint::Discrete({{0, 0}}, {1.0}));
  {
    Engine::Options opt;
    opt.default_eps = 0.0;
    EXPECT_DEATH(Engine(pts, opt), "default_eps");
    opt.default_eps = 1.0;
    EXPECT_DEATH(Engine(pts, opt), "default_eps");
  }
  {
    Engine::Options opt;
    opt.mc_delta = -0.5;
    EXPECT_DEATH(Engine(pts, opt), "mc_delta");
  }
  {
    Engine::Options opt;
    opt.spiral_budget_fraction = 0.0;
    EXPECT_DEATH(Engine(pts, opt), "spiral_budget_fraction");
    opt.spiral_budget_fraction = 1.5;
    EXPECT_DEATH(Engine(pts, opt), "spiral_budget_fraction");
  }
  {
    Engine::Options opt;
    opt.mc_stream_ids = {1, 2};  // Two ids for one point.
    EXPECT_DEATH(Engine(pts, opt), "mc_stream_ids");
  }
}

TEST(Engine, RejectsInvalidTau) {
  UncertainSet pts;
  pts.push_back(UncertainPoint::Discrete({{0, 0}}, {1.0}));
  Engine engine(pts);
  EXPECT_DEATH(engine.ThresholdNN({0, 0}, -0.01), "tau");
  EXPECT_DEATH(engine.ThresholdNN({0, 0}, 1.01), "tau");
  EXPECT_TRUE(engine.ThresholdNN({5, 5}, 1.0).empty());  // Boundary is legal.
}

TEST(Engine, NonzeroDeltaAndWithinMatchNonzeroNN) {
  Rng rng(1013);
  UncertainSet pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back(UncertainPoint::UniformDisk(
        {rng.Uniform(-15, 15), rng.Uniform(-15, 15)}, rng.Uniform(0.5, 2.5)));
  }
  Engine engine(pts);
  for (int t = 0; t < 30; ++t) {
    Point2 q{rng.Uniform(-18, 18), rng.Uniform(-18, 18)};
    EXPECT_EQ(engine.NonzeroNNWithin(q, engine.NonzeroDelta(q)), engine.NonzeroNN(q));
  }
  // A skip mask excludes exactly the masked points from both stages.
  std::vector<char> skip(pts.size(), 0);
  skip[0] = skip[7] = 1;
  UncertainSet rest;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (!skip[i]) rest.push_back(pts[i]);
  }
  Engine rest_engine(rest);
  Point2 q{1.5, -2.5};
  EXPECT_DOUBLE_EQ(engine.NonzeroDelta(q, &skip), rest_engine.NonzeroDelta(q));
}

TEST(Generators, DisjointDisksAreDisjoint) {
  Rng rng(1007);
  for (double lambda : {1.0, 2.0, 8.0}) {
    auto disks = DisjointDisks(30, lambda, &rng);
    for (size_t i = 0; i < disks.size(); ++i) {
      EXPECT_GE(disks[i].radius, 1.0);
      EXPECT_LE(disks[i].radius, lambda);
      for (size_t j = i + 1; j < disks.size(); ++j) {
        EXPECT_GT(Distance(disks[i].center, disks[j].center),
                  disks[i].radius + disks[j].radius);
      }
    }
  }
}

TEST(Generators, LowerBoundQuadraticVerticesAreOnDiagram) {
  // Every predicted vertex v satisfies delta_i(v) = delta_j(v) = Delta(v):
  // it is a genuine vertex of V!=0 (Theorem 2.10's proof).
  int m = 4;
  auto disks = LowerBoundQuadratic(m);
  auto verts = LowerBoundQuadraticVertices(m);
  EXPECT_EQ(verts.size(),
            2u * ((2 * m - 2) * (2 * m - 1) / 2));  // 2 per pair with j-i>=2.
  for (Point2 v : verts) {
    // A vertex of V!=0 lies on two curves: delta_i(v) = delta_j(v) =
    // Delta(v) for (at least) two disks i, j.
    double delta = DeltaUpperEnvelope(disks, v);
    int at_min = 0;
    for (const auto& d : disks) {
      double lo = std::max(0.0, Distance(v, d.center) - d.radius);
      if (std::abs(lo - delta) < 1e-9) ++at_min;
    }
    EXPECT_GE(at_min, 2) << "predicted vertex not realized at (" << v.x << "," << v.y
                         << ")";
  }
}

TEST(Generators, SpreadWorkloadHasExactRho) {
  Rng rng(1009);
  for (double rho : {1.0, 4.0, 32.0}) {
    auto pts = DiscreteWithSpread(10, 3, rho, 20, 2, &rng);
    double wmin = 1e300, wmax = 0;
    for (const auto& p : pts) {
      for (double w : p.discrete().weights) {
        wmin = std::min(wmin, w);
        wmax = std::max(wmax, w);
      }
    }
    EXPECT_NEAR(wmax / wmin, rho, 1e-9);
  }
}

TEST(Generators, LowerBoundConstructionShapes) {
  auto cubic = LowerBoundCubic(2);
  EXPECT_EQ(cubic.size(), 8u);
  auto equal = LowerBoundCubicEqualRadius(3);
  EXPECT_EQ(equal.size(), 9u);
  for (const auto& d : equal) EXPECT_DOUBLE_EQ(d.radius, 1.0);
  auto quad = LowerBoundQuadratic(5);
  EXPECT_EQ(quad.size(), 10u);
}

}  // namespace
}  // namespace pnn
