// Differential tests for the util/simd dispatch kernels. Every kernel is
// checked against an independent reference loop written here, in BOTH
// dispatch modes (forced scalar, then whatever the host resolves — AVX2 on
// AVX2 hosts, scalar elsewhere), over lengths 0..4*lane+3 so every vector
// tail remainder is exercised, plus NaN/inf payloads and tie-heavy argmin
// inputs. The scan/argmin kernels must match BIT-FOR-BIT; Product carries
// the documented 1e-9 reassociation contract (docs/simd.md). A final
// section runs the dynamic-vs-static engine differential with dispatch
// forced scalar, and compares engine answers across dispatch modes.

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/dyn/dynamic_engine.h"
#include "src/util/rng.h"
#include "src/util/simd.h"
#include "src/util/stats.h"

namespace pnn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Restores host-resolved dispatch even when an assertion fails mid-test.
struct ScopedScalar {
  explicit ScopedScalar(bool on) { simd::ForceScalarForTest(on); }
  ~ScopedScalar() { simd::ForceScalarForTest(false); }
};

// Independent references (not the dispatch scalar table — the point is to
// certify that table too, not compare it with itself).
double RefSqDist(double x, double y, double qx, double qy) {
  double dx = x - qx, dy = y - qy;
  return dx * dx + dy * dy;
}

size_t RefMinIndex(const std::vector<double>& v) {
  double best = kInf;
  size_t best_i = v.size();
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] < best) {
      best = v[i];
      best_i = i;
    }
  }
  return best_i;
}

std::vector<size_t> TestLengths() {
  std::vector<size_t> lens;
  for (size_t n = 0; n <= 19; ++n) lens.push_back(n);  // All tail remainders.
  for (size_t n : {31u, 32u, 33u, 64u, 100u, 257u, 1000u}) lens.push_back(n);
  return lens;
}

void CheckAllKernels(const std::vector<double>& xs, const std::vector<double>& ys,
                     double qx, double qy, bool forced_scalar) {
  SCOPED_TRACE(testing::Message() << "n=" << xs.size() << " mode="
                                  << (forced_scalar ? "scalar" : "resolved"));
  ScopedScalar mode(forced_scalar);
  size_t n = xs.size();
  std::vector<double> ref_sq(n), ref_d(n);
  for (size_t i = 0; i < n; ++i) {
    ref_sq[i] = RefSqDist(xs[i], ys[i], qx, qy);
    ref_d[i] = std::sqrt(ref_sq[i]);
  }

  std::vector<double> got(n, -1.0);
  simd::SquaredDistScan(xs.data(), ys.data(), n, qx, qy, got.data());
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(ref_sq[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << i;
    } else {
      EXPECT_EQ(got[i], ref_sq[i]) << i;  // Bit-identity contract.
    }
  }

  simd::DistScan(xs.data(), ys.data(), n, qx, qy, got.data());
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(ref_d[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << i;
    } else {
      EXPECT_EQ(got[i], ref_d[i]) << i;
    }
  }

  size_t want_i = RefMinIndex(ref_sq);
  double min_sq = -1.0;
  ptrdiff_t got_i = simd::ArgminSquaredDist(xs.data(), ys.data(), n, qx, qy, &min_sq);
  if (want_i == n) {
    EXPECT_EQ(got_i, -1);
    EXPECT_EQ(min_sq, kInf);
  } else {
    EXPECT_EQ(static_cast<size_t>(got_i), want_i);
    EXPECT_EQ(min_sq, ref_sq[want_i]);
  }

  size_t want_v = RefMinIndex(ref_d);
  double min_v = -1.0;
  size_t got_v = simd::ArgminScan(ref_d.data(), n, &min_v);
  EXPECT_EQ(got_v, want_v);
  EXPECT_EQ(min_v, want_v == n ? kInf : ref_d[want_v]);
}

TEST(SimdKernelTest, RandomInputsAllLengthsBothModes) {
  Rng rng(20260809);
  for (size_t n : TestLengths()) {
    std::vector<double> xs(n), ys(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = rng.Uniform(-100, 100);
      ys[i] = rng.Uniform(-100, 100);
    }
    double qx = rng.Uniform(-100, 100), qy = rng.Uniform(-100, 100);
    CheckAllKernels(xs, ys, qx, qy, /*forced_scalar=*/true);
    CheckAllKernels(xs, ys, qx, qy, /*forced_scalar=*/false);
  }
}

TEST(SimdKernelTest, NanAndInfPayloads) {
  Rng rng(42);
  for (size_t n : TestLengths()) {
    if (n == 0) continue;
    std::vector<double> xs(n), ys(n);
    for (size_t i = 0; i < n; ++i) {
      double u = rng.Uniform(0, 1);
      if (u < 0.15) {
        xs[i] = kNaN;
        ys[i] = rng.Uniform(-5, 5);
      } else if (u < 0.3) {
        xs[i] = rng.Bernoulli(0.5) ? kInf : -kInf;
        ys[i] = rng.Uniform(-5, 5);
      } else {
        xs[i] = rng.Uniform(-5, 5);
        ys[i] = rng.Uniform(-5, 5);
      }
    }
    CheckAllKernels(xs, ys, 0.25, -0.5, true);
    CheckAllKernels(xs, ys, 0.25, -0.5, false);
  }
  // Degenerate all-NaN / all-inf rows must report "no winner".
  for (double fill : {kNaN, kInf}) {
    std::vector<double> xs(13, fill), ys(13, fill);
    CheckAllKernels(xs, ys, 0.0, 0.0, true);
    CheckAllKernels(xs, ys, 0.0, 0.0, false);
  }
}

TEST(SimdKernelTest, TieHeavyArgminBreaksByFirstIndex) {
  Rng rng(7);
  for (size_t n : TestLengths()) {
    if (n == 0) continue;
    // Coordinates drawn from a 3-value grid: massive duplication, so the
    // argmin hits its tie path constantly.
    std::vector<double> xs(n), ys(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = static_cast<double>(rng.UniformInt(0, 2));
      ys[i] = static_cast<double>(rng.UniformInt(0, 2));
    }
    CheckAllKernels(xs, ys, 1.0, 1.0, true);
    CheckAllKernels(xs, ys, 1.0, 1.0, false);
  }
  // Explicit worst case: every element identical.
  std::vector<double> same(37, 2.0);
  CheckAllKernels(same, same, 0.0, 0.0, true);
  CheckAllKernels(same, same, 0.0, 0.0, false);
}

TEST(SimdKernelTest, ProductMatchesSequentialTo1e9) {
  Rng rng(99);
  for (size_t n : TestLengths()) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = rng.Uniform(0.0, 1.0);
    double ref = 1.0;
    for (double f : v) ref *= f;
    {
      ScopedScalar scalar(true);
      EXPECT_EQ(simd::Product(v.data(), n), ref);  // Scalar is bit-exact.
    }
    {
      ScopedScalar resolved(false);
      double got = simd::Product(v.data(), n);
      EXPECT_NEAR(got, ref, 1e-9 * std::max(1.0, std::abs(ref)));
    }
    // An exact zero annihilates in every association order.
    if (n >= 3) {
      v[n / 2] = 0.0;
      ScopedScalar resolved(false);
      EXPECT_EQ(simd::Product(v.data(), n), 0.0);
    }
  }
}

TEST(MinIndexTest, ContractCorners) {
  EXPECT_EQ(MinIndex(nullptr, 0), 0u);
  double one[] = {3.0};
  EXPECT_EQ(MinIndex(one, 1), 0u);
  double ties[] = {2.0, 1.0, 1.0, 5.0, 1.0};
  EXPECT_EQ(MinIndex(ties, 5), 1u);  // Earliest index wins ties.
  double with_nan[] = {kNaN, 4.0, kNaN, 2.0, 2.0};
  EXPECT_EQ(MinIndex(with_nan, 5), 3u);  // NaN never wins.
  double all_nan[] = {kNaN, kNaN};
  EXPECT_EQ(MinIndex(all_nan, 2), 2u);
  double all_inf[] = {kInf, kInf, kInf};
  EXPECT_EQ(MinIndex(all_inf, 3), 3u);  // Nothing beats +inf.
  double neg[] = {0.0, -kInf, -kInf};
  EXPECT_EQ(MinIndex(neg, 3), 1u);
}

// ---------------------------------------------------------------------
// Engine-level differential: the full dynamic-vs-static harness with the
// dispatch forced scalar (the satellite "forced-scalar run"), and a
// cross-mode comparison of engine answers.
// ---------------------------------------------------------------------

UncertainPoint RandomTestPoint(Rng* rng) {
  Point2 c{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  if (rng->Bernoulli(0.5)) {
    int k = static_cast<int>(rng->UniformInt(1, 4));
    std::vector<Point2> locs(k);
    std::vector<double> w(k);
    double total = 0.0;
    for (int s = 0; s < k; ++s) {
      locs[s] = {c.x + rng->Uniform(-3, 3), c.y + rng->Uniform(-3, 3)};
      w[s] = rng->Uniform(0.05, 1.0);
      total += w[s];
    }
    for (int s = 0; s < k; ++s) w[s] /= total;
    return UncertainPoint::Discrete(std::move(locs), std::move(w));
  }
  return UncertainPoint::UniformDisk(c, rng->Uniform(0.5, 4.0));
}

TEST(SimdEngineDifferentialTest, ForcedScalarDynMatchesStaticExactly) {
  ScopedScalar scalar(true);
  Rng rng(1234);
  dyn::Options dopt;
  dopt.engine.seed = 77;
  dopt.engine.mc_rounds_override = 48;
  dopt.tail_limit = 8;
  dyn::DynamicEngine dynamic(dopt);
  std::vector<dyn::Id> live;
  for (int op = 0; op < 300; ++op) {
    int r = static_cast<int>(rng.UniformInt(0, 99));
    if (r < 50 || live.empty()) {
      live.push_back(dynamic.Insert(RandomTestPoint(&rng)));
      continue;
    }
    if (r < 75) {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      ASSERT_TRUE(dynamic.Erase(live[pick]));
      live.erase(live.begin() + static_cast<long>(pick));
      continue;
    }
    std::vector<dyn::Id> ids;
    UncertainSet live_set = dynamic.LiveSet(&ids);
    Engine reference(live_set, dynamic.ReferenceEngineOptions());
    Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};

    std::vector<dyn::Id> got_nn = dynamic.View()->NonzeroNN(q);
    std::vector<int> want_rank = reference.NonzeroNN(q);
    std::vector<dyn::Id> want_nn;
    for (int i : want_rank) want_nn.push_back(ids[i]);
    EXPECT_EQ(got_nn, want_nn);

    std::vector<Quantification> got_q = dynamic.View()->Quantify(q, 0.1);
    std::vector<Quantification> want_q = reference.Quantify(q, 0.1);
    ASSERT_EQ(got_q.size(), want_q.size());
    for (size_t i = 0; i < got_q.size(); ++i) {
      EXPECT_EQ(got_q[i].index, ids[want_q[i].index]);
      EXPECT_EQ(got_q[i].probability, want_q[i].probability);
    }
  }
}

// Replays an identical op/query schedule in each dispatch mode and compares
// the collected answers: ids must match exactly (distance scans and argmins
// are bit-identical across modes), probabilities to 1e-9 (the spiral path's
// survival products may reassociate). On hosts without AVX2 both runs are
// scalar and the comparison is trivially exact.
TEST(SimdEngineDifferentialTest, CrossModeAnswersAgree) {
  struct Answers {
    std::vector<std::vector<dyn::Id>> nn;
    std::vector<std::vector<Quantification>> quant;
  };
  auto run = [](bool forced_scalar) {
    ScopedScalar mode(forced_scalar);
    Answers a;
    Rng rng(5678);
    dyn::Options dopt;
    dopt.engine.seed = 31;
    dopt.engine.mc_rounds_override = 64;
    dopt.tail_limit = 8;
    dyn::DynamicEngine dynamic(dopt);
    std::vector<dyn::Id> live;
    for (int op = 0; op < 300; ++op) {
      int r = static_cast<int>(rng.UniformInt(0, 99));
      if (r < 50 || live.empty()) {
        live.push_back(dynamic.Insert(RandomTestPoint(&rng)));
        continue;
      }
      if (r < 75) {
        size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
        dynamic.Erase(live[pick]);
        live.erase(live.begin() + static_cast<long>(pick));
        continue;
      }
      Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
      a.nn.push_back(dynamic.View()->NonzeroNN(q));
      a.quant.push_back(dynamic.View()->Quantify(q, 0.1));
    }
    return a;
  };
  Answers scalar = run(true);
  Answers resolved = run(false);
  ASSERT_EQ(scalar.nn.size(), resolved.nn.size());
  for (size_t i = 0; i < scalar.nn.size(); ++i) {
    EXPECT_EQ(scalar.nn[i], resolved.nn[i]) << "query " << i;
  }
  ASSERT_EQ(scalar.quant.size(), resolved.quant.size());
  for (size_t i = 0; i < scalar.quant.size(); ++i) {
    ASSERT_EQ(scalar.quant[i].size(), resolved.quant[i].size()) << "query " << i;
    for (size_t j = 0; j < scalar.quant[i].size(); ++j) {
      EXPECT_EQ(scalar.quant[i][j].index, resolved.quant[i][j].index);
      EXPECT_NEAR(scalar.quant[i][j].probability, resolved.quant[i][j].probability,
                  1e-9);
    }
  }
}

TEST(SimdDispatchTest, NamesAndForcing) {
  {
    ScopedScalar scalar(true);
    EXPECT_STREQ(simd::ActiveName(), "scalar");
  }
  // Resolved mode must be one of the two shipped tables.
  const char* name = simd::ActiveName();
  EXPECT_TRUE(std::string(name) == "scalar" || std::string(name) == "avx2") << name;
}

}  // namespace
}  // namespace pnn
