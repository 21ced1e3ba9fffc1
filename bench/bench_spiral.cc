// E12 — Theorem 4.7: spiral search estimates all pi_i(q) within eps in
// O(rho k log(rho/eps) + log N) time, where rho is the location-
// probability spread.
//
// Part 1: rho sweep — retrieval budget m(rho, eps), observed max error
// (must be <= eps, one-sided), and query time.
// Part 2: eps sweep at fixed rho.
// Part 3: head-to-head with Monte Carlo and the exact sweep.

#include <cmath>
#include <cstdio>
#include <vector>

#include "src/core/pnn.h"
#include "src/core/prob/quantify.h"
#include "src/core/prob/spiral.h"
#include "src/util/table.h"
#include "src/util/timer.h"
#include "src/workload/generators.h"

namespace pnn {
namespace {

struct ErrStats {
  double max_under = 0;  // max (exact - est), should be <= eps.
  double max_over = 0;   // max (est - exact), should be ~0 (one-sided).
};

ErrStats Errors(const UncertainSet& pts, const SpiralSearchPNN& spiral,
                const std::vector<Point2>& queries, double eps) {
  ErrStats s;
  for (Point2 q : queries) {
    auto est = spiral.Query(q, eps);
    auto exact = QuantifyExactDiscrete(pts, q);
    std::vector<double> e(pts.size(), 0.0), g(pts.size(), 0.0);
    for (const auto& x : exact) e[x.index] = x.probability;
    for (const auto& x : est) g[x.index] = x.probability;
    for (size_t i = 0; i < pts.size(); ++i) {
      s.max_under = std::max(s.max_under, e[i] - g[i]);
      s.max_over = std::max(s.max_over, g[i] - e[i]);
    }
  }
  return s;
}

void RhoSweep() {
  std::printf("\n### rho sweep (n = 400, k = 4, eps = 0.05)\n\n");
  Table table({"rho", "m(rho,eps)", "N", "max underest", "max overest", "us/query"});
  const double eps = 0.05;
  for (double rho : {1.0, 2.0, 8.0, 32.0, 128.0}) {
    Rng rng(53);
    auto pts = DiscreteWithSpread(400, 4, rho, 60, 2, &rng);
    SpiralSearchPNN spiral(pts);
    std::vector<Point2> queries;
    for (int i = 0; i < 50; ++i) {
      queries.push_back({rng.Uniform(-70, 70), rng.Uniform(-70, 70)});
    }
    ErrStats err = Errors(pts, spiral, queries, eps);
    Timer t;
    size_t acc = 0;
    for (Point2 q : queries) acc += spiral.Query(q, eps).size();
    double us = t.Micros() / queries.size();
    (void)acc;
    table.AddRow({Table::Num(rho, 4),
                  Table::Int(static_cast<long long>(spiral.RetrievalBound(eps))),
                  Table::Int(1600), Table::Num(err.max_under, 3),
                  Table::Num(err.max_over, 3), Table::Num(us, 4)});
  }
  table.Print();
  std::printf(
      "\nShape check: m and query time grow ~linearly with rho; error stays "
      "<= eps; the estimator never overestimates (Lemma 4.6).\n");
}

void EpsSweep() {
  std::printf("\n### eps sweep (n = 400, k = 4, rho = 4)\n\n");
  Table table({"eps", "m(rho,eps)", "max underest", "us/query"});
  Rng rng(59);
  auto pts = DiscreteWithSpread(400, 4, 4.0, 60, 2, &rng);
  SpiralSearchPNN spiral(pts);
  std::vector<Point2> queries;
  for (int i = 0; i < 50; ++i) {
    queries.push_back({rng.Uniform(-70, 70), rng.Uniform(-70, 70)});
  }
  for (double eps : {0.2, 0.1, 0.05, 0.01, 0.001}) {
    ErrStats err = Errors(pts, spiral, queries, eps);
    Timer t;
    size_t acc = 0;
    for (Point2 q : queries) acc += spiral.Query(q, eps).size();
    double us = t.Micros() / queries.size();
    (void)acc;
    table.AddRow({Table::Num(eps, 4),
                  Table::Int(static_cast<long long>(spiral.RetrievalBound(eps))),
                  Table::Num(err.max_under, 3), Table::Num(us, 4)});
  }
  table.Print();
}

void BudgetSweep() {
  std::printf(
      "\n### truncation at work: explicit budget m on a dense instance "
      "(n = 60, k = 4, overlapping clusters)\n\n");
  Rng rng(71);
  // Dense: clusters as wide as the point spacing, so many uncertain points
  // interleave near any query and small budgets genuinely truncate.
  auto pts = DiscreteWithSpread(60, 4, 2.0, 10, 8, &rng);
  SpiralSearchPNN spiral(pts);
  std::vector<Point2> queries;
  for (int i = 0; i < 50; ++i) {
    queries.push_back({rng.Uniform(-12, 12), rng.Uniform(-12, 12)});
  }
  std::vector<std::vector<Quantification>> exact;
  for (Point2 q : queries) exact.push_back(QuantifyExactDiscrete(pts, q));
  Table table({"budget m", "max underest", "max overest"});
  for (size_t m : {4, 8, 16, 32, 64, 240}) {
    double under = 0, over = 0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto est = spiral.QueryWithBudget(queries[qi], m);
      std::vector<double> e(pts.size(), 0.0), g(pts.size(), 0.0);
      for (const auto& x : exact[qi]) e[x.index] = x.probability;
      for (const auto& x : est) g[x.index] = x.probability;
      for (size_t i = 0; i < pts.size(); ++i) {
        under = std::max(under, e[i] - g[i]);
        over = std::max(over, g[i] - e[i]);
      }
    }
    table.AddRow({Table::Int(m), Table::Num(under, 3), Table::Num(over, 3)});
  }
  table.Print();
  std::printf(
      "\nShape check: the underestimate decays to 0 as m grows; the "
      "overestimate is always ~0 (one-sided, Lemma 4.6).\n");
}

void HeadToHead() {
  std::printf(
      "\n### spiral vs Monte Carlo vs exact (n = 400, k = 4, rho = 2, eps = 0.05)\n\n");
  Rng rng(61);
  auto pts = DiscreteWithSpread(400, 4, 2.0, 60, 2, &rng);
  std::vector<Point2> queries;
  for (int i = 0; i < 50; ++i) {
    queries.push_back({rng.Uniform(-70, 70), rng.Uniform(-70, 70)});
  }
  Table table({"method", "build_ms", "us/query"});
  {
    Timer tb;
    SpiralSearchPNN spiral(pts);
    double build = tb.Millis();
    Timer t;
    size_t acc = 0;
    for (Point2 q : queries) acc += spiral.Query(q, 0.05).size();
    (void)acc;
    table.AddRow({"spiral search", Table::Num(build, 4),
                  Table::Num(t.Micros() / queries.size(), 4)});
  }
  {
    Engine::Options opt;
    opt.mc_rounds_override = 2000;  // Practical s for comparable accuracy.
    opt.spiral_budget_fraction = 1e-9;  // The Monte-Carlo plan.
    Timer tb;
    Engine mc(pts, opt);
    mc.Prewarm(0.05);
    double build = tb.Millis();
    Timer t;
    size_t acc = 0;
    for (Point2 q : queries) acc += mc.Quantify(q, 0.05).size();
    (void)acc;
    table.AddRow({"Monte Carlo (s=2000)", Table::Num(build, 4),
                  Table::Num(t.Micros() / queries.size(), 4)});
  }
  {
    Timer t;
    size_t acc = 0;
    for (Point2 q : queries) acc += QuantifyExactDiscrete(pts, q).size();
    (void)acc;
    table.AddRow({"exact Eq. (2) sweep", "0",
                  Table::Num(t.Micros() / queries.size(), 4)});
  }
  table.Print();
}

}  // namespace
}  // namespace pnn

int main() {
  std::printf("# E12 (Theorem 4.7): spiral-search quantification\n");
  pnn::RhoSweep();
  pnn::EpsSweep();
  pnn::BudgetSweep();
  pnn::HeadToHead();
  return 0;
}
