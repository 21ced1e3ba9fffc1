// E14 — cross-method comparison on shared workloads: exact Eq. (2) sweep,
// exact V_Pr lookup, Monte Carlo, and spiral search. Reports build time,
// query time, and observed max error (against the exact sweep). This is
// the summary table for "which structure when".

#include <cmath>
#include <cstdio>
#include <vector>

#include "src/core/pnn.h"
#include "src/core/prob/quantify.h"
#include "src/core/prob/spiral.h"
#include "src/core/prob/vpr_diagram.h"
#include "src/util/table.h"
#include "src/util/timer.h"
#include "src/workload/generators.h"

namespace pnn {
namespace {

double MaxErr(const UncertainSet& pts, const std::vector<Quantification>& est,
              const std::vector<Quantification>& exact) {
  std::vector<double> e(pts.size(), 0.0), g(pts.size(), 0.0);
  for (const auto& x : exact) e[x.index] = x.probability;
  for (const auto& x : est) g[x.index] = x.probability;
  double worst = 0;
  for (size_t i = 0; i < pts.size(); ++i) worst = std::max(worst, std::abs(e[i] - g[i]));
  return worst;
}

void Compare(int n, int k, double rho, bool include_vpr) {
  std::printf("\n### n = %d, k = %d, rho = %.0f%s\n\n", n, k, rho,
              include_vpr ? "" : " (V_Pr skipped: too large)");
  Rng rng(67);
  auto pts = DiscreteWithSpread(n, k, rho, 4.0 * std::sqrt(double(n)), 2, &rng);
  std::vector<Point2> queries;
  double span = 5.0 * std::sqrt(double(n));
  for (int i = 0; i < 30; ++i) {
    queries.push_back({rng.Uniform(-span, span), rng.Uniform(-span, span)});
  }
  std::vector<std::vector<Quantification>> exact;
  for (Point2 q : queries) exact.push_back(QuantifyExactDiscrete(pts, q));

  Table table({"method", "build_ms", "us/query", "max |err|", "guarantee"});
  {
    Timer t;
    size_t acc = 0;
    for (Point2 q : queries) acc += QuantifyExactDiscrete(pts, q).size();
    (void)acc;
    table.AddRow({"exact Eq.(2) sweep", "0", Table::Num(t.Micros() / queries.size(), 4),
                  "0", "exact"});
  }
  if (include_vpr) {
    Timer tb;
    VprDiagram vpr(pts);
    double build = tb.Millis();
    double err = 0;
    Timer t;
    for (size_t i = 0; i < queries.size(); ++i) {
      err = std::max(err, MaxErr(pts, vpr.Query(queries[i]), exact[i]));
    }
    table.AddRow({"V_Pr diagram", Table::Num(build, 4),
                  Table::Num(t.Micros() / queries.size(), 4), Table::Num(err, 3),
                  "exact"});
  }
  {
    Timer tb;
    SpiralSearchPNN spiral(pts);
    double build = tb.Millis();
    double err = 0;
    Timer t;
    for (size_t i = 0; i < queries.size(); ++i) {
      err = std::max(err, MaxErr(pts, spiral.Query(queries[i], 0.05), exact[i]));
    }
    table.AddRow({"spiral (eps=0.05)", Table::Num(build, 4),
                  Table::Num(t.Micros() / queries.size(), 4), Table::Num(err, 3),
                  "<= eps one-sided"});
  }
  {
    Engine::Options opt;
    opt.mc_rounds_override = 2000;
    opt.seed = 99;
    opt.spiral_budget_fraction = 1e-9;  // The Monte-Carlo plan.
    Timer tb;
    Engine mc(pts, opt);
    mc.Prewarm();
    double build = tb.Millis();
    double err = 0;
    Timer t;
    for (size_t i = 0; i < queries.size(); ++i) {
      err = std::max(err, MaxErr(pts, mc.Quantify(queries[i]), exact[i]));
    }
    table.AddRow({"Monte Carlo (s=2000)", Table::Num(build, 4),
                  Table::Num(t.Micros() / queries.size(), 4), Table::Num(err, 3),
                  "<= eps w.h.p."});
  }
  table.Print();
}

}  // namespace
}  // namespace pnn

int main() {
  std::printf("# E14: quantification methods compared\n");
  pnn::Compare(6, 2, 1.0, true);
  pnn::Compare(100, 3, 2.0, false);
  pnn::Compare(1000, 4, 2.0, false);
  return 0;
}
