// E10 / E11 — Theorems 4.3 and 4.5: the Monte-Carlo structure estimates
// every pi_i(q) within additive eps with probability 1 - delta using
// s = O(eps^-2 log(N/delta)) instantiations.
//
// Part 1 (discrete): observed max error over queries vs s — should track
// the sqrt(log/s) envelope; the theoretical s for each eps is reported.
// Part 2 (continuous): same against the Eq. (1) quadrature ground truth.
// Part 3: preprocessing/query time scaling in s, and the cost of building
// rounds from per-(round, id) streams (one fresh stream per sample).
// Part 4: the engines' evaluator (sample rows of the NN!=0 candidates,
// Engine::Quantify) against one kd tree per round (MonteCarloPNN) per
// query, bit-checked, across candidate counts: where the two cross.
// Exits 1 when any answer differs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/core/pnn.h"
#include "src/core/prob/monte_carlo.h"
#include "src/core/prob/quantify.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "src/util/timer.h"
#include "src/workload/generators.h"

namespace pnn {
namespace {

double MaxError(const UncertainSet& pts, const MonteCarloPNN& mc,
                const std::vector<Point2>& queries, bool continuous) {
  double worst = 0;
  for (Point2 q : queries) {
    auto est = mc.Query(q);
    auto exact = continuous ? QuantifyNumericContinuous(pts, q, 1e-9)
                            : QuantifyExactDiscrete(pts, q);
    std::vector<double> e(pts.size(), 0.0), g(pts.size(), 0.0);
    for (const auto& x : exact) e[x.index] = x.probability;
    for (const auto& x : est) g[x.index] = x.probability;
    for (size_t i = 0; i < pts.size(); ++i) {
      worst = std::max(worst, std::abs(e[i] - g[i]));
    }
  }
  return worst;
}

void ErrorVsRounds() {
  std::printf("\n### discrete: observed max error vs rounds s (n=12, k=3)\n\n");
  Rng rng(41);
  auto pts = ToUniformUncertain(RandomDiscreteLocations(12, 3, 15, 4, &rng));
  std::vector<Point2> queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back({rng.Uniform(-18, 18), rng.Uniform(-18, 18)});
  }
  Table table({"s", "max |err|", "sqrt(ln(2N/d)/2s) envelope", "build_ms"});
  for (size_t s : {100, 400, 1600, 6400, 25600}) {
    MonteCarloPNN::Options opt;
    opt.rounds_override = s;
    opt.seed = 4242;
    Timer t;
    MonteCarloPNN mc(pts, opt);
    double ms = t.Millis();
    double envelope = std::sqrt(std::log(2.0 * 36 / 0.05) / (2.0 * s));
    table.AddRow({Table::Int(s), Table::Num(MaxError(pts, mc, queries, false), 3),
                  Table::Num(envelope, 3), Table::Num(ms, 4)});
  }
  table.Print();
  std::printf("\nShape check: error halves when s quadruples (~1/sqrt(s)).\n");

  std::printf("\n### theoretical rounds s(eps, delta) from Theorem 4.3 (n=12, k=3)\n\n");
  Table t2({"eps", "delta", "s"});
  for (double eps : {0.2, 0.1, 0.05}) {
    for (double delta : {0.1, 0.01}) {
      t2.AddRow({Table::Num(eps, 3), Table::Num(delta, 3),
                 Table::Int(static_cast<long long>(
                     MonteCarloPNN::TheoreticalRounds(12, 3, eps, delta)))});
    }
  }
  t2.Print();
}

void Continuous() {
  std::printf("\n### continuous (Theorem 4.5): uniform disks + truncated Gaussian\n\n");
  Rng rng(43);
  UncertainSet pts;
  for (int i = 0; i < 6; ++i) {
    Point2 c{rng.Uniform(-8, 8), rng.Uniform(-8, 8)};
    if (i % 2 == 0) {
      pts.push_back(UncertainPoint::UniformDisk(c, rng.Uniform(1.0, 2.5)));
    } else {
      pts.push_back(UncertainPoint::TruncatedGaussian(c, 2.0, rng.Uniform(0.5, 1.2)));
    }
  }
  std::vector<Point2> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back({rng.Uniform(-10, 10), rng.Uniform(-10, 10)});
  }
  Table table({"s", "max |err|", "build_ms"});
  for (size_t s : {400, 1600, 6400}) {
    MonteCarloPNN::Options opt;
    opt.rounds_override = s;
    opt.seed = 77;
    Timer t;
    MonteCarloPNN mc(pts, opt);
    double ms = t.Millis();
    table.AddRow({Table::Int(s), Table::Num(MaxError(pts, mc, queries, true), 3),
                  Table::Num(ms, 4)});
  }
  table.Print();
}

void QueryCost() {
  std::printf("\n### query cost vs s (kd-tree rounds, n = 50)\n\n");
  Rng rng(47);
  auto pts = ToUniformUncertain(RandomDiscreteLocations(50, 3, 30, 3, &rng));
  Table table({"s", "us/query"});
  for (size_t s : {100, 400, 1600}) {
    MonteCarloPNN::Options opt;
    opt.rounds_override = s;
    MonteCarloPNN mc(pts, opt);
    const int kQueries = 200;
    Timer t;
    size_t acc = 0;
    for (int i = 0; i < kQueries; ++i) {
      acc += mc.Query({rng.Uniform(-35, 35), rng.Uniform(-35, 35)}).size();
    }
    table.AddRow({Table::Int(s), Table::Num(t.Micros() / kQueries, 4)});
    (void)acc;
  }
  table.Print();
}

// Every sample comes from its own stream MakeStreamRng(SplitSeed(seed, r),
// id), so the round build pays one stream seeding per sample. The draw-only
// rows isolate that: SplitMix64 (StreamRng, what the build uses) against a
// freshly seeded mt19937_64 (Rng) per sample.
void RoundBuildCost() {
  const size_t n = 2000, s = 256;
  std::printf("\n### round build from per-id streams (n = %zu disks, s = %zu)\n\n", n, s);
  Rng rng(53);
  UncertainSet pts;
  for (size_t i = 0; i < n; ++i) {
    Point2 c{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    pts.push_back(UncertainPoint::UniformDisk(c, rng.Uniform(0.5, 3)));
  }
  std::vector<uint64_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = 3 * i + 1;
  const double samples = static_cast<double>(n * s);
  Table table({"stage", "ms", "ns/sample"});

  Timer build;
  McRounds rounds;
  BuildMcRounds(pts, 7, 0, s, ids, KdBuildOptions(), &rounds);
  double build_ms = build.Millis();
  table.AddRow({"BuildMcRounds (draws + kd builds)", Table::Num(build_ms, 4),
                Table::Num(build_ms * 1e6 / samples, 4)});

  double acc = 0;
  Timer split;
  for (size_t r = 0; r < s; ++r) {
    uint64_t round_seed = SplitSeed(7, r);
    for (size_t j = 0; j < n; ++j) {
      StreamRng stream = MakeStreamRng(round_seed, ids[j]);
      acc += pts[j].Sample(&stream).x;
    }
  }
  double split_ms = split.Millis();
  table.AddRow({"draws only, StreamRng (SplitMix64)", Table::Num(split_ms, 4),
                Table::Num(split_ms * 1e6 / samples, 4)});

  Timer twister;
  for (size_t r = 0; r < s; ++r) {
    uint64_t round_seed = SplitSeed(7, r);
    for (size_t j = 0; j < n; ++j) {
      Rng stream(SplitSeed(round_seed, ids[j]));
      acc += pts[j].Sample(&stream).x;
    }
  }
  double twister_ms = twister.Millis();
  table.AddRow({"draws only, Rng (mt19937_64) per sample", Table::Num(twister_ms, 4),
                Table::Num(twister_ms * 1e6 / samples, 4)});
  table.Print();
  std::printf("(checksum %.3f)\n", acc);
}

// One row of the crossover table: n disks, s rounds, `queries` random
// queries over the disks' extent. Returns the number of answers that
// differ between the two structures.
size_t RowsVsRoundsRow(Table* table, const char* name, const std::vector<Circle>& disks,
                       size_t s, int queries, Rng* rng) {
  UncertainSet pts;
  double extent = 0;
  for (const Circle& c : disks) {
    pts.push_back(UncertainPoint::UniformDisk(c.center, c.radius));
    extent = std::max({extent, std::abs(c.center.x), std::abs(c.center.y)});
  }
  MonteCarloPNN::Options mco;
  mco.rounds_override = s;
  mco.seed = 61;
  Timer kd_build;
  MonteCarloPNN kd(pts, mco);
  double kd_build_ms = kd_build.Millis();
  Engine::Options eo;
  eo.mc_rounds_override = s;
  eo.seed = 61;
  Engine engine(pts, eo);
  Timer rows_build;
  engine.Prewarm();
  double rows_build_ms = rows_build.Millis();

  std::vector<Point2> qs(queries);
  for (Point2& q : qs) q = {rng->Uniform(-extent, extent), rng->Uniform(-extent, extent)};
  double candidates = 0;
  for (Point2 q : qs) {
    candidates += static_cast<double>(
        engine.NonzeroNNWithin(q, McCandidateBound(engine.NonzeroDelta(q))).size());
  }
  std::vector<std::vector<Quantification>> want(qs.size()), got(qs.size());
  Timer kd_time;
  for (size_t i = 0; i < qs.size(); ++i) want[i] = kd.Query(qs[i]);
  double kd_us = kd_time.Micros() / queries;
  Timer rows_time;
  for (size_t i = 0; i < qs.size(); ++i) got[i] = engine.Quantify(qs[i]);
  double rows_us = rows_time.Micros() / queries;
  size_t mismatches = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    bool same = want[i].size() == got[i].size();
    for (size_t k = 0; same && k < want[i].size(); ++k) {
      same = want[i][k].index == got[i][k].index &&
             want[i][k].probability == got[i][k].probability;
    }
    mismatches += !same;
  }
  auto count = [](size_t v) { return Table::Int(static_cast<long long>(v)); };
  table->AddRow({name, count(pts.size()), count(s), Table::Num(candidates / queries, 4),
                 Table::Num(kd_us, 4), Table::Num(rows_us, 4), Table::Num(kd_build_ms, 4),
                 Table::Num(rows_build_ms, 4), count(mismatches)});
  return mismatches;
}

size_t RowsVsRounds() {
  std::printf(
      "\n### candidate rows vs kd round trees, per query (bit-checked; uniform disks "
      "in [-L, L]^2 with L = 22.4 sqrt(n / 2000), single thread)\n\n");
  Rng rng(67);
  Table table({"instance", "n", "s", "candidates", "kd us/query", "rows us/query",
               "kd build ms", "rows build ms", "mismatches"});
  size_t bad = 0;
  struct Config {
    const char* name;
    int n;
    size_t s;
    double rmin, rmax;
    int queries;
  };
  const Config configs[] = {
      {"disks r 0.5-2", 2000, 256, 0.5, 2, 400},
      {"disks r 2-5", 2000, 256, 2, 5, 400},
      {"disks r 5-10", 2000, 256, 5, 10, 200},
      {"disks r 10-20", 2000, 256, 10, 20, 200},
      {"disks r 30-40", 2000, 256, 30, 40, 100},
      {"disks r 0.5-2", 20000, 256, 0.5, 2, 200},
      {"disks r 10-20", 20000, 256, 10, 20, 50},
      {"disks r 0.5-2", 2000, 2085, 0.5, 2, 100},
      {"disks r 10-20", 2000, 2085, 10, 20, 40},
  };
  for (const Config& c : configs) {
    double span = 22.4 * std::sqrt(c.n / 2000.0);
    bad += RowsVsRoundsRow(&table, c.name, RandomDisks(c.n, span, c.rmin, c.rmax, &rng),
                           c.s, c.queries, &rng);
  }
  bad += RowsVsRoundsRow(&table, "LowerBoundCubic(500)", LowerBoundCubic(500), 256, 200,
                         &rng);
  table.Print();
  std::printf(
      "\nThe rows scan costs O(t s) for t candidates, a kd round O(s log n): rows win "
      "while t stays below a few hundred.\n");
  return bad;
}

}  // namespace
}  // namespace pnn

int main() {
  std::printf("# E10/E11 (Theorems 4.3, 4.5): Monte-Carlo quantification\n");
  pnn::ErrorVsRounds();
  pnn::Continuous();
  pnn::QueryCost();
  pnn::RoundBuildCost();
  return pnn::RowsVsRounds() == 0 ? 0 : 1;
}
