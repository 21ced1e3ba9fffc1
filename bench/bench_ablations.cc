// Ablations of the design choices DESIGN.md calls out:
//   A1. diff-tree anchor stride (the persistent-structure substitution of
//       Theorem 2.11): storage vs label-retrieval time;
//   A2. Monte-Carlo round structure: Delaunay (the paper's Voronoi + point
//       location) vs the kd-tree the engines use, built directly on the
//       same instantiations;
//   A3. expected-NN best-first pruning vs a linear scan of E[d].

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/core/nnquery/expected_nn.h"
#include "src/core/v0/labeled_subdivision.h"
#include "src/core/v0/nonzero_voronoi.h"
#include "src/delaunay/delaunay.h"
#include "src/spatial/kdtree.h"
#include "src/util/alloc_hook.h"
#include "src/util/table.h"
#include "src/util/timer.h"
#include "src/workload/generators.h"

namespace pnn {
namespace {

void AnchorStride() {
  std::printf("\n### A1: diff-tree anchor stride (n = 100 clustered disks)\n\n");
  Rng rng(73);
  auto disks = ClusteredDisks(100, 3, 40, 1.5, &rng);
  UncertainSet upts;
  for (const auto& d : disks) {
    upts.push_back(UncertainPoint::UniformDisk(d.center, d.radius));
  }
  NonzeroVoronoi v0(disks);
  const Arrangement& arr = v0.arrangement();
  auto truth = [&](Point2 q) { return NonzeroNNBruteForce(upts, q); };
  std::printf("faces: %zu\n\n", v0.complexity().faces);
  // Reference labels: stride 1 stores every face's label outright.
  LabeledSubdivision reference(&arr, truth, 1);
  Table table({"stride", "storage (ints)", "retrieval us/face", "matches stride-1"});
  for (int stride : {1, 8, 32, 128, 1 << 20}) {
    LabeledSubdivision labels(&arr, truth, stride);
    Timer t;
    size_t acc = 0;
    for (size_t f = 0; f < arr.NumFaces(); ++f) {
      acc += labels.FaceLabel(static_cast<int>(f)).size();
    }
    double us = t.Micros() / arr.NumFaces();
    bool same = true;
    for (size_t f = 0; f < arr.NumFaces() && same; ++f) {
      same = labels.FaceLabel(static_cast<int>(f)) ==
             reference.FaceLabel(static_cast<int>(f));
    }
    table.AddRow({stride >= (1 << 20) ? "inf" : Table::Int(stride),
                  Table::Int(static_cast<long long>(labels.LabelStorageInts())),
                  Table::Num(us, 3), same ? "yes" : "NO"});
    (void)acc;
  }
  table.Print();
  std::printf(
      "\nTrade-off: stride 1 stores every label (max space, O(1) walk); "
      "stride inf stores only roots (min space, deep walks).\n");
}

// Builds one structure per instantiation, then answers every query on
// every round (queries outer, rounds inner: the access order of a
// Monte-Carlo query). Reports per-round build time, per-lookup time and
// the heap bytes a round retains, and returns the squared NN distances.
template <typename Build, typename Nearest>
std::vector<double> MeasureRoundStructure(const char* name, int n,
                                          const std::vector<std::vector<Point2>>& rounds,
                                          const std::vector<Point2>& queries,
                                          Build build, Nearest nearest, Table* table) {
  using Structure = typename decltype(build(rounds[0]))::element_type;
  std::vector<std::unique_ptr<Structure>> built;
  built.reserve(rounds.size());
  int64_t bytes_before = util::LiveAllocatedBytes();
  Timer tb;
  for (const auto& sample : rounds) built.push_back(build(sample));
  double build_ms = tb.Millis() / rounds.size();
  double bytes = static_cast<double>(util::LiveAllocatedBytes() - bytes_before) /
                 static_cast<double>(rounds.size());
  std::vector<double> sq;
  sq.reserve(queries.size() * rounds.size());
  Timer tq;
  for (Point2 q : queries) {
    for (size_t r = 0; r < built.size(); ++r) {
      sq.push_back(SquaredDistance(q, rounds[r][nearest(*built[r], q)]));
    }
  }
  double us = tq.Micros() / static_cast<double>(sq.size());
  table->AddRow({Table::Int(n), name, Table::Num(build_ms, 4), Table::Num(us, 4),
                 Table::Num(bytes / 1024.0, 4), Table::Num(bytes / n, 4)});
  return sq;
}

void RoundStructure() {
  const int kRounds = 32;
  std::printf(
      "\n### A2: Monte-Carlo round structure, Delaunay (the paper's Voronoi + point "
      "location) vs kd-tree, on the same %d instantiations\n\n",
      kRounds);
  Table table({"n", "structure", "build_ms/round", "us/NN query", "KiB/round",
               "bytes/point"});
  bool agree = true;
  for (int n : {200, 2000}) {
    Rng rng(79 + n);
    auto pts =
        ToUniformUncertain(RandomDiscreteLocations(n, 3, 4.0 * std::sqrt(double(n)),
                                                   3.0, &rng));
    std::vector<std::vector<Point2>> rounds(kRounds);
    for (auto& sample : rounds) {
      for (const auto& p : pts) sample.push_back(p.Sample(&rng));
    }
    std::vector<Point2> queries;
    double span = 5.0 * std::sqrt(double(n));
    for (int i = 0; i < 200; ++i) {
      queries.push_back({rng.Uniform(-span, span), rng.Uniform(-span, span)});
    }
    auto dt = MeasureRoundStructure(
        "delaunay", n, rounds, queries,
        [](const std::vector<Point2>& s) { return std::make_unique<Delaunay>(s); },
        [](const Delaunay& d, Point2 q) { return d.Nearest(q); }, &table);
    auto kd = MeasureRoundStructure(
        "kdtree", n, rounds, queries,
        [](const std::vector<Point2>& s) { return std::make_unique<KdTree>(s); },
        [](const KdTree& t, Point2 q) { return t.NearestSquared(q); }, &table);
    agree = agree && dt == kd;
  }
  table.Print();
  std::printf("\nNN squared distances identical on every lookup: %s\n",
              agree ? "yes" : "NO");
}

void ExpectedPruning() {
  std::printf("\n### A3: expected-NN best-first pruning (discrete, k = 3)\n\n");
  Table table({"n", "index us/q", "scan us/q", "exact evals/q (of n)"});
  for (int n : {100, 400, 1600}) {
    Rng rng(83 + n);
    auto pts = ToUniformUncertain(
        RandomDiscreteLocations(n, 3, 6.0 * std::sqrt(double(n)), 2.0, &rng));
    ExpectedNNIndex index(&pts);
    std::vector<Point2> queries;
    double span = 7.0 * std::sqrt(double(n));
    for (int i = 0; i < 200; ++i) {
      queries.push_back({rng.Uniform(-span, span), rng.Uniform(-span, span)});
    }
    Timer t1;
    size_t evals = 0;
    for (Point2 q : queries) {
      index.Nearest(q);
      evals += index.last_evaluations();
    }
    double index_us = t1.Micros() / queries.size();
    Timer t2;
    int acc = 0;
    for (Point2 q : queries) {
      double bd = 1e300;
      for (size_t i = 0; i < pts.size(); ++i) {
        double e = pts[i].ExpectedDistance(q);
        if (e < bd) {
          bd = e;
          acc = static_cast<int>(i);
        }
      }
    }
    (void)acc;
    double scan_us = t2.Micros() / queries.size();
    table.AddRow({Table::Int(n), Table::Num(index_us, 4), Table::Num(scan_us, 4),
                  Table::Num(static_cast<double>(evals) / queries.size(), 3)});
  }
  table.Print();
}

}  // namespace
}  // namespace pnn

int main() {
  std::printf("# Ablations of implementation design choices\n");
  pnn::AnchorStride();
  pnn::RoundStructure();
  pnn::ExpectedPruning();
  return 0;
}
