// Delaunay triangulation with exact predicates, plus exact nearest-neighbor
// queries by greedy walking — the "Voronoi diagram + point location"
// structure Section 4.2 names for each random instantiation. (The Voronoi
// diagram is the dual; the greedy walk on the Delaunay graph locates the
// Voronoi cell containing the query.) No query path uses it: Monte-Carlo
// rounds are kd-trees (core/prob/monte_carlo.h), and the tests use this as
// their exact nearest-neighbor oracle.
//
// Implementation: randomized-incremental Bowyer–Watson over a far-away
// super-triangle; all orientation / in-circle decisions use the exact
// filtered predicates, so the structure is the true Delaunay triangulation
// of the input plus three distant helper vertices.

#ifndef PNN_DELAUNAY_DELAUNAY_H_
#define PNN_DELAUNAY_DELAUNAY_H_

#include <array>
#include <atomic>
#include <vector>

#include "src/geometry/point2.h"
#include "src/util/rng.h"

namespace pnn {

/// Delaunay triangulation of a planar point set.
class Delaunay {
 public:
  /// Builds the triangulation. Duplicate points are kept as vertices but
  /// only the first occurrence participates; `seed` randomizes insertion
  /// order (the classical expected-O(n log n) argument).
  explicit Delaunay(const std::vector<Point2>& points, uint64_t seed = 1);

  /// Index of the exact nearest input point to q. Ties broken arbitrarily
  /// (by walk position, which depends on the hint — so on exactly
  /// equidistant inputs the winning index is not deterministic across
  /// query orders). Expected O(sqrt(n)) walk without a location hint;
  /// repeated queries with spatial locality are much faster (the walk
  /// restarts at the previous answer). Thread-safe: the walk hint is a
  /// relaxed atomic, so concurrent queries race only on which (equally
  /// valid) hint they see.
  int Nearest(Point2 q) const;

  /// Triangles as index triples (CCW), excluding helper vertices.
  std::vector<std::array<int, 3>> Triangles() const;

  /// Delaunay graph neighbors of vertex v (input indices only).
  const std::vector<int>& Neighbors(int v) const { return adjacency_[v]; }

  size_t size() const { return num_input_; }

 private:
  struct Tri {
    int v[3];   // CCW vertices.
    int nb[3];  // nb[i]: triangle opposite v[i], or -1.
    bool alive = true;
  };

  int Locate(Point2 p, int hint) const;
  void Insert(int vid);
  void BuildAdjacency();
  bool IsHelper(int v) const { return v >= static_cast<int>(num_input_); }

  std::vector<Point2> pts_;   // Input points + 3 helper vertices.
  size_t num_input_ = 0;
  std::vector<Tri> tris_;
  std::vector<int> vert_tri_;           // Some alive triangle per vertex.
  std::vector<std::vector<int>> adjacency_;
  std::vector<int> duplicate_of_;       // Canonical index for duplicates.
  mutable std::atomic<int> last_tri_{0};  // Walk hint; relaxed, any value works.
};

}  // namespace pnn

#endif  // PNN_DELAUNAY_DELAUNAY_H_
