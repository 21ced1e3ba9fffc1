// Near-linear-size data structures for NN!=0 queries that avoid building
// V!=0 (Section 3).
//
// Both structures answer the two-stage query of the paper:
//   stage 1: compute Delta(q) = min_i Delta_i(q);
//   stage 2: report every i with delta_i(q) < Delta(q)   (Lemma 2.1).
//
// Continuous case (Theorem 3.1): Delta_i(q) = d(q, c_i) + r_i and
// delta_i(q) = d(q, c_i) - r_i, so both stages run on a weighted kd-tree
// (our substitution for the [KMR+16] dynamic additively-weighted Voronoi
// structure; see DESIGN.md §4).
//
// Discrete case (Theorem 3.2): Delta_i(q) = max_j d(q, p_ij) is evaluated
// over convex hull vertices, with best-first search over a centroid
// kd-tree using the bound Delta_i(q) >= d(q, centroid_i); stage 2 reports
// locations within Delta(q) and deduplicates owners (our substitution for
// the 3-level partition trees).

#ifndef PNN_CORE_NNQUERY_NN_INDEX_H_
#define PNN_CORE_NNQUERY_NN_INDEX_H_

#include <memory>
#include <vector>

#include "src/geometry/circle.h"
#include "src/spatial/kdtree.h"

namespace pnn {

/// Theorem 3.1-style index for disk uncertainty regions: O(n) space,
/// output-sensitive queries.
class NonzeroNNIndex {
 public:
  explicit NonzeroNNIndex(const std::vector<Circle>& disks,
                          const KdBuildOptions& build = KdBuildOptions());

  /// Adoption from a serialized layout (the durable store's recovery
  /// path): `tree` must be the exported centers-weighted-by-radii tree of
  /// an index built over the same disks.
  explicit NonzeroNNIndex(KdTree tree);

  /// Delta(q) = min_i (d(q, c_i) + r_i). Disks with skip[i] != 0 are
  /// ignored (the dynamic engine's tombstone masks); +inf if all skipped.
  double Delta(Point2 q, const std::vector<char>* skip = nullptr) const;

  /// NN!=0(q): all i with d(q, c_i) - r_i < Delta(q), sorted.
  std::vector<int> Query(Point2 q) const;

  /// Stage 2 against an external bound, into `out` (cleared first): all
  /// non-skipped i with d(q, c_i) - r_i < bound, sorted. The dynamic
  /// engine passes the global Delta over all buckets, which is at most this
  /// bucket's own Delta. With a warm scratch arena and a warm output
  /// buffer this allocates nothing.
  void QueryWithinInto(Point2 q, double bound, const std::vector<char>* skip,
                       std::vector<int>* out) const;

  size_t size() const { return tree_.size(); }

  /// Layout export for serialization.
  const KdTree& tree() const { return tree_; }

 private:
  KdTree tree_;  // Centers weighted by radii.
};

/// Section 3, remark (ii): the same two-stage NN!=0 query under the
/// L-infinity metric, where uncertainty regions are axis-aligned squares
/// (center, half-side). Delta and delta are Chebyshev distances +- the
/// half-side, so the weighted kd-tree works unchanged under the swapped
/// metric.
class LinfNonzeroNNIndex {
 public:
  /// `half_sides[i]` is half the side length of square i.
  LinfNonzeroNNIndex(std::vector<Point2> centers, std::vector<double> half_sides);

  /// Delta(q) = min_i (Linf(q, c_i) + h_i).
  double Delta(Point2 q) const;

  /// All i with Linf(q, c_i) - h_i < Delta(q), sorted.
  std::vector<int> Query(Point2 q) const;

 private:
  KdTree tree_;
};

/// Theorem 3.2-style index for discrete distributions: O(N) space
/// (N = sum of description complexities), empirically sublinear queries.
class DiscreteNonzeroNNIndex {
 public:
  explicit DiscreteNonzeroNNIndex(const std::vector<std::vector<Point2>>& points,
                                  const KdBuildOptions& build = KdBuildOptions());

  /// Assembly from built or adopted trees — EngineBuilder's staged path
  /// and the durable store's recovery path, so no kd construction runs
  /// here. `hulls` and the centroid tree are parallel to the uncertain
  /// points; the location tree (unweighted, Euclidean) and `owners` cover
  /// the flattened location list in point order. The location tree is
  /// shared: an Engine hands the same one to its SpiralSearchPNN.
  DiscreteNonzeroNNIndex(std::vector<std::vector<Point2>> hulls,
                         KdTree centroid_tree,
                         std::shared_ptr<const KdTree> location_tree,
                         std::vector<int> owners);

  /// Delta(q) = min_i max_j d(q, p_ij), ignoring uncertain points with
  /// skip[i] != 0; +inf if all are skipped.
  double Delta(Point2 q, const std::vector<char>* skip = nullptr) const;

  /// NN!=0(q): all i with min_j d(q, p_ij) < Delta(q), sorted.
  std::vector<int> Query(Point2 q) const;

  /// All non-skipped i with min_j d(q, p_ij) < bound, sorted, into `out`
  /// (cleared first): stage 2 against an externally supplied bound (see
  /// NonzeroNNIndex::QueryWithinInto). The location-hit buffer is a
  /// scratch lease, so warm calls allocate nothing.
  void QueryWithinInto(Point2 q, double bound, const std::vector<char>* skip,
                       std::vector<int>* out) const;

  size_t num_points() const { return hulls_.size(); }
  size_t num_locations() const { return owners_.size(); }

  /// Layout export for serialization (parallel to the adoption
  /// constructor's parameters).
  const std::vector<std::vector<Point2>>& hulls() const { return hulls_; }
  const KdTree& centroid_tree() const { return centroid_tree_; }
  const KdTree& location_tree() const { return *location_tree_; }
  const std::vector<int>& owners() const { return owners_; }

 private:
  std::vector<std::vector<Point2>> hulls_;  // Convex hull per uncertain point.
  KdTree centroid_tree_;                    // Centroids, for stage-1 pruning.
  // All locations, for stage 2 (shared with the engine's spiral index).
  std::shared_ptr<const KdTree> location_tree_;
  std::vector<int> owners_;                 // Owner of each location.
};

}  // namespace pnn

#endif  // PNN_CORE_NNQUERY_NN_INDEX_H_
