// Static planar kd-tree with the query modes the paper's structures reduce
// to in our implementation:
//   * exact nearest neighbor and best-first incremental k-NN
//     ("spiral search", the practical [AC09] substitution of Section 4.3),
//   * disk range reporting,
//   * additively-weighted minimization  min_i d(q, p_i) + w_i
//     (computes Delta(q) over disk uncertainty regions, Theorem 3.1 stage 1),
//   * subtractive reporting  { i : d(q, p_i) - w_i < bound }
//     (reports NN!=0 candidates, Theorem 3.1 stage 2).
//
// The weighted modes prune with per-subtree min/max weights, which is what
// makes the two-stage query output-sensitive in practice.
//
// Storage: the tree holds each point once, as leaf-ordered coordinate
// arrays (plus the order_ permutation and the nodes). An unweighted tree —
// built with empty or all-zero weights — stores no weights at all; every
// weight reads as 0 there, which leaves d + w and d - w bit-identical.
//
// Construction can fan out per-subtree on an exec::ThreadPool (see
// BuildOptions): node indices are assigned from precomputed subtree sizes,
// and every task partitions only its own disjoint order_ range, so the
// parallel-built tree is bit-identical to the serial one — same split
// choices, same node ids, same leaf order (asserted node-for-node by
// tests/build_determinism_test.cc).

#ifndef PNN_SPATIAL_KDTREE_H_
#define PNN_SPATIAL_KDTREE_H_

#include <vector>

#include "src/exec/thread_pool.h"
#include "src/geometry/box2.h"
#include "src/geometry/point2.h"
#include "src/util/arena.h"

namespace pnn {

/// Metric used by a KdTree. Chebyshev (L-infinity) supports the paper's
/// Section 3 remark (ii): NN!=0 queries for square uncertainty regions.
enum class Metric {
  kEuclidean,
  kChebyshev,
};

/// How to run a kd-tree construction. The produced tree is bit-identical
/// regardless of pool presence, pool size, or cutoff. (Namespace-scope —
/// not nested in KdTree — so it can serve as a defaulted parameter of
/// KdTree's own constructor.)
struct KdBuildOptions {
  /// When set, subtrees larger than `parallel_cutoff` fork their two
  /// children onto the pool; at or below it construction stays sequential
  /// on the building thread (forking leaf-sized tasks would be all
  /// scheduling overhead). Any cutoff >= 0 is valid — 0 forks at every
  /// internal node.
  exec::ThreadPool* pool = nullptr;
  int parallel_cutoff = 4096;
  /// Leaf capacity: a range splits while it holds more than this many
  /// points. Wider leaves lengthen the SoA leaf scans (letting the SIMD
  /// kernels fill their lanes) at the cost of pruning depth and per-leaf
  /// over-scan; bench_leaf_width sweeps the tradeoff and docs/simd.md
  /// records the measurement. The sweep's best widths (16-32) only reach
  /// ~1.2x over 8 on the reference AVX2 host — below the promotion bar —
  /// so the default stays at the historical 8; widen per build if your
  /// workload's sweep says otherwise. Query answers are identical at
  /// every width — ties are pinned to the lowest point index (see the
  /// tie contract in kdtree.cc). Must be >= 1.
  int leaf_size = 8;
};

/// Static kd-tree over a fixed point set, with optional per-point weights.
class KdTree {
 public:
  using BuildOptions = KdBuildOptions;

  /// One node of the tree layout. Public (with the layout accessors below)
  /// so the durable store can serialize a built tree and adopt it back on
  /// recovery without re-running construction — see src/store/segment.cc.
  struct Node {
    Box2 box;
    int left = -1;    // Internal children, or -1 for leaves.
    int right = -1;
    int begin = 0;    // Range in order_ covered by this node.
    int end = 0;
    double min_w = 0; // Subtree weight bounds for the weighted queries.
    double max_w = 0;
  };

  /// Builds the tree. Empty or all-zero `weights` make an unweighted tree
  /// (every weight 0, none stored). `points` and `weights` are the build's
  /// scratch and are freed before the constructor returns: the tree keeps
  /// only its leaf-ordered copy.
  explicit KdTree(std::vector<Point2> points, std::vector<double> weights = {},
                  Metric metric = Metric::kEuclidean,
                  const BuildOptions& build = BuildOptions());

  /// Adopts a previously exported layout instead of building: `order`,
  /// `nodes` and `root` must come from a tree constructed over the same
  /// points/weights/metric (the store checksums them together). The tree
  /// keeps whatever leaf width it was built with. Validation is O(n):
  /// bounds checks plus a leaf-partition check (leaves tile [0, n)
  /// contiguously and `order` is a permutation) — still far below the
  /// build this constructor exists to skip; SameStructure against a fresh
  /// build certifies the round trip in tests. `weights` holds one weight
  /// per point, or is empty for an unweighted tree (all-zero weights are
  /// unweighted too, as in the building constructor).
  KdTree(std::vector<Point2> points, std::vector<double> weights, Metric metric,
         std::vector<int> order, std::vector<Node> nodes, int root);

  size_t size() const { return order_.size(); }

  /// Widest leaf of this tree (max over leaves of end - begin; 0 for an
  /// empty tree). Derived from the layout in both constructors — never
  /// serialized — so an adopted tree reports exactly the width of the
  /// build that produced it, with no segment-format bump.
  int leaf_width() const { return leaf_width_; }

  /// Layout export for serialization (parallel to the adoption
  /// constructor's parameters). points() and weights() scatter the
  /// leaf-ordered storage back to index order, one allocation each — for
  /// the store's encoder and tests, not for query paths. weights() is all
  /// zeros for an unweighted tree.
  std::vector<Point2> points() const;
  std::vector<double> weights() const;
  bool weighted() const { return !sw_.empty(); }
  Metric metric() const { return metric_; }
  const std::vector<int>& order() const { return order_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  int root() const { return root_; }

  /// Index of the nearest point to q (ties broken arbitrarily); n must be
  /// >= 1. If out_dist is non-null it receives the distance. When `skip` is
  /// non-null, points with skip[i] != 0 are ignored (the dynamic engine's
  /// tombstone masks); returns -1 with *out_dist = +inf if all are skipped.
  int Nearest(Point2 q, double* out_dist = nullptr,
              const std::vector<char>* skip = nullptr) const;

  /// Nearest in the SQUARED-distance domain (Euclidean metric only): same
  /// winner rule as Nearest but every comparison — leaf argmin, box
  /// pruning, child ordering — runs on fl(dx^2)+fl(dy^2) with no sqrt, so
  /// leaves go through the fused simd::ArgminSquaredDist kernel. Ties go
  /// to the lowest index. This is the per-round Monte-Carlo scan of both
  /// the static and the dynamic engine (core/prob/monte_carlo.h).
  /// *out_sq receives the squared distance (+inf when all points are
  /// skipped).
  int NearestSquared(Point2 q, double* out_sq = nullptr,
                     const std::vector<char>* skip = nullptr) const;

  /// The k nearest points, ascending by distance. Returns fewer if k > n.
  std::vector<int> KNearest(Point2 q, int k) const;

  /// min_i d(q, p_i) + w_i; sets *arg to the minimizing index. Points with
  /// skip[i] != 0 are ignored (+inf / -1 if all are skipped).
  double MinAdditivelyWeighted(Point2 q, int* arg = nullptr,
                               const std::vector<char>* skip = nullptr) const;

  /// All indices with d(q, p_i) - w_i < bound (strict). On an unweighted
  /// tree this is the open disk d(q, p_i) < bound.
  std::vector<int> ReportSubtractiveLess(Point2 q, double bound) const;

  /// ReportSubtractiveLess appending into `out` (not cleared) — the
  /// allocation-free form for callers holding a scratch or reused buffer.
  void ReportSubtractiveLessInto(Point2 q, double bound, std::vector<int>* out) const;

  /// Exact structural equality — leaf order, the leaf-ordered points and
  /// weights, and every node field — certifying that two build schedules
  /// produced the same tree node-for-node (the parallel-build determinism
  /// tests).
  bool SameStructure(const KdTree& other) const;

  /// Best-first enumeration of points in ascending distance from a query;
  /// each Next() costs O(log n) amortized. Used by the spiral-search
  /// quantifier to consume exactly as many neighbors as the error bound
  /// requires. The heap storage is leased from the per-thread scratch
  /// arena, so constructing one per query allocates nothing in steady
  /// state. Move-only (the lease follows the object).
  class Incremental {
   public:
    Incremental(const KdTree& tree, Point2 q);

    /// True if another point is available.
    bool HasNext() const { return !heap_->empty(); }

    /// Returns the next nearest point index; fills *dist if non-null.
    int Next(double* dist = nullptr);

   private:
    struct Entry {
      double key;     // Lower bound on distance (exact for points).
      int node;       // Internal node id, or -1 when `point` is valid.
      int point;      // Original point index if node == -1.
      // Min-heap on key; equal keys expand nodes before emitting points
      // and emit points in ascending index order. That makes the emission
      // order of equal-distance points (key, index)-lexicographic — a pure
      // function of the point set, independent of the tree's leaf width.
      bool operator<(const Entry& o) const {
        if (key != o.key) return key > o.key;
        if ((node < 0) != (o.node < 0)) return node < 0;
        if (node < 0) return point > o.point;
        return node > o.node;
      }
    };
    const KdTree& tree_;
    Point2 q_;
    // Leased binary heap driven by std::push_heap/pop_heap — identical
    // ordering to the std::priority_queue it replaces.
    util::ScratchVec<Entry> heap_;
    void PushNode(int node);
    void Push(Entry e);
    Entry Pop();
  };

 private:
  /// Builds the subtree over order_[begin, end) into the preassigned slot
  /// nodes_[id] (and the id-contiguous slots after it), forking the two
  /// children onto build.pool above the cutoff. `points`/`weights` are the
  /// building constructor's index-order scratch (`weights` empty when the
  /// tree is unweighted).
  void BuildRange(const std::vector<Point2>& points, const std::vector<double>& weights,
                  int begin, int end, int id, const BuildOptions& build);
  double BoxDist(const Box2& box, Point2 p) const;

  /// Fills sx_/sy_ (and sw_ when `weights` is non-empty) from index-order
  /// points/weights through order_. Called by both constructors, whose
  /// index-order arguments are freed afterwards.
  void BuildScanArrays(const std::vector<Point2>& points,
                       const std::vector<double>& weights);

  /// out[0..cnt) = metric distance from q to leaf-order entries
  /// [first, first + cnt) — the simd::DistScan call for Euclidean trees,
  /// a scalar max/abs loop for Chebyshev.
  void ScanDists(int first, int cnt, Point2 q, double* out) const;

  Metric metric_ = Metric::kEuclidean;
  std::vector<int> order_;   // Permutation of point indices, leaf-contiguous.
  // The points and weights, stored once, in leaf (order_) order: entry i
  // is point order_[i]. Leaf scans read these contiguous buffers through
  // the util/simd kernels. sw_ is empty for an unweighted tree.
  std::vector<double> sx_, sy_, sw_;
  std::vector<Node> nodes_;
  int root_ = -1;
  int leaf_width_ = 0;  // Derived: max leaf extent (see leaf_width()).

  friend class Incremental;
};

}  // namespace pnn

#endif  // PNN_SPATIAL_KDTREE_H_
