// Public facade of the pnn library.
//
// pnn::Engine bundles the paper's structures behind one interface:
//   * NonzeroNN(q)            — all points with positive NN probability
//                               (near-linear index; Theorems 3.1 / 3.2)
//   * Quantify(q, eps)        — quantification probabilities within
//                               additive eps (spiral search for discrete
//                               points with modest spread, Monte Carlo
//                               otherwise; Section 4)
//   * QuantifyExact(q)        — exact (discrete) or quadrature (continuous)
//   * ThresholdNN / MostLikely — derived query modes
//   * ExpectedDistanceNN      — the [AESZ12] expected-distance semantics,
//                               for comparison
//
// For the subdivision structures themselves (V!=0, V_Pr), use
// core/v0/nonzero_voronoi.h and core/prob/vpr_diagram.h directly.

#ifndef PNN_CORE_PNN_H_
#define PNN_CORE_PNN_H_

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/core/nnquery/expected_nn.h"
#include "src/core/nnquery/nn_index.h"
#include "src/core/prob/monte_carlo.h"
#include "src/core/prob/quantify.h"
#include "src/core/prob/spiral.h"
#include "src/uncertain/uncertain_point.h"

namespace pnn {

/// Which structure Quantify() routes a query through (Section 4's two
/// regimes). Exposed so callers — notably exec::BatchEngine — can count and
/// report plan decisions without re-deriving the routing rule.
enum class QuantifyPlan {
  kSpiral,      // Spiral search (Theorem 4.7): discrete, modest spread.
  kMonteCarlo,  // Monte-Carlo structure (Theorem 4.3): everything else.
};

/// One-stop query engine over a set of uncertain points.
///
/// Thread safety: all query methods are const and safe to call from many
/// threads concurrently; the lazily-built structures (Monte-Carlo samples,
/// expected-NN) are constructed under an internal mutex. Batch callers
/// should Prewarm() first so worker threads never contend on construction.
class Engine {
 public:
  struct Options {
    uint64_t seed = 1;
    double default_eps = 0.05;   // Quantification error when unspecified; (0,1).
    double mc_delta = 0.01;      // Monte-Carlo failure probability; (0,1).
    size_t mc_rounds_override = 0;
    /// Spiral search is preferred while rho * k * ln(rho/eps) stays below
    /// this fraction of N; beyond it Monte Carlo wins. Must be in (0,1].
    double spiral_budget_fraction = 0.5;
    /// Per-point Monte-Carlo stream ids (see McSample). Empty, or one
    /// id per point; empty means ids 0..n-1, so an engine without ids
    /// samples exactly as one given its indices. A dynamic engine's bucket
    /// engines carry their bucket's ids here.
    std::vector<uint64_t> mc_stream_ids;
    /// When set, every structure build fans out across this pool: the
    /// constructor's kd builds recurse per-subtree (KdBuildOptions), the
    /// lazy Monte-Carlo samples are drawn in point chunks, and the expected-NN
    /// precomputation per point. Results are bit-identical to the serial
    /// build at any pool size (tests/build_determinism_test.cc). The pool
    /// must outlive the engine. Queries are unaffected.
    exec::ThreadPool* build_pool = nullptr;
    /// Subtree size at or below which a pooled kd build stops forking
    /// (KdBuildOptions::parallel_cutoff).
    int build_parallel_cutoff = 4096;
    /// Leaf capacity of every kd build (KdBuildOptions::leaf_size). Wider
    /// leaves give the SIMD leaf scans lane-filling rows at the cost of
    /// pruning depth; the default is the bench_leaf_width sweep's winner
    /// (docs/simd.md). Answers are identical at any width. Must be >= 1.
    int kd_leaf_size = KdBuildOptions().leaf_size;
  };

  /// Index layouts for the constructor to adopt instead of building: what
  /// a durable segment stores (src/store/segment.cc). An all-continuous
  /// set's is its disk tree (centers weighted by radii); an all-discrete
  /// set's is its hulls (point i's at hull_points[hull_begin[i],
  /// hull_begin[i + 1])), its centroid tree and its unweighted Euclidean
  /// location tree over the locations in point order; a mixed set's is
  /// empty. Their consistency with the points is the serializer's contract
  /// (checksummed together on disk, certified by round-trip tests); the
  /// constructor checks their kind and sizes.
  struct Layouts {
    std::optional<KdTree> disk_tree;
    std::vector<Point2> hull_points;
    std::vector<int> hull_begin;
    std::optional<KdTree> centroid_tree;
    std::optional<KdTree> location_tree;
  };

  /// Construction validates Options (CheckOptions) instead of producing
  /// nonsense plans later, scans the points for their aggregates, then
  /// gives the set the indexes of its kind: the disk tree of an
  /// all-continuous set, or the centroid and location trees of an
  /// all-discrete one, whose one location tree and owners array the NN!=0
  /// index and the spiral share; a mixed set gets none. Without `layouts`
  /// the hulls and kd trees are built, forking per-subtree on
  /// options.build_pool; with them they are adopted. Either way one loop
  /// gathers the owners, weights and counts. The gathered arrays are
  /// reserved once and moved into the indexes (as their storage, or as a
  /// kd build's input that the tree frees once it holds its points in leaf
  /// order), so a build's transient memory stays below a copy of the set
  /// plus the structure (asserted in tests/alloc_hotpath_test.cc), and an
  /// adopting engine is indistinguishable from the building one whose
  /// layouts it was given.
  explicit Engine(UncertainSet points) : Engine(std::move(points), Options()) {}
  Engine(UncertainSet points, Options options,
         std::optional<Layouts> layouts = std::nullopt);

  /// An engine that builds no index: NonzeroDelta and NonzeroNNWithin
  /// scan the points (MaxDistance / MinDistance, the mixed-input path) and
  /// EnsureRounds samples them as any engine does, but there is no spiral
  /// plan to Quantify through. The dynamic engine's live tail is one (a
  /// dyn::Bucket rebuilt on every publish, where an index would cost more
  /// than the copy).
  struct NoIndex {};
  Engine(UncertainSet points, Options options, NoIndex);

  /// Aborts with a message on default_eps or mc_delta outside (0,1),
  /// spiral_budget_fraction outside (0,1], kd_leaf_size < 1, or
  /// mc_stream_ids neither empty nor one id per each of n points.
  static void CheckOptions(const Options& options, size_t n);

  /// NN!=0(q), sorted indices (Lemma 2.1 semantics).
  std::vector<int> NonzeroNN(Point2 q) const;

  /// Delta(q) = min_i Delta_i(q), the Lemma 2.1 pruning bound. Points with
  /// skip[i] != 0 are ignored (+inf if all are). The dynamic engine takes
  /// the min of this over its buckets to get the global bound.
  double NonzeroDelta(Point2 q, const std::vector<char>* skip = nullptr) const;

  /// All non-skipped i with delta_i(q) < bound, sorted. With
  /// bound = NonzeroDelta(q) this is exactly NonzeroNN(q); the dynamic
  /// engine passes the global bound over all buckets instead.
  std::vector<int> NonzeroNNWithin(Point2 q, double bound,
                                   const std::vector<char>* skip = nullptr) const;

  /// NonzeroNNWithin writing into `out` (cleared first) — with a warm
  /// scratch arena and a warm output buffer this allocates nothing, which
  /// is what keeps the dynamic/shard NonzeroNN path at zero allocations
  /// per warm query (tests/alloc_hotpath_test.cc).
  void NonzeroNNWithinInto(Point2 q, double bound, const std::vector<char>* skip,
                           std::vector<int>* out) const;

  /// Estimates of all positive pi_i(q) within additive eps.
  std::vector<Quantification> Quantify(Point2 q,
                                       std::optional<double> eps = std::nullopt) const;

  /// Exact pi_i(q): Eq. (2) sweep for discrete inputs, Eq. (1) adaptive
  /// quadrature for continuous ones (tolerance 1e-8), run over the widened
  /// NN!=0 candidates only (QuantifyExactOver); a mixed set aborts.
  std::vector<Quantification> QuantifyExact(Point2 q) const;

  /// Points with pi_i(q) > tau, using estimates of error eps ([DYM+05]).
  /// tau must be in [0, 1] (checked; probabilities outside it are vacuous).
  std::vector<Quantification> ThresholdNN(Point2 q, double tau,
                                          std::optional<double> eps = std::nullopt) const;

  /// Index with the largest estimated quantification probability.
  int MostLikelyNN(Point2 q, std::optional<double> eps = std::nullopt) const;

  /// The point minimizing the expected distance to q ([AESZ12] baseline).
  int ExpectedDistanceNN(Point2 q) const;

  /// The plan Quantify() will pick at this eps (query-independent: the
  /// spiral-vs-Monte-Carlo decision depends only on the retrieval budget).
  QuantifyPlan PlanForQuantify(std::optional<double> eps = std::nullopt) const;

  /// Eagerly builds every structure Quantify(·, eps) may need, so
  /// subsequent const queries are lock- and contention-free.
  void Prewarm(std::optional<double> eps = std::nullopt) const;

  /// The engine's Monte-Carlo sample block with at least `rounds` samples
  /// per point: point j's row holds McSample(points[j], seed, r, id_j) for
  /// r < rounds, id_j from options.mc_stream_ids (j when empty). A missing
  /// suffix is drawn in point chunks fanned out on `pool`
  /// (options.build_pool when null), copying the rounds already held, so
  /// the block only ever grows by rounds and is bit-identical at any pool.
  /// Extensions serialize on an internal mutex, readers are lock-free once
  /// enough rounds exist, and a reader holding an older block keeps it
  /// alive. This is the one sample cache: Quantify scans exactly the first
  /// rounds(eps) samples of its candidates' rows, and a dyn::CombinedView's
  /// Monte-Carlo queries (dyn/view_query.h) read every bucket engine's
  /// through it.
  std::shared_ptr<const McSamples> EnsureRounds(size_t rounds,
                                                exec::ThreadPool* pool = nullptr) const;

  /// Samples per point in the sample cache (0 until a Monte-Carlo query or
  /// Prewarm).
  size_t MonteCarloRounds() const;

  const UncertainSet& points() const { return points_; }
  const Options& options() const { return options_; }
  const SetAggregates& aggregates() const { return agg_; }
  bool all_discrete() const { return agg_.all_discrete(); }
  bool all_continuous() const { return agg_.all_continuous(); }
  size_t total_complexity() const { return agg_.total_complexity; }

  /// The spiral-search structure (null unless all points are discrete).
  /// Exposed for the dynamic engine's per-bucket location streams.
  const SpiralSearchPNN* spiral() const { return spiral_.get(); }

  /// The NN!=0 indexes, for the store's layout export (null when the
  /// set's kind calls for none; see the constructor).
  const NonzeroNNIndex* disk_index() const { return disk_index_.get(); }
  const DiscreteNonzeroNNIndex* discrete_index() const {
    return discrete_index_.get();
  }

 private:
  /// Monte-Carlo rounds at this eps over the engine's aggregates.
  size_t RoundsFor(double eps) const;
  std::shared_ptr<const ExpectedNNIndex> EnsureExpectedNN() const;

  UncertainSet points_;
  Options options_;
  SetAggregates agg_;

  std::unique_ptr<NonzeroNNIndex> disk_index_;
  std::unique_ptr<DiscreteNonzeroNNIndex> discrete_index_;
  std::unique_ptr<SpiralSearchPNN> spiral_;

  mutable std::mutex lazy_mu_;  // Serializes builds of the members below.
  // Accessed with std::atomic_load/atomic_store: readers snapshot them
  // lock-free, and an extension swaps the pointer without invalidating
  // snapshots held by concurrent queries.
  mutable std::shared_ptr<const McSamples> rounds_;
  mutable std::shared_ptr<const ExpectedNNIndex> expected_nn_;
};

/// The eps check of every query path: `eps`, or options.default_eps when
/// unset; aborts unless the result lies in (0,1).
double ResolveEps(const Engine::Options& options, std::optional<double> eps);

/// Section 4's routing rule over a set's aggregates: spiral search
/// (Theorem 4.7) while the set is all-discrete and its retrieval bound
/// m(rho, eps) stays within options.spiral_budget_fraction of the total
/// complexity N; Monte Carlo (Theorem 4.3) otherwise. Engine and
/// dyn::PlanForSnapshot both decide through it.
QuantifyPlan PlanQuantify(const SetAggregates& agg, const Engine::Options& options,
                          double eps);

}  // namespace pnn

#endif  // PNN_CORE_PNN_H_
