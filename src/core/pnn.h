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

  /// Construction validates Options (CheckOptions) instead of producing
  /// nonsense plans later.
  explicit Engine(UncertainSet points) : Engine(std::move(points), Options()) {}
  Engine(UncertainSet points, Options options);

  /// Aborts with a message on default_eps or mc_delta outside (0,1),
  /// spiral_budget_fraction outside (0,1], kd_leaf_size < 1, or
  /// mc_stream_ids neither empty nor one id per each of n points.
  static void CheckOptions(const Options& options, size_t n);

  /// Prebuilt index structures for FromParts — the durable store's
  /// recovery path (src/store/segment.cc), which deserializes each index's
  /// kd layout and adopts it instead of re-running construction. Which
  /// pointers must be set follows the constructor's rule (disk_index iff
  /// all continuous, discrete_index + spiral iff all discrete — sharing
  /// one location tree, as a built engine's do — none for mixed inputs).
  struct Parts {
    std::unique_ptr<NonzeroNNIndex> disk_index;
    std::unique_ptr<DiscreteNonzeroNNIndex> discrete_index;
    std::unique_ptr<SpiralSearchPNN> spiral;
  };

  /// Assembles an engine around prebuilt structures. Scans the points for
  /// their aggregates and validates options and the kind/part pairing; the
  /// parts' internal consistency with `points` is the serializer's contract
  /// (checksummed together on disk, certified by round-trip tests). The
  /// result is indistinguishable from Engine(points, options) when the
  /// parts came from one.
  static std::unique_ptr<Engine> FromParts(UncertainSet points, Options options,
                                           Parts parts);

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
  /// quadrature for continuous ones (tolerance 1e-8).
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

  /// Fills rows [begin, end) of `block` (block->rounds samples per row, one
  /// row per point) as EnsureRounds does, copying the rounds `prev` holds
  /// (a shorter block of this engine's, or null). With AdoptRounds this
  /// builds a block in bounded steps (the dynamic engine's chunked prewarm).
  void DrawRounds(const McSamples* prev, size_t begin, size_t end,
                  McSamples* block) const;

  /// Installs `block`, whose every row DrawRounds filled, as the sample
  /// cache unless the cache already holds as many rounds.
  void AdoptRounds(std::shared_ptr<const McSamples> block) const;

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
  /// constructor's presence rule says so; see Parts).
  const NonzeroNNIndex* disk_index() const { return disk_index_.get(); }
  const DiscreteNonzeroNNIndex* discrete_index() const {
    return discrete_index_.get();
  }

 private:
  friend class EngineBuilder;
  /// Shell for EngineBuilder::Finish/FinishInto to assemble into.
  Engine() = default;

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

/// Staged Engine construction for the dynamic layer's sliced maintenance
/// builds: performs exactly the work of the Engine constructor, but split
/// into bounded Step() calls so a background build can yield between
/// chunks (the caller hops through its pool lane) instead of holding a
/// worker for the whole build. Stages: one pass over the points in
/// `chunk`-sized units (aggregates, then per-point gathering — hulls,
/// centroids, flattened locations), then one Step per index — the disk
/// tree, or the centroid and location trees — whose kd builds fan out
/// per-subtree on options.build_pool. An all-discrete engine builds its
/// location tree once and shares it between DiscreteNonzeroNNIndex and
/// SpiralSearchPNN. The finished engine is indistinguishable from
/// Engine(points, options) — the Engine constructor itself routes through
/// a run-to-completion builder.
///
/// Transient memory: the staged arrays are reserved once and moved into
/// the indexes — as their storage, or as a kd build's scratch that the
/// tree frees once it holds the points in leaf order — so a build's
/// overhead beyond the finished structure stays bounded by one chunk of
/// gathering plus kd scratch — not a second copy of the set (asserted
/// with the alloc-hook peak counter in bench_build_latency).
///
/// Not thread-safe; drive Step() from one thread (or lane) at a time.
class EngineBuilder {
 public:
  /// `chunk` caps the points processed per scanning/gathering Step; 0
  /// means unbounded (each stage completes in one Step).
  EngineBuilder(UncertainSet points, Engine::Options options, size_t chunk = 0);
  ~EngineBuilder();

  EngineBuilder(const EngineBuilder&) = delete;
  EngineBuilder& operator=(const EngineBuilder&) = delete;

  /// True once every construction stage has run; Step() must not be
  /// called afterwards.
  bool done() const { return stage_ == Stage::kReady; }

  /// Performs one bounded unit of construction work.
  void Step();

  /// Moves the finished engine out (requires done()).
  std::unique_ptr<Engine> Finish();

 private:
  enum class Stage {
    kScan,                // SetAggregates, chunked.
    kGatherContinuous,    // Disk list, chunked.
    kBuildDiskIndex,      // One kd build (pool-parallel).
    kGatherDiscrete,      // Hulls, centroids, flattened locations, chunked.
    kBuildDiscreteIndex,  // Two kd builds (pool-parallel), spiral shares one.
    kReady,
  };

  void FinishInto(Engine* e);
  size_t ChunkEnd() const;

  friend class Engine;  // Engine's own constructor runs a builder inline.

  Stage stage_ = Stage::kScan;
  size_t cursor_ = 0;
  size_t chunk_ = 0;
  UncertainSet points_;
  Engine::Options options_;
  SetAggregates agg_;

  // Staging for the index parts (moved into the structures when built).
  std::vector<Circle> disks_;
  std::vector<std::vector<Point2>> hulls_;
  std::vector<Point2> centroids_;
  std::vector<Point2> locations_;  // The shared location tree's input.
  std::vector<int> owners_;
  std::vector<double> location_weights_;
  std::vector<int> counts_;

  std::unique_ptr<NonzeroNNIndex> disk_index_;
  std::unique_ptr<DiscreteNonzeroNNIndex> discrete_index_;
  std::unique_ptr<SpiralSearchPNN> spiral_;
};

}  // namespace pnn

#endif  // PNN_CORE_PNN_H_
