// The Monte-Carlo quantification structure of Section 4.2 (Theorems 4.3
// and 4.5): s random instantiations of P. A query finds its NN in every
// instantiation and reports counts / s, which estimates every pi_i(q)
// within additive eps with probability >= 1 - delta when
// s = O(eps^-2 log(N / delta)).
//
// Theorem 4.3 needs one exact NN answer per instantiation, and only a
// point of NN!=0(q) can be that answer (the Lemma 2.1 bound). So the
// engines keep no per-round search structure: each point keeps one row of
// its s samples (McSamples), and a query scans only its NN!=0 candidates'
// rows (McQuantifyRowsInto), O(t * s) for t candidates against a kd tree
// per round's O(s log n); docs/simd.md records where the two cross.
//
// Point id's round-r sample is drawn from its own stream
// MakeStreamRng(SplitSeed(seed, r), id) (McSample), with or without
// explicit ids, so a sample never depends on which other points share its
// set or round. That is what lets the dynamic engine's buckets and tail
// reproduce the static samples exactly. The streams are SplitMix64
// (util/rng.h): seeding one is a single word.
//
// MonteCarloPNN is the theorem's structure with a kd tree per round
// (BuildMcRounds). No engine uses it: it is the tests' oracle for the row
// evaluator and bench_montecarlo's baseline.

#ifndef PNN_CORE_PROB_MONTE_CARLO_H_
#define PNN_CORE_PROB_MONTE_CARLO_H_

#include <memory>
#include <vector>

#include "src/core/prob/quantify.h"
#include "src/spatial/kdtree.h"
#include "src/uncertain/uncertain_point.h"

namespace pnn {

/// Point stream_id's round-r instantiation of p: p.Sample() drawn from
/// MakeStreamRng(SplitSeed(seed, r), stream_id). Every Monte-Carlo sample
/// of every structure is drawn here.
Point2 McSample(const UncertainPoint& p, uint64_t seed, size_t r, uint64_t stream_id);

/// Point-major Monte-Carlo samples of a point set, stored SoA: point j's
/// round-r sample is (xs[j * rounds + r], ys[j * rounds + r]), so each
/// point's samples are one contiguous row the evaluator scans with a simd
/// kernel. 16 bytes a sample, nothing else.
struct McSamples {
  size_t rounds = 0;  // Samples per point: the row stride.
  std::vector<double> xs, ys;

  /// A zero-filled block of n rows of s samples each.
  McSamples(size_t n, size_t s);
  const double* row_x(size_t j) const { return xs.data() + j * rounds; }
  const double* row_y(size_t j) const { return ys.data() + j * rounds; }
};

/// Fills row j of `block` with point p's samples under stream_id: the
/// rounds `prev` holds (when non-null, a shorter block over the same
/// points) are copied from its row j, the rest are drawn by McSample. A
/// row is a pure function of (p, seed, stream_id), so rows fill in any
/// order and on any thread.
void FillMcRow(const UncertainPoint& p, uint64_t seed, uint64_t stream_id,
               const McSamples* prev, size_t j, McSamples* block);

/// The candidate bound of the row evaluator: Delta(q) widened to
/// delta * (1 + 1e-9) + 1e-12. Every round's nearest sample belongs to a
/// point with delta_i(q) <= Delta(q); the widening absorbs the rounding of
/// the sampled coordinates and keeps points with delta_i(q) == Delta(q),
/// which a strict NN!=0 report would drop. A superset is always safe.
double McCandidateBound(double delta);

/// One candidate of the row evaluator: its id and its sample row.
struct McRow {
  int id;
  const double* xs;
  const double* ys;
};

/// Theorem 4.3's estimate over candidate rows, ascending by id (at least
/// `rounds` samples each): per round r, the candidate whose round-r sample
/// is nearest q in fl(dx^2) + fl(dy^2) wins, ties to the lowest id — the
/// rule of KdTree::NearestSquared and of the cross-part merge. Every
/// candidate with a vote reports votes / rounds, ascending by id, into
/// *out. Exact when `rows` holds every point of NN!=0(q) (take them under
/// McCandidateBound). Scratch comes from the per-thread arena, so a warm
/// call allocates nothing beyond `out`'s growth. Engine::Quantify and
/// dyn::MergedMonteCarloQuantifyInto both count through it.
void McQuantifyRowsInto(const std::vector<McRow>& rows, size_t rounds, Point2 q,
                        std::vector<Quantification>* out);

/// Per-round kd trees: trees[r] is a kd-tree over round r's instantiation
/// of a point set, in the set's index order (MonteCarloPNN's structure).
struct McRounds {
  std::vector<std::shared_ptr<const KdTree>> trees;
};

/// Builds rounds [from, to) into out->trees[from, to), growing the vector
/// to `to`. Round r instantiates every point by McSample under stream id
/// stream_ids[j] or, without ids, j itself, then builds one KdTree with
/// `build`'s leaf width and cutoff. Rounds fan out across build.pool; the
/// result is bit-identical to the sequential build.
void BuildMcRounds(const UncertainSet& points, uint64_t seed, size_t from, size_t to,
                   const std::vector<uint64_t>& stream_ids, const KdBuildOptions& build,
                   McRounds* out);

/// Monte-Carlo PNN structure. Works for any uncertain-point mix
/// (continuous and/or discrete) since it only needs sampling.
class MonteCarloPNN {
 public:
  struct Options {
    double eps = 0.1;     // Target additive error.
    double delta = 0.05;  // Failure probability.
    uint64_t seed = 1;
    size_t rounds_override = 0;  // If nonzero, use exactly this many rounds.
    /// When non-empty (size n), point i's stream id (see McSample); empty
    /// means ids 0..n-1, the sampling of an Engine without ids.
    std::vector<uint64_t> stream_ids;
    /// Round-tree construction: rounds build in parallel across
    /// build.pool, each tree with build.leaf_size. Answers are identical
    /// at any pool, cutoff and width.
    KdBuildOptions build;
  };

  MonteCarloPNN(const UncertainSet& points, const Options& options);

  /// Estimates with counts > 0, sorted by index: one NearestSquared per
  /// round tree. At most `rounds()` entries are nonzero; everything else
  /// is implicitly 0.
  std::vector<Quantification> Query(Point2 q) const;

  size_t rounds() const { return mc_.trees.size(); }

  /// The per-round trees (exposed for layout checks such as leaf width).
  const McRounds& round_trees() const { return mc_; }

  /// The theoretical round count s(eps, delta) from Theorem 4.3 for the
  /// given instance size (used by default unless overridden).
  static size_t TheoreticalRounds(size_t n, size_t max_k, double eps, double delta);

  /// The round count every Monte-Carlo path uses: `rounds_override` when
  /// nonzero, else TheoreticalRounds(n, max_k, eps, delta). max_k is the
  /// points' SetAggregates::max_k.
  static size_t Rounds(size_t n, size_t max_k, double eps, double delta,
                       size_t rounds_override);

 private:
  size_t n_ = 0;
  McRounds mc_;
};

}  // namespace pnn

#endif  // PNN_CORE_PROB_MONTE_CARLO_H_
