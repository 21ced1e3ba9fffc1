// The Monte-Carlo quantification structure of Section 4.2 (Theorems 4.3
// and 4.5): s random instantiations of P, each preprocessed into an exact
// certain-point nearest-neighbor structure. A query locates its NN in every
// instantiation and reports counts / s, which estimates every pi_i(q)
// within additive eps with probability >= 1 - delta when
// s = O(eps^-2 log(N / delta)).
//
// Theorem 4.3 needs nothing of the per-round structure beyond exact NN
// answers. The paper uses Voronoi diagrams with point location; here each
// round is a kd-tree queried in the squared-distance domain with ties
// pinned to the lowest point index (KdTree::NearestSquared). Every engine
// builds its rounds through the one BuildMcRounds below (Engine::EnsureRounds
// caches them; the dynamic engine's buckets are engines too), so static and
// dynamic Monte Carlo are the same code and answer bit-identically even on
// exactly equidistant samples. MonteCarloPNN is the standalone structure of
// the theorem, kept as the tests' oracle.
//
// Theorem 4.3 asks for s independent instantiations of P. Point id's
// round-r sample is drawn from its own stream MakeStreamRng(SplitSeed(seed,
// r), id) — there is one sampling scheme, with or without explicit ids —
// so a sample never depends on which other points share its set or round.
// That is what lets the dynamic engine's buckets and tail reproduce the
// static structure exactly. A fresh stream per sample is affordable because
// the streams are SplitMix64 (util/rng.h): seeding one is a single word.

#ifndef PNN_CORE_PROB_MONTE_CARLO_H_
#define PNN_CORE_PROB_MONTE_CARLO_H_

#include <memory>
#include <vector>

#include "src/core/prob/quantify.h"
#include "src/spatial/kdtree.h"
#include "src/uncertain/uncertain_point.h"

namespace pnn {

/// Per-round Monte-Carlo search structures: trees[r] is a kd-tree over
/// round r's instantiation of a point set, in the set's index order.
/// Shared pointers let an extension (the dynamic engine's bucket cache)
/// reuse an already-built prefix structurally.
struct McRounds {
  std::vector<std::shared_ptr<const KdTree>> trees;
};

/// Builds rounds [from, to) into out->trees[from, to), growing the vector
/// to `to`. Round r instantiates every point, then builds one KdTree with
/// `build`'s leaf width and cutoff. Point j draws its round-r sample from
/// its own stream MakeStreamRng(SplitSeed(seed, r), id_j), where id_j is
/// stream_ids[j] or, without ids, j itself. A sample therefore depends only
/// on (seed, r, id) — not on which other points are in the set, nor on the
/// order they are drawn in — and the streams are SplitMix64, so a fresh
/// stream per sample costs one word of state. Round r is a pure function
/// of (points, seed, r, ids), so the rounds fan out across build.pool and
/// the result is bit-identical to the sequential build.
void BuildMcRounds(const UncertainSet& points, uint64_t seed, size_t from, size_t to,
                   const std::vector<uint64_t>& stream_ids, const KdBuildOptions& build,
                   McRounds* out);

/// Theorem 4.3's estimate over the first `rounds` trees of `mc` (at most
/// mc.trees.size()) for a set of n points: each round's nearest sample
/// votes for its point, and every point with a vote reports votes /
/// rounds, ascending by index, into *out. Engine::Quantify,
/// MonteCarloPNN::Query and the merged estimate over one whole bucket
/// (dyn::MergedMonteCarloQuantifyInto) all count through it.
void McQuantifyInto(const McRounds& mc, size_t rounds, size_t n, Point2 q,
                    std::vector<Quantification>* out);

/// Monte-Carlo PNN structure. Works for any uncertain-point mix
/// (continuous and/or discrete) since it only needs sampling.
class MonteCarloPNN {
 public:
  struct Options {
    double eps = 0.1;     // Target additive error.
    double delta = 0.05;  // Failure probability.
    uint64_t seed = 1;
    size_t rounds_override = 0;  // If nonzero, use exactly this many rounds.
    /// When non-empty (size n), point i's stream id (see BuildMcRounds);
    /// empty means ids 0..n-1. Ids are what let the dynamic engine's
    /// per-bucket round structures reproduce this structure's samples
    /// exactly under arbitrary insert/erase histories.
    std::vector<uint64_t> stream_ids;
    /// Round-tree construction: rounds build in parallel across
    /// build.pool, each tree with build.leaf_size. Answers are identical
    /// at any pool, cutoff and width.
    KdBuildOptions build;
  };

  MonteCarloPNN(const UncertainSet& points, const Options& options);

  /// Estimates with counts > 0, sorted by index. At most `rounds()`
  /// entries are nonzero; everything else is implicitly 0.
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
