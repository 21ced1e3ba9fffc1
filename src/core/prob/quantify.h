// Quantification probabilities pi_i(q) (Section 4): exact evaluation of
// Eq. (2) for discrete distributions, and adaptive quadrature of Eq. (1)
// for continuous ones. These are the reference implementations the
// approximate structures (Monte Carlo, spiral search) are validated
// against; the discrete sweep is also the face-labeling primitive of the
// probabilistic Voronoi diagram.

#ifndef PNN_CORE_PROB_QUANTIFY_H_
#define PNN_CORE_PROB_QUANTIFY_H_

#include <vector>

#include "src/geometry/point2.h"
#include "src/uncertain/uncertain_point.h"

namespace pnn {

/// One reported pair (P_i, pi_i(q)).
struct Quantification {
  int index = -1;
  double probability = 0.0;
};

/// Exact pi_i(q) over a candidate list: the Eq. (2) distance sweep
///   pi_i(q) = sum_s w_is * prod_{j != i} (1 - G_{q,j}(d(p_is, q)))
/// when the points are discrete, adaptive Simpson quadrature of Eq. (1) to
/// absolute tolerance `tol` per point when they are continuous (a mixed
/// list aborts). Indices are positions in `points`; results are sorted by
/// index, and continuous entries below `tol` are dropped.
///
/// By Lemma 2.1 a point with delta_j(q) > Delta(q) multiplies every
/// product below Delta(q) by exactly 1 and adds only zero terms past it.
/// So over any list that holds every point with delta_j(q) <= Delta(q),
/// in the full set's index order, the answers equal the full set's bit for
/// bit: the sweep orders locations by the total order (dist, owner, slot),
/// which never depends on the points left out. Engine::QuantifyExact and
/// dyn::MergedQuantifyExact pass the widened NN!=0 candidates
/// (McCandidateBound), ascending by id. Cost for t candidates:
/// O(t·k log(t·k)) for k locations each, or O(t^2) cdf evaluations per
/// quadrature node.
std::vector<Quantification> QuantifyExactOver(
    const std::vector<const UncertainPoint*>& points, Point2 q, double tol = 1e-8);

/// QuantifyExactOver the whole set of discrete points (checked): the
/// reference the approximate structures and the VPr diagram are held to.
std::vector<Quantification> QuantifyExactDiscrete(const UncertainSet& points, Point2 q);

/// QuantifyExactOver the whole set of continuous points (checked).
std::vector<Quantification> QuantifyNumericContinuous(const UncertainSet& points,
                                                      Point2 q, double tol = 1e-8);

/// One retrieved discrete location in a distance-ordered stream: its
/// distance to the query, a dense owner label in [0, num_owners), and its
/// location probability.
struct WeightedLocation {
  double dist;
  int owner;
  double weight;
};

/// The truncated tie-grouped sweep of Eq. (10)/(11): estimates pi_owner
/// from a distance-ascending prefix of locations (Lemma 4.6: truncation
/// underestimates by at most eps when the prefix is long enough). Shared
/// by SpiralSearchPNN and the dynamic engine's cross-bucket stream merge so
/// both produce bit-identical estimates. `counts[o]` is owner o's total
/// location count in the full set (so survival hits exact zero once every
/// location is swept). Returns nonzero estimates sorted by owner label.
std::vector<Quantification> QuantifyPrefixSweep(const std::vector<WeightedLocation>& locs,
                                                const std::vector<int>& counts);

/// QuantifyPrefixSweep writing into `out` (cleared first), with all
/// internal bookkeeping drawn from the per-thread scratch arena — the
/// zero-allocation form the query hot paths use. Results are bit-identical
/// to QuantifyPrefixSweep.
void QuantifyPrefixSweepInto(const std::vector<WeightedLocation>& locs,
                             const std::vector<int>& counts,
                             std::vector<Quantification>* out);

/// Entries with probability > tau (threshold queries, [DYM+05] semantics).
std::vector<Quantification> ThresholdFilter(const std::vector<Quantification>& all,
                                            double tau);

/// The index maximizing the quantification probability (most-likely NN);
/// -1 on empty input.
int MostLikelyNN(const std::vector<Quantification>& all);

}  // namespace pnn

#endif  // PNN_CORE_PROB_QUANTIFY_H_
