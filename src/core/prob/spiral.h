// The spiral-search quantifier of Section 4.3 (Theorem 4.7): for discrete
// distributions with location-probability spread rho, the m(rho, eps)
// nearest locations of q suffice to estimate every pi_i(q) within additive
// eps (Lemma 4.6: the truncated product underestimates by at most eps).
// The m-nearest retrieval runs on the kd-tree's best-first incremental
// stream — the paper's own suggested practical substitute (Remark (ii))
// for the [AC09] structure.

#ifndef PNN_CORE_PROB_SPIRAL_H_
#define PNN_CORE_PROB_SPIRAL_H_

#include <memory>
#include <vector>

#include "src/core/prob/quantify.h"
#include "src/spatial/kdtree.h"
#include "src/uncertain/uncertain_point.h"

namespace pnn {

/// Spiral-search PNN structure over discrete uncertain points.
class SpiralSearchPNN {
 public:
  explicit SpiralSearchPNN(const UncertainSet& points,
                           const KdBuildOptions& build = KdBuildOptions());

  /// Assembly from a built or adopted location tree — the Engine
  /// constructor and the durable store's recovery path, so no kd
  /// construction runs here. `tree` is the unweighted Euclidean tree over
  /// the flattened location list in point order; `owners`/`weights`
  /// parallel it (the tree and `owners` are shared with the engine's
  /// DiscreteNonzeroNNIndex), `counts` are the per-point location counts;
  /// `max_k` and `rho` must equal what a scan would derive (seeded 1 and
  /// wmax/wmin with wmin <= 1, wmax >= 0 seeds). Produces exactly the
  /// structure the scanning constructor builds.
  SpiralSearchPNN(std::shared_ptr<const KdTree> tree,
                  std::shared_ptr<const std::vector<int>> owners,
                  std::vector<double> weights, std::vector<int> counts,
                  size_t max_k, double rho);

  /// Estimates pi_i(q) within additive eps: pi_hat <= pi <= pi_hat + eps
  /// (Lemma 4.6). Only nonzero estimates are reported, sorted by index.
  std::vector<Quantification> Query(Point2 q, double eps) const;

  /// Same, with an explicit retrieval budget m (for experiments).
  std::vector<Quantification> QueryWithBudget(Point2 q, size_t m) const;

  /// Spread of the location probabilities (Eq. (9)).
  double rho() const { return rho_; }

  /// m(rho, eps) = ceil(rho k ln(rho / eps)) + k - 1 (Theorem 4.7).
  size_t RetrievalBound(double eps) const;

  /// The same bound for explicit parameters — the dynamic engine evaluates
  /// the plan rule over its live set without materializing a structure.
  static size_t RetrievalBoundFor(double rho, size_t max_k, double eps);

  size_t max_k() const { return max_k_; }

  /// Total location count of owner i.
  int count(int owner) const { return counts_[owner]; }

  /// Layout export for serialization (parallel to the adoption
  /// constructor's parameters).
  const KdTree& tree() const { return *tree_; }
  const std::vector<int>& owners() const { return *owners_; }
  const std::vector<double>& location_weights() const { return weights_; }
  const std::vector<int>& counts() const { return counts_; }

  /// Best-first stream of this structure's locations in ascending distance
  /// from q, as (dist, owner, weight) triples. Owners with
  /// skip_owner[owner] != 0 are passed over (the dynamic engine's
  /// tombstones). The dynamic engine k-way-merges one stream per bucket to
  /// recover the exact global retrieval order of a monolithic structure.
  class Stream {
   public:
    Stream(const SpiralSearchPNN& s, Point2 q,
           const std::vector<char>* skip_owner = nullptr);

    /// Advances to the next location; false when the stream is exhausted.
    bool Next(double* dist, int* owner, double* weight);

   private:
    const SpiralSearchPNN& s_;
    KdTree::Incremental inc_;
    const std::vector<char>* skip_;
  };

 private:
  size_t n_ = 0;
  size_t max_k_ = 1;
  double rho_ = 1.0;
  std::shared_ptr<const KdTree> tree_;  // All locations.
  // Owner uncertain point per location (shared like tree_).
  std::shared_ptr<const std::vector<int>> owners_;
  std::vector<double> weights_;
  std::vector<int> counts_;   // Location count per uncertain point.
};

}  // namespace pnn

#endif  // PNN_CORE_PROB_SPIRAL_H_
