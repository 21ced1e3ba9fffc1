#include "src/core/prob/spiral.h"

#include <algorithm>
#include <cmath>

#include "src/util/arena.h"
#include "src/util/check.h"

namespace pnn {

SpiralSearchPNN::SpiralSearchPNN(const UncertainSet& points,
                                 const KdBuildOptions& build)
    : n_(points.size()),
      tree_(std::make_shared<const KdTree>(
          [&] {
            std::vector<Point2> all;
            for (const auto& p : points) {
              PNN_CHECK_MSG(p.is_discrete(), "SpiralSearchPNN needs discrete points");
              const auto& d = p.discrete();
              all.insert(all.end(), d.locations.begin(), d.locations.end());
            }
            return all;
          }(),
          std::vector<double>(), Metric::kEuclidean, build)) {
  double wmin = 1.0, wmax = 0.0;
  std::vector<int> owners;
  counts_.resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& d = points[i].discrete();
    max_k_ = std::max(max_k_, d.locations.size());
    counts_[i] = static_cast<int>(d.locations.size());
    for (size_t s = 0; s < d.locations.size(); ++s) {
      owners.push_back(static_cast<int>(i));
      weights_.push_back(d.weights[s]);
      wmin = std::min(wmin, d.weights[s]);
      wmax = std::max(wmax, d.weights[s]);
    }
  }
  rho_ = wmax / wmin;
  owners_ = std::make_shared<const std::vector<int>>(std::move(owners));
}

SpiralSearchPNN::SpiralSearchPNN(std::shared_ptr<const KdTree> tree,
                                 std::shared_ptr<const std::vector<int>> owners,
                                 std::vector<double> weights, std::vector<int> counts,
                                 size_t max_k, double rho)
    : n_(counts.size()),
      max_k_(max_k),
      rho_(rho),
      tree_(std::move(tree)),
      owners_(std::move(owners)),
      weights_(std::move(weights)),
      counts_(std::move(counts)) {
  PNN_CHECK_MSG(owners_->size() == tree_->size() && weights_.size() == tree_->size(),
                "owners/weights must parallel locations");
  for (int o : *owners_) {
    PNN_CHECK_MSG(o >= 0 && o < static_cast<int>(n_), "owner out of range");
  }
}

size_t SpiralSearchPNN::RetrievalBound(double eps) const {
  return RetrievalBoundFor(rho_, max_k_, eps);
}

size_t SpiralSearchPNN::RetrievalBoundFor(double rho, size_t max_k, double eps) {
  PNN_CHECK(eps > 0 && eps < 1);
  double m = rho * static_cast<double>(max_k) * std::log(std::max(rho, 1.0) / eps);
  return static_cast<size_t>(std::ceil(m)) + max_k - 1;
}

std::vector<Quantification> SpiralSearchPNN::Query(Point2 q, double eps) const {
  return QueryWithBudget(q, RetrievalBound(eps));
}

std::vector<Quantification> SpiralSearchPNN::QueryWithBudget(Point2 q,
                                                             size_t m) const {
  m = std::min(m, owners_->size());
  // Retrieve the m nearest locations (ascending). The incremental stream
  // yields them already sorted, which the sweep needs anyway. The prefix
  // buffer is a scratch lease: only the returned estimates allocate.
  util::ScratchVec<WeightedLocation> lease;
  std::vector<WeightedLocation>& locs = *lease;
  locs.clear();
  locs.reserve(m);
  KdTree::Incremental inc(*tree_, q);
  while (locs.size() < m && inc.HasNext()) {
    double d;
    int idx = inc.Next(&d);
    locs.push_back({d, (*owners_)[idx], weights_[idx]});
  }
  // Eq. (10)/(11) restricted to the retrieved prefix: the same tie-grouped
  // sweep as the exact quantifier, but over bar-P.
  std::vector<Quantification> out;
  QuantifyPrefixSweepInto(locs, counts_, &out);
  return out;
}

SpiralSearchPNN::Stream::Stream(const SpiralSearchPNN& s, Point2 q,
                                const std::vector<char>* skip_owner)
    : s_(s), inc_(*s.tree_, q), skip_(skip_owner) {}

bool SpiralSearchPNN::Stream::Next(double* dist, int* owner, double* weight) {
  while (inc_.HasNext()) {
    double d;
    int idx = inc_.Next(&d);
    int o = (*s_.owners_)[idx];
    if (skip_ != nullptr && (*skip_)[o]) continue;
    *dist = d;
    *owner = o;
    *weight = s_.weights_[idx];
    return true;
  }
  return false;
}

}  // namespace pnn
