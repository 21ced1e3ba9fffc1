#include "src/core/nnquery/nn_index.h"

#include <algorithm>
#include <limits>

#include "src/geometry/hull.h"
#include "src/util/arena.h"
#include "src/util/check.h"

namespace pnn {

NonzeroNNIndex::NonzeroNNIndex(const std::vector<Circle>& disks,
                               const KdBuildOptions& build)
    : tree_(
          [&] {
            std::vector<Point2> centers(disks.size());
            for (size_t i = 0; i < disks.size(); ++i) centers[i] = disks[i].center;
            return centers;
          }(),
          [&] {
            std::vector<double> radii(disks.size());
            for (size_t i = 0; i < disks.size(); ++i) radii[i] = disks[i].radius;
            return radii;
          }(),
          Metric::kEuclidean, build) {
  PNN_CHECK_MSG(!disks.empty(), "NonzeroNNIndex needs at least one disk");
}

NonzeroNNIndex::NonzeroNNIndex(KdTree tree) : tree_(std::move(tree)) {
  PNN_CHECK_MSG(tree_.size() > 0, "NonzeroNNIndex needs at least one disk");
}

double NonzeroNNIndex::Delta(Point2 q, const std::vector<char>* skip) const {
  return tree_.MinAdditivelyWeighted(q, nullptr, skip);
}

std::vector<int> NonzeroNNIndex::Query(Point2 q) const {
  std::vector<int> out;
  QueryWithinInto(q, Delta(q), nullptr, &out);
  return out;
}

void NonzeroNNIndex::QueryWithinInto(Point2 q, double bound,
                                     const std::vector<char>* skip,
                                     std::vector<int>* out) const {
  out->clear();
  tree_.ReportSubtractiveLessInto(q, bound, out);
  if (skip != nullptr) {
    out->erase(std::remove_if(out->begin(), out->end(),
                              [&](int i) { return (*skip)[i] != 0; }),
               out->end());
  }
  std::sort(out->begin(), out->end());
}

LinfNonzeroNNIndex::LinfNonzeroNNIndex(std::vector<Point2> centers,
                                       std::vector<double> half_sides)
    : tree_(std::move(centers), std::move(half_sides), Metric::kChebyshev) {
  PNN_CHECK_MSG(tree_.size() > 0, "LinfNonzeroNNIndex needs at least one square");
}

double LinfNonzeroNNIndex::Delta(Point2 q) const {
  return tree_.MinAdditivelyWeighted(q);
}

std::vector<int> LinfNonzeroNNIndex::Query(Point2 q) const {
  std::vector<int> out = tree_.ReportSubtractiveLess(q, Delta(q));
  std::sort(out.begin(), out.end());
  return out;
}

DiscreteNonzeroNNIndex::DiscreteNonzeroNNIndex(
    const std::vector<std::vector<Point2>>& points, const KdBuildOptions& build)
    : centroid_tree_(
          [&] {
            std::vector<Point2> centroids(points.size());
            for (size_t i = 0; i < points.size(); ++i) {
              PNN_CHECK_MSG(!points[i].empty(), "uncertain point with no locations");
              Point2 c{0, 0};
              for (Point2 p : points[i]) c = c + p;
              centroids[i] = c / static_cast<double>(points[i].size());
            }
            return centroids;
          }(),
          std::vector<double>(), Metric::kEuclidean, build),
      location_tree_(std::make_shared<const KdTree>(
          [&] {
            std::vector<Point2> all;
            for (const auto& locs : points) {
              all.insert(all.end(), locs.begin(), locs.end());
            }
            return all;
          }(),
          std::vector<double>(), Metric::kEuclidean, build)),
      owners_(std::make_shared<const std::vector<int>>([&] {
        std::vector<int> owners;
        for (size_t i = 0; i < points.size(); ++i) {
          owners.insert(owners.end(), points[i].size(), static_cast<int>(i));
        }
        return owners;
      }())) {
  hull_begin_.reserve(points.size() + 1);
  hull_begin_.push_back(0);
  for (const auto& locs : points) {
    std::vector<Point2> hull = ConvexHull(locs);
    hull_points_.insert(hull_points_.end(), hull.begin(), hull.end());
    hull_begin_.push_back(static_cast<int>(hull_points_.size()));
  }
}

DiscreteNonzeroNNIndex::DiscreteNonzeroNNIndex(
    std::vector<Point2> hull_points, std::vector<int> hull_begin, KdTree centroid_tree,
    std::shared_ptr<const KdTree> location_tree,
    std::shared_ptr<const std::vector<int>> owners)
    : hull_points_(std::move(hull_points)),
      hull_begin_(std::move(hull_begin)),
      centroid_tree_(std::move(centroid_tree)),
      location_tree_(std::move(location_tree)),
      owners_(std::move(owners)) {
  PNN_CHECK_MSG(!location_tree_->weighted() &&
                    location_tree_->metric() == Metric::kEuclidean,
                "the location tree must be unweighted and Euclidean");
  PNN_CHECK_MSG(hull_begin_.size() == centroid_tree_.size() + 1,
                "hull offsets must parallel centroids");
  PNN_CHECK_MSG(hull_begin_.front() == 0 &&
                    hull_begin_.back() == static_cast<int>(hull_points_.size()),
                "hull offsets must span the hull vertices");
  for (size_t i = 0; i + 1 < hull_begin_.size(); ++i) {
    PNN_CHECK_MSG(hull_begin_[i] < hull_begin_[i + 1], "every hull needs a vertex");
  }
  PNN_CHECK_MSG(owners_->size() == location_tree_->size(),
                "owners must parallel locations");
  for (int o : *owners_) {
    PNN_CHECK_MSG(o >= 0 && o < static_cast<int>(num_points()),
                  "adopted owner out of range");
  }
}

double DiscreteNonzeroNNIndex::Delta(Point2 q, const std::vector<char>* skip) const {
  // Best-first over centroids: Delta_i(q) >= d(q, centroid_i), so the
  // incremental centroid stream gives monotone lower bounds and we can
  // stop as soon as the bound passes the best exact value found.
  double best = std::numeric_limits<double>::infinity();
  KdTree::Incremental inc(centroid_tree_, q);
  while (inc.HasNext()) {
    double lb;
    int i = inc.Next(&lb);
    if (lb >= best) break;
    if (skip != nullptr && (*skip)[i]) continue;
    double exact = 0.0;
    for (int j = hull_begin_[i]; j < hull_begin_[i + 1]; ++j) {
      exact = std::max(exact, Distance(q, hull_points_[j]));
    }
    best = std::min(best, exact);
  }
  return best;
}

std::vector<int> DiscreteNonzeroNNIndex::Query(Point2 q) const {
  std::vector<int> out;
  QueryWithinInto(q, Delta(q), nullptr, &out);
  return out;
}

void DiscreteNonzeroNNIndex::QueryWithinInto(Point2 q, double bound,
                                             const std::vector<char>* skip,
                                             std::vector<int>* out) const {
  // Report all locations strictly within `bound` (the unweighted tree's
  // subtractive report is the open disk) and deduplicate owners.
  util::ScratchVec<int> hits_lease;
  std::vector<int>& hits = *hits_lease;
  hits.clear();
  location_tree_->ReportSubtractiveLessInto(q, bound, &hits);
  out->clear();
  const std::vector<int>& owners = *owners_;
  for (int h : hits) {
    if (skip != nullptr && (*skip)[owners[h]]) continue;
    out->push_back(owners[h]);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace pnn
