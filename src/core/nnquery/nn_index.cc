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
    : hulls_([&] {
        std::vector<std::vector<Point2>> hulls(points.size());
        for (size_t i = 0; i < points.size(); ++i) {
          PNN_CHECK_MSG(!points[i].empty(), "uncertain point with no locations");
          hulls[i] = ConvexHull(points[i]);
        }
        return hulls;
      }()),
      centroid_tree_(
          [&] {
            std::vector<Point2> centroids(points.size());
            for (size_t i = 0; i < points.size(); ++i) {
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
          std::vector<double>(), Metric::kEuclidean, build)) {
  for (size_t i = 0; i < points.size(); ++i) {
    owners_.insert(owners_.end(), points[i].size(), static_cast<int>(i));
  }
}

DiscreteNonzeroNNIndex::DiscreteNonzeroNNIndex(
    std::vector<std::vector<Point2>> hulls, KdTree centroid_tree,
    std::shared_ptr<const KdTree> location_tree, std::vector<int> owners)
    : hulls_(std::move(hulls)),
      centroid_tree_(std::move(centroid_tree)),
      location_tree_(std::move(location_tree)),
      owners_(std::move(owners)) {
  PNN_CHECK_MSG(!location_tree_->weighted() &&
                    location_tree_->metric() == Metric::kEuclidean,
                "the location tree must be unweighted and Euclidean");
  PNN_CHECK_MSG(hulls_.size() == centroid_tree_.size(),
                "hulls must parallel centroids");
  PNN_CHECK_MSG(owners_.size() == location_tree_->size(),
                "owners must parallel locations");
  for (int o : owners_) {
    PNN_CHECK_MSG(o >= 0 && o < static_cast<int>(hulls_.size()),
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
    for (Point2 p : hulls_[i]) exact = std::max(exact, Distance(q, p));
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
  for (int h : hits) {
    if (skip != nullptr && (*skip)[owners_[h]]) continue;
    out->push_back(owners_[h]);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

}  // namespace pnn
