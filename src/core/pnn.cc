#include "src/core/pnn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/exec/thread_pool.h"
#include "src/geometry/hull.h"
#include "src/util/arena.h"
#include "src/util/check.h"

namespace pnn {

Engine::Engine(UncertainSet points, Options options, std::optional<Layouts> layouts)
    : Engine(std::move(points), std::move(options), NoIndex{}) {
  const size_t n = points_.size();
  const bool build = !layouts.has_value();
  if (!build) {
    const Layouts& l = *layouts;
    PNN_CHECK_MSG(l.disk_tree.has_value() == agg_.all_continuous() &&
                      l.centroid_tree.has_value() == agg_.all_discrete() &&
                      l.location_tree.has_value() == agg_.all_discrete(),
                  "adopted layouts must be the ones of the set's kind");
    PNN_CHECK_MSG((!l.disk_tree || l.disk_tree->size() == n) &&
                      (!l.centroid_tree || l.centroid_tree->size() == n) &&
                      (!l.location_tree || l.location_tree->size() == agg_.total_complexity),
                  "adopted layouts must cover the set's points and locations");
  }
  KdBuildOptions kd_build{options_.build_pool, options_.build_parallel_cutoff,
                          options_.kd_leaf_size};
  if (agg_.all_continuous()) {
    if (!build) {
      disk_index_ = std::make_unique<NonzeroNNIndex>(std::move(*layouts->disk_tree));
      return;
    }
    std::vector<Circle> disks;
    disks.reserve(n);
    for (const UncertainPoint& p : points_) disks.push_back(p.disk().support);
    disk_index_ = std::make_unique<NonzeroNNIndex>(disks, kd_build);
    return;
  }
  if (!agg_.all_discrete()) return;  // Mixed inputs: brute-force queries.

  // Reserve the final sizes up front: the gathered arrays are the
  // structures' storage or their kd builds' input, so growth never doubles
  // mid-build and the transient overhead stays one hull of scratch. A hull
  // has at most its point's locations, so total_complexity bounds the hull
  // vertices.
  std::vector<Point2> hull_points;  // Every hull, point by point.
  std::vector<int> hull_begin;      // n + 1 offsets into hull_points.
  std::vector<Point2> centroids;
  std::vector<Point2> locations;  // The shared location tree's input.
  std::vector<int> counts;
  std::vector<int> owners;
  std::vector<double> location_weights;
  if (build) {
    hull_points.reserve(agg_.total_complexity);
    hull_begin.reserve(n + 1);
    hull_begin.push_back(0);
    centroids.reserve(n);
    locations.reserve(agg_.total_complexity);
  } else {
    hull_points = std::move(layouts->hull_points);
    hull_begin = std::move(layouts->hull_begin);
  }
  counts.reserve(n);
  owners.reserve(agg_.total_complexity);
  location_weights.reserve(agg_.total_complexity);
  for (size_t i = 0; i < n; ++i) {
    const auto& d = points_[i].discrete();
    PNN_CHECK_MSG(!d.locations.empty(), "uncertain point with no locations");
    counts.push_back(static_cast<int>(d.locations.size()));
    owners.insert(owners.end(), d.locations.size(), static_cast<int>(i));
    location_weights.insert(location_weights.end(), d.weights.begin(), d.weights.end());
    if (!build) continue;
    // Same arithmetic (and order) as the scanning constructors of
    // DiscreteNonzeroNNIndex and SpiralSearchPNN, so the assembled
    // structures are bit-identical to theirs.
    std::vector<Point2> hull = ConvexHull(d.locations);
    hull_points.insert(hull_points.end(), hull.begin(), hull.end());
    hull_begin.push_back(static_cast<int>(hull_points.size()));
    Point2 c{0, 0};
    for (Point2 p : d.locations) c = c + p;
    centroids.push_back(c / static_cast<double>(d.locations.size()));
    locations.insert(locations.end(), d.locations.begin(), d.locations.end());
  }
  KdTree centroid_tree =
      build ? KdTree(std::move(centroids), std::vector<double>(), Metric::kEuclidean,
                     kd_build)
            : std::move(*layouts->centroid_tree);
  // One location tree and one owners array, shared by the stage-2 report
  // and the spiral.
  auto location_tree = std::make_shared<const KdTree>(
      build ? KdTree(std::move(locations), std::vector<double>(), Metric::kEuclidean,
                     kd_build)
            : std::move(*layouts->location_tree));
  auto shared_owners = std::make_shared<const std::vector<int>>(std::move(owners));
  spiral_ = std::make_unique<SpiralSearchPNN>(location_tree, shared_owners,
                                              std::move(location_weights),
                                              std::move(counts), agg_.max_k, agg_.rho());
  hull_points.shrink_to_fit();  // Collinear or interior locations.
  discrete_index_ = std::make_unique<DiscreteNonzeroNNIndex>(
      std::move(hull_points), std::move(hull_begin), std::move(centroid_tree),
      std::move(location_tree), std::move(shared_owners));
}

Engine::Engine(UncertainSet points, Options options, NoIndex)
    : points_(std::move(points)), options_(std::move(options)) {
  PNN_CHECK_MSG(!points_.empty(), "Engine needs at least one uncertain point");
  CheckOptions(options_, points_.size());
  for (const UncertainPoint& p : points_) agg_.Add(p);
}

void Engine::CheckOptions(const Options& options, size_t n) {
  PNN_CHECK_MSG(options.default_eps > 0 && options.default_eps < 1,
                "Options::default_eps must be in (0,1)");
  PNN_CHECK_MSG(options.mc_delta > 0 && options.mc_delta < 1,
                "Options::mc_delta must be in (0,1)");
  PNN_CHECK_MSG(
      options.spiral_budget_fraction > 0 && options.spiral_budget_fraction <= 1,
      "Options::spiral_budget_fraction must be in (0,1]");
  PNN_CHECK_MSG(options.mc_stream_ids.empty() || options.mc_stream_ids.size() == n,
                "Options::mc_stream_ids must be empty or have one id per point");
  PNN_CHECK_MSG(options.kd_leaf_size >= 1, "Options::kd_leaf_size must be >= 1");
}

double ResolveEps(const Engine::Options& options, std::optional<double> eps_opt) {
  double eps = eps_opt.value_or(options.default_eps);
  PNN_CHECK_MSG(eps > 0 && eps < 1, "eps must be in (0,1)");
  return eps;
}

QuantifyPlan PlanQuantify(const SetAggregates& agg, const Engine::Options& options,
                          double eps) {
  if (agg.all_discrete()) {
    size_t budget = SpiralSearchPNN::RetrievalBoundFor(agg.rho(), agg.max_k, eps);
    if (static_cast<double>(budget) <=
        options.spiral_budget_fraction * static_cast<double>(agg.total_complexity)) {
      return QuantifyPlan::kSpiral;
    }
  }
  return QuantifyPlan::kMonteCarlo;
}

std::vector<int> Engine::NonzeroNN(Point2 q) const {
  return NonzeroNNWithin(q, NonzeroDelta(q));
}

double Engine::NonzeroDelta(Point2 q, const std::vector<char>* skip) const {
  if (disk_index_) return disk_index_->Delta(q, skip);
  if (discrete_index_) return discrete_index_->Delta(q, skip);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < points_.size(); ++i) {
    if (skip != nullptr && (*skip)[i]) continue;
    best = std::min(best, points_[i].MaxDistance(q));
  }
  return best;
}

std::vector<int> Engine::NonzeroNNWithin(Point2 q, double bound,
                                         const std::vector<char>* skip) const {
  std::vector<int> out;
  NonzeroNNWithinInto(q, bound, skip, &out);
  return out;
}

void Engine::NonzeroNNWithinInto(Point2 q, double bound,
                                 const std::vector<char>* skip,
                                 std::vector<int>* out) const {
  if (disk_index_) {
    disk_index_->QueryWithinInto(q, bound, skip, out);
    return;
  }
  if (discrete_index_) {
    discrete_index_->QueryWithinInto(q, bound, skip, out);
    return;
  }
  out->clear();
  for (size_t i = 0; i < points_.size(); ++i) {
    if (skip != nullptr && (*skip)[i]) continue;
    if (points_[i].MinDistance(q) < bound) out->push_back(static_cast<int>(i));
  }
}

QuantifyPlan Engine::PlanForQuantify(std::optional<double> eps) const {
  return PlanQuantify(agg_, options_, ResolveEps(options_, eps));
}

size_t Engine::RoundsFor(double eps) const {
  return MonteCarloPNN::Rounds(agg_.live_count, agg_.max_k, eps, options_.mc_delta,
                               options_.mc_rounds_override);
}

std::shared_ptr<const McSamples> Engine::EnsureRounds(size_t rounds,
                                                      exec::ThreadPool* pool) const {
  auto cur = std::atomic_load_explicit(&rounds_, std::memory_order_acquire);
  if (cur && cur->rounds >= rounds) return cur;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  cur = std::atomic_load_explicit(&rounds_, std::memory_order_acquire);
  if (cur && cur->rounds >= rounds) return cur;

  auto next = std::make_shared<McSamples>(points_.size(), rounds);
  // Rows are independent, so chunks of them fan out; a chunk draws a few
  // thousand samples, enough to amortize a task.
  const size_t chunk = std::max<size_t>(1, 4096 / std::max<size_t>(1, rounds));
  const std::vector<uint64_t>& ids = options_.mc_stream_ids;
  auto draw = [&](size_t c) {
    for (size_t j = c * chunk, end = std::min(points_.size(), (c + 1) * chunk); j < end;
         ++j) {
      FillMcRow(points_[j], options_.seed, ids.empty() ? j : ids[j], cur.get(), j,
                next.get());
    }
  };
  exec::MaybeParallelFor(pool != nullptr ? pool : options_.build_pool,
                         (points_.size() + chunk - 1) / chunk, draw);
  std::atomic_store_explicit(&rounds_, std::shared_ptr<const McSamples>(next),
                             std::memory_order_release);
  return next;
}

std::shared_ptr<const ExpectedNNIndex> Engine::EnsureExpectedNN() const {
  // Same pattern as EnsureRounds: lock-free once built, lock to build.
  auto cur = std::atomic_load_explicit(&expected_nn_, std::memory_order_acquire);
  if (cur) return cur;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  cur = std::atomic_load_explicit(&expected_nn_, std::memory_order_acquire);
  if (!cur) {
    cur = std::make_shared<const ExpectedNNIndex>(
        &points_,
        KdBuildOptions{options_.build_pool, options_.build_parallel_cutoff,
                       options_.kd_leaf_size});
    std::atomic_store_explicit(&expected_nn_, cur, std::memory_order_release);
  }
  return cur;
}

void Engine::Prewarm(std::optional<double> eps_opt) const {
  double eps = ResolveEps(options_, eps_opt);
  if (PlanForQuantify(eps) == QuantifyPlan::kMonteCarlo) EnsureRounds(RoundsFor(eps));
}

size_t Engine::MonteCarloRounds() const {
  auto cur = std::atomic_load_explicit(&rounds_, std::memory_order_acquire);
  return cur ? cur->rounds : 0;
}

std::vector<Quantification> Engine::Quantify(Point2 q,
                                             std::optional<double> eps_opt) const {
  double eps = ResolveEps(options_, eps_opt);
  if (PlanForQuantify(eps) == QuantifyPlan::kSpiral) {
    PNN_CHECK_MSG(spiral_ != nullptr, "an index-free engine has no spiral plan");
    return spiral_->Query(q, eps);
  }
  // Exactly the first rounds(eps) samples of each row, however far earlier
  // queries at a tighter eps have extended the cache: an answer never
  // depends on the query history.
  size_t rounds = RoundsFor(eps);
  std::shared_ptr<const McSamples> block = EnsureRounds(rounds);
  util::ScratchVec<int> candidates_lease;
  std::vector<int>& candidates = *candidates_lease;
  NonzeroNNWithinInto(q, McCandidateBound(NonzeroDelta(q)), nullptr, &candidates);
  util::ScratchVec<McRow> rows_lease;
  std::vector<McRow>& rows = *rows_lease;
  rows.clear();
  for (int j : candidates) rows.push_back({j, block->row_x(j), block->row_y(j)});
  std::vector<Quantification> out;
  McQuantifyRowsInto(rows, rounds, q, &out);
  return out;
}

std::vector<Quantification> Engine::QuantifyExact(Point2 q) const {
  PNN_CHECK_MSG(all_discrete() || all_continuous(),
                "QuantifyExact supports all-discrete or all-continuous inputs");
  // The Monte-Carlo candidates: every point of NN!=0(q) plus exact ties,
  // ascending, so the answer is the full set's bit for bit.
  util::ScratchVec<int> candidates_lease;
  std::vector<int>& candidates = *candidates_lease;
  NonzeroNNWithinInto(q, McCandidateBound(NonzeroDelta(q)), nullptr, &candidates);
  util::ScratchVec<const UncertainPoint*> points_lease;
  std::vector<const UncertainPoint*>& points = *points_lease;
  points.clear();
  for (int j : candidates) points.push_back(&points_[j]);
  std::vector<Quantification> out = QuantifyExactOver(points, q);
  for (Quantification& e : out) e.index = candidates[e.index];
  return out;
}

std::vector<Quantification> Engine::ThresholdNN(Point2 q, double tau,
                                                std::optional<double> eps) const {
  PNN_CHECK_MSG(tau >= 0 && tau <= 1,
                "ThresholdNN tau must be a probability in [0,1]");
  return ThresholdFilter(Quantify(q, eps), tau);
}

int Engine::MostLikelyNN(Point2 q, std::optional<double> eps) const {
  return pnn::MostLikelyNN(Quantify(q, eps));
}

int Engine::ExpectedDistanceNN(Point2 q) const {
  return EnsureExpectedNN()->Nearest(q);
}

}  // namespace pnn
