#include "src/core/pnn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/geometry/hull.h"
#include "src/util/check.h"

namespace pnn {

Engine::Engine(UncertainSet points, Options options) {
  // One construction path for everyone: the monolithic constructor is the
  // staged builder run to completion in place (chunk 0 = one pass per
  // stage), so the sliced maintenance builds cannot drift from it.
  EngineBuilder builder(std::move(points), std::move(options), 0);
  while (!builder.done()) builder.Step();
  builder.FinishInto(this);
}

std::unique_ptr<Engine> Engine::FromParts(UncertainSet points, Options options,
                                          Parts parts) {
  PNN_CHECK_MSG(!points.empty(), "Engine needs at least one uncertain point");
  PNN_CHECK_MSG(!(parts.all_discrete && parts.all_continuous),
                "a non-empty set cannot be both all-discrete and all-continuous");
  if (parts.all_continuous) {
    PNN_CHECK_MSG(parts.disk_index != nullptr && parts.disk_index->size() ==
                      points.size(),
                  "all-continuous parts need a disk index over the points");
    PNN_CHECK_MSG(parts.discrete_index == nullptr && parts.spiral == nullptr,
                  "all-continuous parts must not carry discrete structures");
  } else if (parts.all_discrete) {
    PNN_CHECK_MSG(parts.discrete_index != nullptr &&
                      parts.discrete_index->num_points() == points.size(),
                  "all-discrete parts need a discrete index over the points");
    PNN_CHECK_MSG(parts.spiral != nullptr, "all-discrete parts need a spiral index");
    PNN_CHECK_MSG(parts.disk_index == nullptr,
                  "all-discrete parts must not carry a disk index");
  } else {
    PNN_CHECK_MSG(parts.disk_index == nullptr && parts.discrete_index == nullptr &&
                      parts.spiral == nullptr,
                  "mixed-input parts carry no indexes (brute-force queries)");
  }
  // Route the option validation through the builder (on a trivial set), so
  // FromParts rejects exactly what the building constructor rejects.
  {
    Engine::Options check = options;
    check.mc_stream_ids.clear();
    UncertainSet probe;
    probe.push_back(points.front());
    EngineBuilder validate(std::move(probe), std::move(check), 0);
  }
  PNN_CHECK_MSG(
      options.mc_stream_ids.empty() || options.mc_stream_ids.size() == points.size(),
      "Options::mc_stream_ids must be empty or have one id per point");
  std::unique_ptr<Engine> e(new Engine());
  e->points_ = std::move(points);
  e->options_ = std::move(options);
  e->all_discrete_ = parts.all_discrete;
  e->all_continuous_ = parts.all_continuous;
  e->total_complexity_ = parts.total_complexity;
  e->disk_index_ = std::move(parts.disk_index);
  e->discrete_index_ = std::move(parts.discrete_index);
  e->spiral_ = std::move(parts.spiral);
  return e;
}

EngineBuilder::EngineBuilder(UncertainSet points, Engine::Options options,
                             size_t chunk)
    : chunk_(chunk), points_(std::move(points)), options_(std::move(options)) {
  PNN_CHECK_MSG(!points_.empty(), "Engine needs at least one uncertain point");
  PNN_CHECK_MSG(options_.default_eps > 0 && options_.default_eps < 1,
                "Options::default_eps must be in (0,1)");
  PNN_CHECK_MSG(options_.mc_delta > 0 && options_.mc_delta < 1,
                "Options::mc_delta must be in (0,1)");
  PNN_CHECK_MSG(
      options_.spiral_budget_fraction > 0 && options_.spiral_budget_fraction <= 1,
      "Options::spiral_budget_fraction must be in (0,1]");
  PNN_CHECK_MSG(
      options_.mc_stream_ids.empty() || options_.mc_stream_ids.size() == points_.size(),
      "Options::mc_stream_ids must be empty or have one id per point");
  PNN_CHECK_MSG(options_.kd_leaf_size >= 1, "Options::kd_leaf_size must be >= 1");
}

EngineBuilder::~EngineBuilder() = default;

size_t EngineBuilder::ChunkEnd() const {
  return chunk_ == 0 ? points_.size() : std::min(points_.size(), cursor_ + chunk_);
}

void EngineBuilder::Step() {
  PNN_CHECK_MSG(stage_ != Stage::kReady, "Step() after done()");
  KdBuildOptions kd_build{options_.build_pool, options_.build_parallel_cutoff,
                          options_.kd_leaf_size};
  switch (stage_) {
    case Stage::kScan: {
      for (size_t end = ChunkEnd(); cursor_ < end; ++cursor_) {
        const UncertainPoint& p = points_[cursor_];
        all_discrete_ = all_discrete_ && p.is_discrete();
        all_continuous_ = all_continuous_ && !p.is_discrete();
        total_complexity_ += p.DescriptionComplexity();
      }
      if (cursor_ == points_.size()) {
        cursor_ = 0;
        if (all_continuous_) {
          disks_.reserve(points_.size());
          stage_ = Stage::kGatherContinuous;
        } else if (all_discrete_) {
          // Reserve the final sizes up front: the gathered arrays ARE the
          // structures' storage, so growth never doubles mid-build and the
          // transient overhead stays one chunk of hull scratch.
          hulls_.reserve(points_.size());
          centroids_.reserve(points_.size());
          counts_.reserve(points_.size());
          locations_.reserve(total_complexity_);
          owners_.reserve(total_complexity_);
          spiral_locations_.reserve(total_complexity_);
          spiral_owners_.reserve(total_complexity_);
          spiral_weights_.reserve(total_complexity_);
          stage_ = Stage::kGatherDiscrete;
        } else {
          stage_ = Stage::kReady;  // Mixed inputs: brute-force queries.
        }
      }
      break;
    }
    case Stage::kGatherContinuous: {
      for (size_t end = ChunkEnd(); cursor_ < end; ++cursor_) {
        disks_.push_back(points_[cursor_].disk().support);
      }
      if (cursor_ == points_.size()) {
        cursor_ = 0;
        stage_ = Stage::kBuildDiskIndex;
      }
      break;
    }
    case Stage::kBuildDiskIndex: {
      disk_index_ = std::make_unique<NonzeroNNIndex>(disks_, kd_build);
      std::vector<Circle>().swap(disks_);
      stage_ = Stage::kReady;
      break;
    }
    case Stage::kGatherDiscrete: {
      for (size_t end = ChunkEnd(); cursor_ < end; ++cursor_) {
        const auto& d = points_[cursor_].discrete();
        PNN_CHECK_MSG(!d.locations.empty(), "uncertain point with no locations");
        // Same arithmetic (and order) as the scanning constructors of
        // DiscreteNonzeroNNIndex and SpiralSearchPNN, so the assembled
        // structures are bit-identical to theirs.
        hulls_.push_back(ConvexHull(d.locations));
        Point2 c{0, 0};
        for (Point2 p : d.locations) c = c + p;
        centroids_.push_back(c / static_cast<double>(d.locations.size()));
        max_k_ = std::max(max_k_, d.locations.size());
        counts_.push_back(static_cast<int>(d.locations.size()));
        int owner = static_cast<int>(cursor_);
        for (size_t s = 0; s < d.locations.size(); ++s) {
          locations_.push_back(d.locations[s]);
          owners_.push_back(owner);
          spiral_locations_.push_back(d.locations[s]);
          spiral_owners_.push_back(owner);
          spiral_weights_.push_back(d.weights[s]);
          wmin_ = std::min(wmin_, d.weights[s]);
          wmax_ = std::max(wmax_, d.weights[s]);
        }
      }
      if (cursor_ == points_.size()) {
        cursor_ = 0;
        stage_ = Stage::kBuildDiscreteIndex;
      }
      break;
    }
    case Stage::kBuildDiscreteIndex: {
      discrete_index_ = std::make_unique<DiscreteNonzeroNNIndex>(
          std::move(hulls_), std::move(centroids_), std::move(locations_),
          std::move(owners_), kd_build);
      stage_ = Stage::kBuildSpiral;
      break;
    }
    case Stage::kBuildSpiral: {
      spiral_ = std::make_unique<SpiralSearchPNN>(
          std::move(spiral_locations_), std::move(spiral_owners_),
          std::move(spiral_weights_), std::move(counts_), max_k_, wmax_ / wmin_,
          kd_build);
      stage_ = Stage::kReady;
      break;
    }
    case Stage::kReady:
      break;
  }
}

void EngineBuilder::FinishInto(Engine* e) {
  PNN_CHECK_MSG(done(), "FinishInto before the build finished");
  e->points_ = std::move(points_);
  e->options_ = std::move(options_);
  e->all_discrete_ = all_discrete_;
  e->all_continuous_ = all_continuous_;
  e->total_complexity_ = total_complexity_;
  e->disk_index_ = std::move(disk_index_);
  e->discrete_index_ = std::move(discrete_index_);
  e->spiral_ = std::move(spiral_);
}

std::unique_ptr<Engine> EngineBuilder::Finish() {
  std::unique_ptr<Engine> e(new Engine());
  FinishInto(e.get());
  return e;
}

double Engine::ResolveEps(std::optional<double> eps_opt) const {
  double eps = eps_opt.value_or(options_.default_eps);
  PNN_CHECK_MSG(eps > 0 && eps < 1, "eps must be in (0,1)");
  return eps;
}

std::vector<int> Engine::NonzeroNN(Point2 q) const {
  if (disk_index_) return disk_index_->Query(q);
  if (discrete_index_) return discrete_index_->Query(q);
  return NonzeroNNBruteForce(points_, q);  // Mixed inputs: linear scan.
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

QuantifyPlan Engine::PlanForQuantify(std::optional<double> eps_opt) const {
  double eps = ResolveEps(eps_opt);
  if (spiral_) {
    size_t budget = spiral_->RetrievalBound(eps);
    if (static_cast<double>(budget) <=
        options_.spiral_budget_fraction * static_cast<double>(total_complexity_)) {
      return QuantifyPlan::kSpiral;
    }
  }
  return QuantifyPlan::kMonteCarlo;
}

std::shared_ptr<const MonteCarloPNN> Engine::EnsureMonteCarlo(double eps) const {
  // Lock-free fast path: the prewarmed structure already covers this eps.
  auto cur = std::atomic_load_explicit(&monte_carlo_, std::memory_order_acquire);
  if (cur && cur->target_eps() <= eps) return cur;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  cur = std::atomic_load_explicit(&monte_carlo_, std::memory_order_acquire);
  // Rebuild if absent or if a tighter eps is requested; queries holding a
  // snapshot of the old structure keep it alive through their shared_ptr.
  if (!cur || cur->target_eps() > eps) {
    MonteCarloPNN::Options mco;
    mco.eps = eps;
    mco.delta = options_.mc_delta;
    mco.seed = options_.seed;
    mco.rounds_override = options_.mc_rounds_override;
    mco.stream_ids = options_.mc_stream_ids;
    mco.build = KdBuildOptions{options_.build_pool, options_.build_parallel_cutoff,
                               options_.kd_leaf_size};
    cur = std::make_shared<const MonteCarloPNN>(points_, mco);
    std::atomic_store_explicit(&monte_carlo_, cur, std::memory_order_release);
  }
  return cur;
}

std::shared_ptr<const ExpectedNNIndex> Engine::EnsureExpectedNN() const {
  // Same pattern as EnsureMonteCarlo: lock-free once built, lock to build.
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
  double eps = ResolveEps(eps_opt);
  if (PlanForQuantify(eps) == QuantifyPlan::kMonteCarlo) EnsureMonteCarlo(eps);
}

size_t Engine::MonteCarloRounds() const {
  auto cur = std::atomic_load_explicit(&monte_carlo_, std::memory_order_acquire);
  return cur ? cur->rounds() : 0;
}

std::vector<Quantification> Engine::Quantify(Point2 q,
                                             std::optional<double> eps_opt) const {
  double eps = ResolveEps(eps_opt);
  if (PlanForQuantify(eps) == QuantifyPlan::kSpiral) return spiral_->Query(q, eps);
  return EnsureMonteCarlo(eps)->Query(q);
}

std::vector<Quantification> Engine::QuantifyExact(Point2 q) const {
  if (all_discrete_) return QuantifyExactDiscrete(points_, q);
  PNN_CHECK_MSG(all_continuous_,
                "QuantifyExact supports all-discrete or all-continuous inputs");
  return QuantifyNumericContinuous(points_, q, 1e-8);
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
