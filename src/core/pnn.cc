#include "src/core/pnn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/exec/thread_pool.h"
#include "src/geometry/hull.h"
#include "src/util/arena.h"
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

std::unique_ptr<Engine> Engine::FromParts(UncertainSet points, Options options,
                                          Parts parts) {
  PNN_CHECK_MSG(!points.empty(), "Engine needs at least one uncertain point");
  CheckOptions(options, points.size());
  std::unique_ptr<Engine> e(new Engine());
  for (const UncertainPoint& p : points) e->agg_.Add(p);
  if (e->agg_.all_continuous()) {
    PNN_CHECK_MSG(parts.disk_index != nullptr && parts.disk_index->size() ==
                      points.size(),
                  "all-continuous parts need a disk index over the points");
    PNN_CHECK_MSG(parts.discrete_index == nullptr && parts.spiral == nullptr,
                  "all-continuous parts must not carry discrete structures");
  } else if (e->agg_.all_discrete()) {
    PNN_CHECK_MSG(parts.discrete_index != nullptr &&
                      parts.discrete_index->num_points() == points.size(),
                  "all-discrete parts need a discrete index over the points");
    PNN_CHECK_MSG(parts.spiral != nullptr, "all-discrete parts need a spiral index");
    PNN_CHECK_MSG(&parts.spiral->tree() == &parts.discrete_index->location_tree(),
                  "all-discrete parts must share one location tree");
    PNN_CHECK_MSG(parts.disk_index == nullptr,
                  "all-discrete parts must not carry a disk index");
  } else {
    PNN_CHECK_MSG(parts.disk_index == nullptr && parts.discrete_index == nullptr &&
                      parts.spiral == nullptr,
                  "mixed-input parts carry no indexes (brute-force queries)");
  }
  e->points_ = std::move(points);
  e->options_ = std::move(options);
  e->disk_index_ = std::move(parts.disk_index);
  e->discrete_index_ = std::move(parts.discrete_index);
  e->spiral_ = std::move(parts.spiral);
  return e;
}

EngineBuilder::EngineBuilder(UncertainSet points, Engine::Options options,
                             size_t chunk)
    : chunk_(chunk), points_(std::move(points)), options_(std::move(options)) {
  PNN_CHECK_MSG(!points_.empty(), "Engine needs at least one uncertain point");
  Engine::CheckOptions(options_, points_.size());
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
      for (size_t end = ChunkEnd(); cursor_ < end; ++cursor_) agg_.Add(points_[cursor_]);
      if (cursor_ == points_.size()) {
        cursor_ = 0;
        if (agg_.all_continuous()) {
          disks_.reserve(points_.size());
          stage_ = Stage::kGatherContinuous;
        } else if (agg_.all_discrete()) {
          // Reserve the final sizes up front: the gathered arrays are the
          // structures' storage or their kd builds' input, so growth never
          // doubles mid-build and the transient overhead stays one chunk of
          // hull scratch.
          hulls_.reserve(points_.size());
          centroids_.reserve(points_.size());
          counts_.reserve(points_.size());
          locations_.reserve(agg_.total_complexity);
          owners_.reserve(agg_.total_complexity);
          location_weights_.reserve(agg_.total_complexity);
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
        counts_.push_back(static_cast<int>(d.locations.size()));
        int owner = static_cast<int>(cursor_);
        for (size_t s = 0; s < d.locations.size(); ++s) {
          locations_.push_back(d.locations[s]);
          owners_.push_back(owner);
          location_weights_.push_back(d.weights[s]);
        }
      }
      if (cursor_ == points_.size()) {
        cursor_ = 0;
        stage_ = Stage::kBuildDiscreteIndex;
      }
      break;
    }
    case Stage::kBuildDiscreteIndex: {
      KdTree centroid_tree(std::move(centroids_), std::vector<double>(),
                           Metric::kEuclidean, kd_build);
      // One location tree, shared by the stage-2 report and the spiral.
      auto location_tree = std::make_shared<const KdTree>(
          std::move(locations_), std::vector<double>(), Metric::kEuclidean, kd_build);
      spiral_ = std::make_unique<SpiralSearchPNN>(
          location_tree, owners_, std::move(location_weights_), std::move(counts_),
          agg_.max_k, agg_.rho());
      discrete_index_ = std::make_unique<DiscreteNonzeroNNIndex>(
          std::move(hulls_), std::move(centroid_tree), std::move(location_tree),
          std::move(owners_));
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
  e->agg_ = agg_;
  e->disk_index_ = std::move(disk_index_);
  e->discrete_index_ = std::move(discrete_index_);
  e->spiral_ = std::move(spiral_);
}

std::unique_ptr<Engine> EngineBuilder::Finish() {
  std::unique_ptr<Engine> e(new Engine());
  FinishInto(e.get());
  return e;
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
  auto draw = [&](size_t c) {
    DrawRounds(cur.get(), c * chunk, std::min(points_.size(), (c + 1) * chunk),
               next.get());
  };
  exec::MaybeParallelFor(pool != nullptr ? pool : options_.build_pool,
                         (points_.size() + chunk - 1) / chunk, draw);
  std::atomic_store_explicit(&rounds_, std::shared_ptr<const McSamples>(next),
                             std::memory_order_release);
  return next;
}

void Engine::DrawRounds(const McSamples* prev, size_t begin, size_t end,
                        McSamples* block) const {
  const std::vector<uint64_t>& ids = options_.mc_stream_ids;
  for (size_t j = begin; j < end; ++j) {
    FillMcRow(points_[j], options_.seed, ids.empty() ? j : ids[j], prev, j, block);
  }
}

void Engine::AdoptRounds(std::shared_ptr<const McSamples> block) const {
  PNN_CHECK(block->xs.size() == points_.size() * block->rounds);
  std::lock_guard<std::mutex> lock(lazy_mu_);
  auto cur = std::atomic_load_explicit(&rounds_, std::memory_order_acquire);
  if (cur && cur->rounds >= block->rounds) return;
  std::atomic_store_explicit(&rounds_, std::move(block), std::memory_order_release);
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
  if (PlanForQuantify(eps) == QuantifyPlan::kSpiral) return spiral_->Query(q, eps);
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
  if (all_discrete()) return QuantifyExactDiscrete(points_, q);
  PNN_CHECK_MSG(all_continuous(),
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
