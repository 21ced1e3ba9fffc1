#include "src/dyn/bucket.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace pnn {
namespace dyn {

namespace {

Engine::Options BucketEngineOptions(Engine::Options options) {
  // Per-point stream ids sized for some other point set must not leak into
  // the bucket engine's validation; the dynamic engine maintains id-keyed
  // per-round structures itself (see McRounds).
  options.mc_stream_ids.clear();
  return options;
}

}  // namespace

Bucket::Bucket(std::vector<Id> ids, UncertainSet points, Engine::Options options)
    : ids_(std::move(ids)),
      engine_(std::make_unique<Engine>(std::move(points),
                                       BucketEngineOptions(std::move(options)))) {
  PNN_CHECK_MSG(ids_.size() == engine_->points().size(),
                "bucket ids/points size mismatch");
  PNN_CHECK_MSG(std::is_sorted(ids_.begin(), ids_.end()), "bucket ids must ascend");
}

Bucket::Bucket(std::vector<Id> ids, std::unique_ptr<Engine> engine)
    : ids_(std::move(ids)), engine_(std::move(engine)) {
  PNN_CHECK_MSG(ids_.size() == engine_->points().size(),
                "bucket ids/points size mismatch");
  PNN_CHECK_MSG(std::is_sorted(ids_.begin(), ids_.end()), "bucket ids must ascend");
}

SlicedBucketBuilder::SlicedBucketBuilder(std::vector<Id> ids, UncertainSet points,
                                         Engine::Options options, size_t chunk)
    : ids_(std::move(ids)),
      builder_(std::move(points), BucketEngineOptions(std::move(options)), chunk) {}

std::shared_ptr<const Bucket> SlicedBucketBuilder::Finish() {
  return std::make_shared<const Bucket>(std::move(ids_), builder_.Finish());
}

int Bucket::LocalIndex(Id id) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return -1;
  return static_cast<int>(it - ids_.begin());
}

std::shared_ptr<const McRounds> Bucket::EnsureRounds(size_t rounds,
                                                     exec::ThreadPool* pool) const {
  auto cur = std::atomic_load_explicit(&mc_, std::memory_order_acquire);
  if (cur && cur->trees.size() >= rounds) return cur;
  std::lock_guard<std::mutex> lock(mc_mu_);
  cur = std::atomic_load_explicit(&mc_, std::memory_order_acquire);
  if (cur && cur->trees.size() >= rounds) return cur;

  auto next = std::make_shared<McRounds>();
  if (cur) next->trees = cur->trees;  // Share the already-built prefix.
  const Engine::Options& eo = engine_->options();
  std::vector<uint64_t> stream_ids(ids_.begin(), ids_.end());
  BuildMcRounds(engine_->points(), eo.seed, next->trees.size(), rounds, stream_ids,
                KdBuildOptions{pool, eo.build_parallel_cutoff, eo.kd_leaf_size},
                next.get());
  std::atomic_store_explicit(&mc_, std::shared_ptr<const McRounds>(next),
                             std::memory_order_release);
  return next;
}

}  // namespace dyn
}  // namespace pnn
