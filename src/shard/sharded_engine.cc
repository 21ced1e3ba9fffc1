#include "src/shard/sharded_engine.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "src/dyn/answer_cache.h"
#include "src/dyn/merge.h"
#include "src/dyn/tail_cache.h"
#include "src/dyn/view_query.h"
#include "src/util/check.h"

namespace pnn {
namespace shard {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double Coord(Point2 p, int axis) { return axis == 0 ? p.x : p.y; }

// The union of the shards' snapshots as one Snapshot: the buckets
// concatenate (shared, zero-copy), the live tail entries gather into one
// tail, and the aggregates recombine by sum / max / min — exactly what a
// single engine over the union would publish. The Merged* decompositions
// never assume the parts came from one engine, so feeding them this union
// reproduces the single-engine answers bit-for-bit. The union gets its own
// tail-sample cache: it lives exactly as long as the view that owns it,
// which is the required per-publish invalidation.
std::shared_ptr<const dyn::Snapshot> CombineSnapshots(
    const std::vector<std::shared_ptr<const dyn::Snapshot>>& parts,
    bool answer_cache) {
  auto c = std::make_shared<dyn::Snapshot>();
  auto tail = std::make_shared<std::vector<dyn::TailEntry>>();
  for (const auto& s : parts) {
    for (const auto& bref : s->buckets) {
      if (bref.live_count > 0) c->buckets.push_back(bref);
    }
    if (s->tail != nullptr) {
      for (size_t i = 0; i < s->tail->size(); ++i) {
        if (s->TailAlive(i)) tail->push_back((*s->tail)[i]);
      }
    }
    c->live_count += s->live_count;
    c->discrete_count += s->discrete_count;
    c->continuous_count += s->continuous_count;
    c->total_complexity += s->total_complexity;
    c->max_k = std::max(c->max_k, s->max_k);
    c->wmin = std::min(c->wmin, s->wmin);
    c->wmax = std::max(c->wmax, s->wmax);
  }
  if (!tail->empty()) c->tail_mc = std::make_shared<dyn::TailMcCache>();
  // The union snapshot gets its own answer cache with the same lifecycle
  // as its tail_mc: any shard's publish invalidates the view (pointer
  // mismatch in View()), which retires this cache with it.
  if (answer_cache && c->live_count > 0) {
    c->answers = std::make_shared<dyn::AnswerCache>();
  }
  c->tail = std::move(tail);
  return c;
}

}  // namespace

ShardedEngine::ShardedEngine(Options options) : ShardedEngine(UncertainSet(), options) {}

ShardedEngine::ShardedEngine(const UncertainSet& initial, Options options)
    : options_(std::move(options)) {
  PNN_CHECK_MSG(options_.num_shards >= 1, "num_shards must be >= 1");
  PNN_CHECK_MSG(options_.shard.pool == nullptr,
                "set shard::Options::pool; the per-shard pool is managed here");
  PNN_CHECK_MSG(options_.rebalance_max_imbalance > 1,
                "rebalance_max_imbalance must exceed 1");
  PNN_CHECK_MSG(options_.shard.maintenance_lane == nullptr,
                "per-shard maintenance lanes are managed here");
  dyn::Options per_shard = options_.shard;
  per_shard.pool = options_.pool;

  if (options_.placement == PlacementKind::kSpatialKdMedian) {
    spatial_ = initial.empty()
                   ? std::make_unique<SpatialRouter>(options_.num_shards)
                   : std::make_unique<SpatialRouter>(options_.num_shards, initial);
  }

  std::vector<std::vector<Id>> ids_of(options_.num_shards);
  std::vector<UncertainSet> points_of(options_.num_shards);
  for (size_t i = 0; i < initial.size(); ++i) {
    Id id = static_cast<Id>(i);
    uint32_t s = PlaceLocked(id, initial[i]);
    shard_of_.emplace(id, s);
    ids_of[s].push_back(id);
    points_of[s].push_back(initial[i]);
  }
  next_id_ = static_cast<Id>(initial.size());

  if (options_.pool != nullptr) {
    // A dedicated maintenance lane per shard: sliced build steps hop
    // through it, so one shard's compaction never monopolizes the pool's
    // workers while another shard's merge waits.
    lanes_.reserve(options_.num_shards);
    for (uint32_t s = 0; s < options_.num_shards; ++s) {
      lanes_.push_back(std::make_unique<exec::Lane>(options_.pool));
    }
  }

  // Bootstrap the shard engines in parallel: each builds its initial
  // bucket through the same staged builder maintenance uses, with the kd
  // builds forking per-subtree on the shared pool.
  shards_.resize(options_.num_shards);
  auto build_shard = [&](size_t s) {
    dyn::Options opts = per_shard;
    if (!lanes_.empty()) opts.maintenance_lane = lanes_[s].get();
    shards_[s] = points_of[s].empty()
                     ? std::make_unique<dyn::DynamicEngine>(opts)
                     : std::make_unique<dyn::DynamicEngine>(std::move(ids_of[s]),
                                                            points_of[s], opts);
  };
  exec::MaybeParallelFor(options_.pool, options_.num_shards, build_shard);
}

ShardedEngine::ShardedEngine(std::vector<std::vector<dyn::RecoveredBucket>> recovered,
                             Options options)
    : options_(std::move(options)) {
  PNN_CHECK_MSG(options_.num_shards >= 1, "num_shards must be >= 1");
  PNN_CHECK_MSG(recovered.size() == options_.num_shards,
                "one recovered-bucket list per shard");
  PNN_CHECK_MSG(options_.shard.pool == nullptr,
                "set shard::Options::pool; the per-shard pool is managed here");
  PNN_CHECK_MSG(options_.shard.maintenance_lane == nullptr,
                "per-shard maintenance lanes are managed here");
  dyn::Options per_shard = options_.shard;
  per_shard.pool = options_.pool;
  if (options_.placement == PlacementKind::kSpatialKdMedian) {
    // Placeholder partition; FinishRecovery reseeds it from the live set.
    spatial_ = std::make_unique<SpatialRouter>(options_.num_shards);
  }
  if (options_.pool != nullptr) {
    lanes_.reserve(options_.num_shards);
    for (uint32_t s = 0; s < options_.num_shards; ++s) {
      lanes_.push_back(std::make_unique<exec::Lane>(options_.pool));
    }
  }
  shards_.resize(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    dyn::Options opts = per_shard;
    if (!lanes_.empty()) opts.maintenance_lane = lanes_[s].get();
    // next_id floor 0 per shard: FinishRecovery sets the global counter.
    shards_[s] = std::make_unique<dyn::DynamicEngine>(std::move(recovered[s]),
                                                      /*next_id_floor=*/0, opts);
  }
}

bool ShardedEngine::RecoverInsert(uint32_t shard, Id id, UncertainPoint point) {
  if (shards_[shard]->IsLive(id)) return false;
  shards_[shard]->InsertWithId(id, std::move(point));
  return true;
}

bool ShardedEngine::RecoverErase(uint32_t shard, Id id) {
  return shards_[shard]->Erase(id);
}

Id ShardedEngine::FinishRecovery(Id next_id_floor, const DuplicateResolver& resolve) {
  std::lock_guard<std::mutex> lock(mu_);
  // Live ids straight from each shard's snapshot, no point copies.
  std::vector<std::vector<Id>> live(shards_.size());
  size_t total = 0;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    std::shared_ptr<const dyn::Snapshot> snap = shards_[s]->snapshot();
    for (const dyn::LiveMember& m :
         dyn::GatherLive(snap->buckets, snap->tail.get(), snap->tail_dead.get())) {
      live[s].push_back(m.id);
    }
    total += live[s].size();
  }
  shard_of_.reserve(total);
  Id max_id = -1;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    for (Id id : live[s]) {
      max_id = std::max(max_id, id);
      auto [it, inserted] = shard_of_.emplace(id, s);
      if (inserted) continue;
      uint32_t loser = resolve(id, it->second, s);
      PNN_CHECK_MSG(loser == it->second || loser == s,
                    "FinishRecovery: the loser must be one of the two shards");
      PNN_CHECK(shards_[loser]->Erase(id));
      if (loser != s) it->second = s;
    }
  }
  next_id_ = std::max(next_id_floor, max_id + 1);
  if (options_.placement == PlacementKind::kSpatialKdMedian) {
    UncertainSet all_live;
    for (const auto& shard : shards_) {
      UncertainSet pts = shard->LiveSet();
      all_live.insert(all_live.end(), pts.begin(), pts.end());
    }
    if (!all_live.empty()) {
      spatial_ = std::make_unique<SpatialRouter>(options_.num_shards, all_live);
    }
  }
  return next_id_;
}

ShardedEngine::~ShardedEngine() { WaitForMaintenance(); }

uint32_t ShardedEngine::PlaceLocked(Id id, const UncertainPoint& point) const {
  if (options_.placement == PlacementKind::kSpatialKdMedian) {
    return spatial_->Route(point.Centroid());
  }
  return HashShard(id, options_.num_shards);
}

Id ShardedEngine::Insert(UncertainPoint point) {
  std::unique_lock<std::mutex> lock(mu_);
  PNN_CHECK_MSG(next_id_ < std::numeric_limits<Id>::max(), "id space exhausted");
  Id id = next_id_++;
  uint32_t s = PlaceLocked(id, point);
  // Write-ahead: the listener persists the op before any state changes. A
  // veto (the durable store refused the ack) rolls the id back — it was
  // never observable, so the next insert reuses it.
  if (options_.listener != nullptr && !options_.listener->OnInsert(s, id, point)) {
    --next_id_;
    return -1;
  }
  shard_of_.emplace(id, s);
  shards_[s]->InsertWithId(id, std::move(point));
  if (options_.listener != nullptr) options_.listener->OnApplied(s);
  MaybeScheduleRebalanceLocked();
  return id;
}

bool ShardedEngine::Erase(Id id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = shard_of_.find(id);
  if (it == shard_of_.end()) return false;
  uint32_t s = it->second;
  // A veto leaves the point live: nothing was logged, nothing applies.
  if (options_.listener != nullptr && !options_.listener->OnErase(s, id)) {
    return false;
  }
  bool erased = shards_[s]->Erase(id);
  PNN_CHECK_MSG(erased, "id->shard map out of sync with shard live set");
  shard_of_.erase(it);
  if (options_.listener != nullptr) options_.listener->OnApplied(s);
  MaybeScheduleRebalanceLocked();
  return true;
}

std::vector<std::shared_ptr<const dyn::Snapshot>> ShardedEngine::Grab() const {
  for (;;) {
    uint64_t before = epoch_.load(std::memory_order_acquire);
    if ((before & 1) == 0) {
      std::vector<std::shared_ptr<const dyn::Snapshot>> parts;
      parts.reserve(shards_.size());
      for (const auto& s : shards_) parts.push_back(s->snapshot());
      if (epoch_.load(std::memory_order_acquire) == before) return parts;
    }
    // A rebalance move is splicing a point between two shards; the gather
    // is cheap, so retry rather than ever seeing the point 0 or 2 times.
    std::this_thread::yield();
  }
}

std::shared_ptr<const CombinedView> ShardedEngine::View() const {
  auto cached = std::atomic_load_explicit(&view_cache_, std::memory_order_acquire);
  if (cached != nullptr) {
    // Validate: every shard's current snapshot must still be the cached
    // part, read under an even, unchanged epoch. The cache holds each part
    // alive, so a pointer match means "still that snapshot" — publishes
    // always allocate a new object, and a freed address cannot recur while
    // we pin it. A shard that moved on since the view was built
    // mismatches, which is exactly the insert/erase/merge/rebalance
    // invalidation; a rebalance move mid-flight falls through to Grab().
    uint64_t before = epoch_.load(std::memory_order_acquire);
    bool match = (before & 1) == 0;
    for (size_t i = 0; match && i < shards_.size(); ++i) {
      match = shards_[i]->snapshot().get() == cached->parts[i].get();
    }
    if (match && epoch_.load(std::memory_order_acquire) == before) {
      view_hits_.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }
  }
  auto view = std::make_shared<CombinedView>();
  view->parts = Grab();
  view->combined = CombineSnapshots(view->parts, options_.shard.answer_cache);
  std::atomic_store_explicit(&view_cache_, std::shared_ptr<const CombinedView>(view),
                             std::memory_order_release);
  view_misses_.fetch_add(1, std::memory_order_relaxed);
  return view;
}

std::vector<Id> ShardedEngine::NonzeroNN(Point2 q) const {
  std::vector<Id> out;
  NonzeroNNInto(q, &out);
  return out;
}

void ShardedEngine::NonzeroNNInto(Point2 q, std::vector<Id>* out) const {
  dyn::NonzeroNNInto(*View(), options_.pool, q, out);
}

std::vector<Quantification> ShardedEngine::Quantify(Point2 q,
                                                    std::optional<double> eps) const {
  std::vector<Quantification> out;
  QuantifyInto(q, eps, &out);
  return out;
}

void ShardedEngine::QuantifyInto(Point2 q, std::optional<double> eps,
                                 std::vector<Quantification>* out) const {
  dyn::QuantifyInto(*View(), options_.shard.engine, options_.pool, q, eps, out);
}

std::vector<Quantification> ShardedEngine::QuantifyExact(Point2 q) const {
  return dyn::QuantifyExact(*View(), q);
}

std::vector<Quantification> ShardedEngine::ThresholdNN(Point2 q, double tau,
                                                       std::optional<double> eps) const {
  PNN_CHECK_MSG(tau >= 0 && tau <= 1, "ThresholdNN tau must be a probability in [0,1]");
  return ThresholdFilter(Quantify(q, eps), tau);
}

Id ShardedEngine::MostLikelyNN(Point2 q, std::optional<double> eps) const {
  return pnn::MostLikelyNN(Quantify(q, eps));
}

QuantifyPlan ShardedEngine::PlanForQuantify(std::optional<double> eps) const {
  return dyn::PlanFor(*View(), options_.shard.engine, eps);
}

void ShardedEngine::Prewarm(std::optional<double> eps) const {
  dyn::Prewarm(*View(), options_.shard.engine, options_.pool, eps);
}

size_t ShardedEngine::live_size() const {
  size_t live = 0;
  for (const auto& s : Grab()) live += s->live_count;
  return live;
}

std::vector<size_t> ShardedEngine::ShardLiveSizes() const {
  auto parts = Grab();
  std::vector<size_t> sizes(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) sizes[i] = parts[i]->live_count;
  return sizes;
}

RebalanceStats ShardedEngine::rebalance_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rebalance_stats_;
}

SnapshotCacheStats ShardedEngine::snapshot_cache_stats() const {
  SnapshotCacheStats s;
  s.hits = view_hits_.load(std::memory_order_relaxed);
  s.misses = view_misses_.load(std::memory_order_relaxed);
  return s;
}

UncertainSet ShardedEngine::LiveSet(std::vector<Id>* ids) const {
  return dyn::SnapshotLiveSet(*View()->combined, ids);
}

Engine::Options ShardedEngine::ReferenceEngineOptions() const {
  return dyn::SnapshotReferenceOptions(*View()->combined, options_.shard.engine);
}

bool ShardedEngine::RebalanceNeededLocked(uint32_t* src, uint32_t* dst,
                                          size_t* total_out) const {
  size_t total = 0;
  size_t max_live = 0, min_live = std::numeric_limits<size_t>::max();
  uint32_t argmax = 0, argmin = 0;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    size_t n = shards_[i]->live_size();
    total += n;
    if (n > max_live) {
      max_live = n;
      argmax = i;
    }
    if (n < min_live) {
      min_live = n;
      argmin = i;
    }
  }
  if (shards_.size() < 2 || total < options_.rebalance_min_points) return false;
  double ideal = static_cast<double>(total) / static_cast<double>(shards_.size());
  if (static_cast<double>(max_live) <= options_.rebalance_max_imbalance * ideal) {
    return false;
  }
  if (argmax == argmin || max_live < 2) return false;
  *src = argmax;
  *dst = argmin;
  *total_out = total;
  return true;
}

bool ShardedEngine::RebalanceNeeded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t src, dst;
  size_t total;
  return RebalanceNeededLocked(&src, &dst, &total);
}

bool ShardedEngine::RebalanceOnceLocked(std::unique_lock<std::mutex>* lock) {
  uint32_t src, dst;
  size_t total;
  if (!RebalanceNeededLocked(&src, &dst, &total)) return false;

  std::vector<Id> ids;
  UncertainSet pts = shards_[src]->LiveSet(&ids);
  size_t src_live = ids.size();
  size_t dst_live = shards_[dst]->live_size();
  if (src_live < 2) return false;
  // Cap the migration at half the gap: the classic potential argument
  // (sum of squared loads strictly decreases) then bounds the number of
  // passes, so RebalanceNow / the background loop terminate.
  size_t cap = std::max<size_t>(1, std::min(src_live / 2, (src_live - dst_live) / 2));

  // Pick the moved subset. Spatial placement carves off the cap-rank
  // coordinate prefix along the wider-spread centroid axis and re-labels
  // that region in the router (future inserts follow the moved points);
  // hash placement (or a degenerate all-equal cloud) just takes the
  // oldest-id prefix, since placement is id-determined there anyway.
  std::vector<size_t> chosen;
  if (options_.placement == PlacementKind::kSpatialKdMedian) {
    std::vector<Point2> centroids(src_live);
    double xmin = kInf, xmax = -kInf, ymin = kInf, ymax = -kInf;
    for (size_t i = 0; i < src_live; ++i) {
      centroids[i] = pts[i].Centroid();
      xmin = std::min(xmin, centroids[i].x);
      xmax = std::max(xmax, centroids[i].x);
      ymin = std::min(ymin, centroids[i].y);
      ymax = std::max(ymax, centroids[i].y);
    }
    int axis = xmax - xmin >= ymax - ymin ? 0 : 1;
    std::vector<double> coords(src_live);
    for (size_t i = 0; i < src_live; ++i) coords[i] = Coord(centroids[i], axis);
    std::vector<double> order = coords;
    std::nth_element(order.begin(), order.begin() + static_cast<long>(cap), order.end());
    double threshold = order[cap];
    for (size_t i = 0; i < src_live; ++i) {
      if (coords[i] < threshold) chosen.push_back(i);
    }
    if (!chosen.empty()) {
      spatial_->SplitShard(src, dst, axis, threshold);
    }
  }
  if (chosen.empty()) {
    for (size_t i = 0; i < cap; ++i) chosen.push_back(i);
  }

  size_t moved = 0;
  bool vetoed = false;
  for (size_t idx : chosen) {
    Id id = ids[idx];
    auto it = shard_of_.find(id);
    // Erased (or already migrated) by an update that slipped in between
    // point moves; skip.
    if (it == shard_of_.end() || it->second != src) continue;
    // Write-ahead: both shards' logs record the move (destination first,
    // inside the listener) before either engine changes. A veto means a
    // shard's store is degraded — stop rebalancing; the pass retries
    // after a mutation heals it.
    if (options_.listener != nullptr &&
        !options_.listener->OnMove(src, dst, id, pts[idx])) {
      vetoed = true;
      break;
    }
    // The only multi-shard mutation: bump the seqlock epoch around the
    // erase+reinsert so no query observes the point 0 or 2 times.
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    bool erased = shards_[src]->Erase(id);
    PNN_CHECK(erased);
    shards_[dst]->InsertWithId(id, pts[idx]);
    it->second = dst;
    epoch_.fetch_add(1, std::memory_order_release);
    if (options_.listener != nullptr) {
      options_.listener->OnApplied(src);
      options_.listener->OnApplied(dst);
    }
    ++moved;
    // Let queued updates through between moves.
    lock->unlock();
    lock->lock();
  }
  if (moved > 0) {
    ++rebalance_stats_.passes;
    rebalance_stats_.points_moved += moved;
  }
  return moved > 0 && !vetoed;
}

void ShardedEngine::MaybeScheduleRebalanceLocked() {
  if (!options_.auto_rebalance || options_.pool == nullptr || rebalance_running_) {
    return;
  }
  uint32_t src, dst;
  size_t total;
  if (!RebalanceNeededLocked(&src, &dst, &total)) return;
  rebalance_running_ = true;
  options_.pool->Submit([this] { RebalanceLoop(); });
}

void ShardedEngine::RebalanceLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (RebalanceOnceLocked(&lock)) {
  }
  rebalance_running_ = false;
  cv_.notify_all();
}

void ShardedEngine::RebalanceNow() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !rebalance_running_; });
  rebalance_running_ = true;
  while (RebalanceOnceLocked(&lock)) {
  }
  rebalance_running_ = false;
  cv_.notify_all();
}

void ShardedEngine::WaitForMaintenance() const {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !rebalance_running_; });
  }
  for (const auto& s : shards_) s->WaitForMaintenance();
}

}  // namespace shard
}  // namespace pnn
