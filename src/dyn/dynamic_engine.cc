#include "src/dyn/dynamic_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/dyn/answer_cache.h"
#include "src/dyn/merge.h"
#include "src/util/arena.h"
#include "src/util/check.h"

namespace pnn {
namespace dyn {

namespace {

// The bulk constructor's ids: 0..n-1.
std::vector<Id> FirstIds(size_t n) {
  std::vector<Id> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<Id>(i);
  return ids;
}

// A point's entry in live_ks_: max(k, 1), as SetAggregates ranks it.
size_t RankedComplexity(const UncertainPoint& p) {
  return std::max<size_t>(p.DescriptionComplexity(), 1);
}

// A discrete point's own extreme weights (a discrete point has >= 1).
std::pair<double, double> WeightRange(const UncertainPoint& p) {
  const std::vector<double>& w = p.discrete().weights;
  auto mm = std::minmax_element(w.begin(), w.end());
  return {*mm.first, *mm.second};
}

// Drops one occurrence of a counted value; its node goes with the last.
template <typename T>
void RemoveCount(std::map<T, size_t>* counts, T value) {
  auto it = counts->find(value);
  PNN_CHECK_MSG(it != counts->end(), "aggregate count of a value never added");
  if (--it->second == 0) counts->erase(it);
}

// The counts of `values`: sorted, each run of equal values becomes one
// node appended at the end hint, so the build after the sort is linear.
template <typename T>
std::map<T, size_t> CountSorted(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  std::map<T, size_t> counts;
  for (size_t i = 0, j = 0; i < values.size(); i = j) {
    while (j < values.size() && values[j] == values[i]) ++j;
    counts.emplace_hint(counts.end(), values[i], j - i);
  }
  return counts;
}

}  // namespace

// What one maintenance round will build: either a tail merge (the frozen
// tail plus every bucket the doubling rule absorbs) or a full compaction
// (everything live). Members are snapshotted under the lock; the bucket is
// built outside it.
struct DynamicEngine::MaintenancePlan {
  bool any = false;
  std::vector<size_t> absorbed;  // Indices into buckets_ at plan time.
  size_t frozen_tail = 0;        // Tail prefix consumed by the build.
  std::vector<Id> ids;           // Ascending members of the new bucket.
  UncertainSet points;           // Parallel to ids.
};

DynamicEngine::DynamicEngine(Options options) : options_(std::move(options)) {
  PNN_CHECK_MSG(options_.tail_limit >= 1, "tail_limit must be >= 1");
  PNN_CHECK_MSG(options_.max_dead_fraction > 0 && options_.max_dead_fraction < 1,
                "max_dead_fraction must be in (0,1)");
  // Bucket kd builds fork per-subtree across the maintenance pool unless
  // the caller picked a dedicated build pool.
  if (options_.engine.build_pool == nullptr) {
    options_.engine.build_pool = options_.pool;
  }
  // Validate the shared engine options eagerly (Engine would only check
  // them at the first bucket build). mc_stream_ids is managed per bucket,
  // so it must be empty (one id per each of zero points).
  Engine::CheckOptions(options_.engine, 0);
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked();
}

DynamicEngine::DynamicEngine(const UncertainSet& initial, Options options)
    : DynamicEngine(FirstIds(initial.size()), initial, std::move(options)) {}

DynamicEngine::DynamicEngine(std::vector<Id> ids, const UncertainSet& points,
                             Options options)
    : DynamicEngine(std::move(options)) {
  PNN_CHECK_MSG(ids.size() == points.size(), "ids must parallel points");
  if (points.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  for (size_t i = 0; i < points.size(); ++i) {
    PNN_CHECK_MSG(ids[i] >= 0 && (i == 0 || ids[i] > ids[i - 1]),
                  "bulk ids must be nonnegative, ascending and unique");
    AddAggregatesLocked(points[i]);
  }
  PNN_CHECK_MSG(ids.back() < std::numeric_limits<Id>::max(), "id space exhausted");
  next_id_ = ids.back() + 1;
  auto bucket = std::make_shared<const Bucket>(std::move(ids), points, options_.engine);
  buckets_.push_back({bucket, nullptr, bucket->size()});
  PublishLocked();
}

DynamicEngine::DynamicEngine(std::vector<RecoveredBucket> recovered,
                             Id next_id_floor, Options options)
    : DynamicEngine(std::move(options)) {
  PNN_CHECK_MSG(next_id_floor >= 0, "next_id_floor must be nonnegative");
  std::unique_lock<std::mutex> lock(mu_);
  for (RecoveredBucket& rb : recovered) {
    PNN_CHECK_MSG(rb.bucket != nullptr, "recovered bucket must not be null");
    PNN_CHECK_MSG(rb.dead.empty() || rb.dead.size() == rb.bucket->size(),
                  "recovered dead mask must parallel the bucket");
    Snapshot::BucketRef ref;
    ref.live_count = rb.dead.empty() ? rb.bucket->size()
                                     : static_cast<size_t>(std::count(
                                           rb.dead.begin(), rb.dead.end(), 0));
    ref.bucket = std::move(rb.bucket);
    ref.dead = rb.dead.empty()
                   ? nullptr
                   : std::make_shared<const std::vector<char>>(std::move(rb.dead));
    buckets_.push_back(std::move(ref));
  }
  std::vector<LiveMember> live = GatherLive(buckets_);
  // The count maps are built from sorted runs: element-wise inserts
  // (AddAggregatesLocked) are the recovery bottleneck at scale, while
  // appending each distinct value at the end hint is linear after the sort.
  std::vector<double> wmins, wmaxs;
  std::vector<size_t> ks;
  ks.reserve(live.size());
  for (const LiveMember& m : live) {
    agg_.Add(*m.point);
    ks.push_back(RankedComplexity(*m.point));
    if (m.point->is_discrete()) {
      std::pair<double, double> range = WeightRange(*m.point);
      wmins.push_back(range.first);
      wmaxs.push_back(range.second);
    }
  }
  live_wmins_ = CountSorted(std::move(wmins));
  live_wmaxs_ = CountSorted(std::move(wmaxs));
  live_ks_ = CountSorted(std::move(ks));
  // An id is live in one place only; sorted, a duplicate is adjacent.
  PNN_CHECK_MSG(std::adjacent_find(live.begin(), live.end(),
                                   [](const LiveMember& a, const LiveMember& b) {
                                     return a.id == b.id;
                                   }) == live.end(),
                "recovered buckets hold a duplicate live id");
  if (!live.empty()) {
    PNN_CHECK_MSG(live.back().id < std::numeric_limits<Id>::max(), "id space exhausted");
    next_id_ = live.back().id + 1;
  }
  next_id_ = std::max(next_id_, next_id_floor);
  PublishLocked();
}

DynamicEngine::~DynamicEngine() { WaitForMaintenance(); }

void DynamicEngine::PublishTailLocked(Snapshot* s) const {
  s->tail_dead = tail_dead_count_ == 0
                     ? nullptr
                     : std::make_shared<const std::vector<char>>(tail_dead_mask_);
  auto record = std::make_shared<std::vector<TailEntry>>(tail_.size());
  util::ScratchVec<uint32_t> live_lease;
  std::vector<uint32_t>& live = *live_lease;  // Tail positions, ascending by id.
  live.clear();
  for (size_t i = 0; i < tail_.size(); ++i) {
    (*record)[i] = {tail_[i].id, nullptr};
    if (tail_dead_mask_[i] == 0) live.push_back(static_cast<uint32_t>(i));
  }
  s->tail = record;
  if (live.empty()) return;
  // A bucket's ids ascend; the tail's need not (InsertWithId).
  auto by_id = [&](uint32_t a, uint32_t b) { return tail_[a].id < tail_[b].id; };
  if (!std::is_sorted(live.begin(), live.end(), by_id)) {
    std::sort(live.begin(), live.end(), by_id);
  }
  Engine::Options options = options_.engine;
  options.mc_stream_ids.reserve(live.size());
  UncertainSet points;
  points.reserve(live.size());
  for (uint32_t i : live) {
    options.mc_stream_ids.push_back(static_cast<uint64_t>(tail_[i].id));
    points.push_back(tail_[i].point);
  }
  s->tail_bucket = std::make_shared<const Bucket>(std::make_shared<const Engine>(
      std::move(points), std::move(options), Engine::NoIndex{}));
  for (size_t j = 0; j < live.size(); ++j) {
    (*record)[live[j]].point = &s->tail_bucket->points()[j];
  }
}

void DynamicEngine::PublishLocked() {
  auto s = std::make_shared<Snapshot>();
  s->buckets = buckets_;
  if (tail_dirty_) {
    PublishTailLocked(s.get());
    tail_dirty_ = false;
  } else {
    // An update that left the tail alone (an erase from a bucket) shares
    // the last publish's tail bucket and record.
    std::shared_ptr<const Snapshot> last = snapshot();
    s->tail_bucket = last->tail_bucket;
    s->tail = last->tail;
    s->tail_dead = last->tail_dead;
  }
  static_cast<SetAggregates&>(*s) = agg_;
  auto view = std::make_shared<CombinedView>();
  view->parts.push_back(s);
  view->combined = UnionSnapshot(view->parts, options_.answer_cache);
  // The snapshot and its union answer the same queries: one cache.
  s->answers = view->combined->answers;
  view->options = options_.engine;
  view->pool = options_.pool;
  std::atomic_store_explicit(&view_, std::shared_ptr<const CombinedView>(std::move(view)),
                             std::memory_order_release);
}

void DynamicEngine::AddAggregatesLocked(const UncertainPoint& p) {
  agg_.Add(p);
  ++live_ks_[RankedComplexity(p)];
  if (p.is_discrete()) {
    std::pair<double, double> range = WeightRange(p);
    ++live_wmins_[range.first];
    ++live_wmaxs_[range.second];
  }
}

void DynamicEngine::RemoveAggregatesLocked(const UncertainPoint& p) {
  --agg_.live_count;
  --(p.is_discrete() ? agg_.discrete_count : agg_.continuous_count);
  agg_.total_complexity -= p.DescriptionComplexity();
  RemoveCount(&live_ks_, RankedComplexity(p));
  if (p.is_discrete()) {
    std::pair<double, double> range = WeightRange(p);
    RemoveCount(&live_wmins_, range.first);
    RemoveCount(&live_wmaxs_, range.second);
  }
  // The extremes, re-read under SetAggregates' seeds (max_k 1, wmin <= 1,
  // wmax 0).
  agg_.max_k = live_ks_.empty() ? 1 : live_ks_.rbegin()->first;
  agg_.wmin = live_wmins_.empty() ? 1.0 : std::min(1.0, live_wmins_.begin()->first);
  agg_.wmax = live_wmaxs_.empty() ? 0.0 : live_wmaxs_.rbegin()->first;
}

Id DynamicEngine::Insert(UncertainPoint point) {
  std::unique_lock<std::mutex> lock(mu_);
  PNN_CHECK_MSG(next_id_ < std::numeric_limits<Id>::max(), "id space exhausted");
  Id id = next_id_++;
  InsertEntryLocked(id, std::move(point));
  PublishLocked();
  MaybeStartMaintenanceLocked(lock);
  return id;
}

void DynamicEngine::InsertWithId(Id id, UncertainPoint point) {
  std::unique_lock<std::mutex> lock(mu_);
  PNN_CHECK_MSG(id >= 0, "ids must be nonnegative");
  PNN_CHECK_MSG(id < std::numeric_limits<Id>::max(), "id space exhausted");
  size_t part, index;
  PNN_CHECK_MSG(!FindLiveLocked(id, &part, &index), "InsertWithId id is already live");
  // A tombstoned copy of this id may still sit in a bucket or the tail
  // (shard migration round trip); deadness is positional, so appending a
  // fresh live entry alongside it is exact.
  if (id >= next_id_) next_id_ = id + 1;
  InsertEntryLocked(id, std::move(point));
  PublishLocked();
  MaybeStartMaintenanceLocked(lock);
}

void DynamicEngine::InsertEntryLocked(Id id, UncertainPoint point) {
  AddAggregatesLocked(point);
  tail_.push_back({id, std::move(point)});
  tail_dead_mask_.push_back(0);
  tail_dirty_ = true;
}

bool DynamicEngine::FindLiveLocked(Id id, size_t* part, size_t* index) const {
  // Dead-masked copies of the same id may linger in buckets and the tail
  // after a shard migration round trip; only the unmasked one is live.
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const Snapshot::BucketRef& bref = buckets_[b];
    int local = bref.live_count == 0 ? -1 : bref.bucket->LocalIndex(id);
    if (local < 0 || (bref.dead && (*bref.dead)[local])) continue;
    *part = b;
    *index = static_cast<size_t>(local);
    return true;
  }
  for (size_t i = 0; i < tail_.size(); ++i) {
    if (tail_[i].id == id && tail_dead_mask_[i] == 0) {
      *part = buckets_.size();
      *index = i;
      return true;
    }
  }
  return false;
}

bool DynamicEngine::IsLive(Id id) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t part, index;
  return FindLiveLocked(id, &part, &index);
}

bool DynamicEngine::Erase(Id id) {
  std::unique_lock<std::mutex> lock(mu_);
  size_t part, index;
  if (!FindLiveLocked(id, &part, &index)) return false;
  if (part < buckets_.size()) {
    Snapshot::BucketRef& bref = buckets_[part];
    RemoveAggregatesLocked(bref.bucket->points()[index]);
    auto mask = bref.dead ? std::make_shared<std::vector<char>>(*bref.dead)
                          : std::make_shared<std::vector<char>>(bref.bucket->size(), 0);
    (*mask)[index] = 1;
    bref.dead = std::move(mask);
    --bref.live_count;
  } else {
    RemoveAggregatesLocked(tail_[index].point);
    tail_dead_mask_[index] = 1;
    ++tail_dead_count_;
    tail_dirty_ = true;
  }
  if (building_) erased_during_build_.push_back(id);

  PublishLocked();
  MaybeStartMaintenanceLocked(lock);
  return true;
}

bool DynamicEngine::CompactionDueLocked() const {
  size_t total = tail_.size();
  size_t dead = tail_dead_count_;
  for (const auto& bref : buckets_) {
    total += bref.bucket->size();
    dead += bref.bucket->size() - bref.live_count;
  }
  return dead >= 8 && static_cast<double>(dead) >
                          options_.max_dead_fraction * static_cast<double>(total);
}

bool DynamicEngine::MaintenanceNeededLocked() const {
  return CompactionDueLocked() || tail_.size() - tail_dead_count_ >= options_.tail_limit;
}

void DynamicEngine::MaybeStartMaintenanceLocked(std::unique_lock<std::mutex>& lock) {
  if (maintenance_running_ || !MaintenanceNeededLocked()) return;
  maintenance_running_ = true;
  if (options_.pool != nullptr) {
    options_.pool->Submit([this] { MaintenanceLoop(); });
  } else {
    lock.unlock();
    MaintenanceLoop();
  }
}

DynamicEngine::MaintenancePlan DynamicEngine::DecidePlanLocked() {
  MaintenancePlan plan;
  if (!MaintenanceNeededLocked()) return plan;
  // The frozen tail always goes in. A compaction absorbs every bucket; a
  // tail merge absorbs, by the Bentley–Saxe doubling rule, every bucket no
  // larger than the accumulated merge, so an absorbed bucket at least
  // doubles and each point is rebuilt O(log n) times.
  std::vector<char> take(buckets_.size(), CompactionDueLocked() ? 1 : 0);
  size_t merged = tail_.size() - tail_dead_count_;
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (!take[i] && buckets_[i].live_count <= merged) {
        take[i] = 1;
        merged += buckets_[i].live_count;
        changed = true;
      }
    }
  }
  std::vector<Snapshot::BucketRef> absorbed;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (!take[i]) continue;
    plan.absorbed.push_back(i);
    absorbed.push_back(buckets_[i]);
  }
  // Sorted by id: the new bucket's ids must ascend. The live tail is the
  // published tail bucket (every update publishes under this lock).
  std::shared_ptr<const Snapshot> snap = snapshot();
  std::vector<LiveMember> members = GatherLive(absorbed, snap->tail_bucket.get());
  plan.any = true;
  plan.frozen_tail = tail_.size();
  plan.ids.reserve(members.size());
  plan.points.reserve(members.size());
  for (const LiveMember& m : members) {
    plan.ids.push_back(m.id);
    plan.points.push_back(*m.point);
  }
  building_ = true;
  erased_during_build_.clear();
  return plan;
}

void DynamicEngine::SpliceLocked(const MaintenancePlan& plan,
                                 std::shared_ptr<const Bucket> built) {
  for (auto it = plan.absorbed.rbegin(); it != plan.absorbed.rend(); ++it) {
    buckets_.erase(buckets_.begin() + static_cast<long>(*it));
  }
  tail_.erase(tail_.begin(), tail_.begin() + static_cast<long>(plan.frozen_tail));
  // Tombstones of frozen tail entries are either folded into the new
  // bucket's mask (erased during the build) or gone with their points; the
  // mask is positional, so dropping the consumed prefix is all it takes.
  tail_dead_mask_.erase(tail_dead_mask_.begin(),
                        tail_dead_mask_.begin() + static_cast<long>(plan.frozen_tail));
  tail_dead_count_ = 0;
  for (char d : tail_dead_mask_) tail_dead_count_ += d != 0;
  tail_dirty_ = true;
  if (built != nullptr) {
    Snapshot::BucketRef ref{built, nullptr, built->size()};
    std::shared_ptr<std::vector<char>> mask;
    for (Id id : erased_during_build_) {
      int local = built->LocalIndex(id);
      if (local < 0) continue;
      if (!mask) mask = std::make_shared<std::vector<char>>(built->size(), 0);
      if (!(*mask)[local]) {
        (*mask)[local] = 1;
        --ref.live_count;
      }
    }
    ref.dead = mask;
    buckets_.push_back(std::move(ref));
  }
  building_ = false;
  erased_during_build_.clear();
  PublishLocked();
}

void DynamicEngine::MaintenanceLoop() {
  for (;;) {
    MaintenancePlan plan;
    {
      std::lock_guard<std::mutex> lock(mu_);
      plan = DecidePlanLocked();
      if (!plan.any) {
        maintenance_running_ = false;
        cv_.notify_all();
        return;
      }
    }
    // Build outside the lock: updates and queries proceed against the old
    // snapshot; erases landing meanwhile are logged and folded in at the
    // splice. The gathered points move into the new engine as its own
    // storage, so the transient is not a second copy of the live set.
    std::shared_ptr<const Bucket> built;
    if (!plan.ids.empty()) {
      built = std::make_shared<const Bucket>(plan.ids, std::move(plan.points),
                                             options_.engine);
      if (options_.prewarm_after_build) {
        // Warm the new bucket before it is published, so the first query
        // against it never pays the lazy Monte-Carlo construction. A merge
        // preserves the live set, so the pre-splice aggregates give the
        // same plan and round count the post-splice snapshot will.
        std::shared_ptr<const Snapshot> snap = snapshot();
        double eps = options_.engine.default_eps;
        if (snap->live_count > 0 &&
            PlanForSnapshot(*snap, options_.engine, eps) == QuantifyPlan::kMonteCarlo) {
          built->engine().EnsureRounds(McRoundsForSnapshot(*snap, options_.engine, eps));
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      SpliceLocked(plan, std::move(built));
    }
    // The splice published a fresh tail bucket: warm it too, so the whole
    // post-build query path is construction-free.
    if (options_.prewarm_after_build) View()->Prewarm();
  }
}

void DynamicEngine::WaitForMaintenance() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !maintenance_running_; });
}

QuantifyPlan PlanForSnapshot(const Snapshot& snap, const Engine::Options& options,
                             double eps) {
  return PlanQuantify(snap, options, eps);
}

size_t McRoundsForSnapshot(const Snapshot& snap, const Engine::Options& options,
                           double eps) {
  return MonteCarloPNN::Rounds(snap.live_count, snap.max_k, eps, options.mc_delta,
                               options.mc_rounds_override);
}

size_t DynamicEngine::live_size() const { return snapshot()->live_count; }

size_t DynamicEngine::num_buckets() const { return snapshot()->buckets.size(); }

namespace {
size_t CountDead(const std::shared_ptr<const std::vector<char>>& mask) {
  size_t dead = 0;
  if (mask != nullptr) {
    for (char d : *mask) dead += d != 0;
  }
  return dead;
}
}  // namespace

size_t DynamicEngine::tail_size() const {
  auto snap = snapshot();
  return snap->tail->size() - CountDead(snap->tail_dead);
}

size_t DynamicEngine::dead_size() const {
  auto snap = snapshot();
  size_t dead = CountDead(snap->tail_dead);
  for (const auto& bref : snap->buckets) {
    dead += bref.bucket->size() - bref.live_count;
  }
  return dead;
}

UncertainSet DynamicEngine::LiveSet(std::vector<Id>* ids) const {
  return SnapshotLiveSet(*snapshot(), ids);
}

Engine::Options DynamicEngine::ReferenceEngineOptions() const {
  return SnapshotReferenceOptions(*snapshot(), options_.engine);
}

}  // namespace dyn
}  // namespace pnn
