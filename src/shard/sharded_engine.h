// pnn::shard — the multi-shard router over dyn::DynamicEngine: one
// Insert/Erase surface plus one query view (View(): NonzeroNN, Quantify,
// QuantifyExact, ThresholdNN, MostLikelyNN) over N shards, each an
// independent DynamicEngine owning a disjoint slice of the live set.
//
// Placement is pluggable (hash-by-id or a kd-median spatial partition of
// point centroids); either way the router's id->shard map stays
// authoritative, so erases and background rebalance moves never depend on
// the placement being invertible.
//
// Equivalence contract: ids are assigned globally (sequential from 0) and
// passed through to the shards (dyn::DynamicEngine::InsertWithId), so the
// union of the shards' snapshots is just a bigger buckets+tail partition
// of the same live set a single DynamicEngine would hold. Every query
// answers through the same pipeline a single DynamicEngine's view runs
// (dyn::CombinedView, dyn/view_query.h), over a view with one part per
// shard: NonzeroNN min-reduces the per-shard Lemma 2.1 bounds and reports
// per shard against the global bound (both stages fanned out on the
// exec::ThreadPool), and the quantifications recombine the union snapshot
// through the exact per-part primitives of dyn/merge.h. The plan rule and
// Monte-Carlo round count are evaluated over the UNION's aggregates, so
// answers bit-match a single DynamicEngine — and hence a fresh static
// Engine — over the live set, regardless of shard count, placement, or
// rebalance history.
//
// Consistency: queries never lock and never block on updates. A query
// gathers the N shard snapshots under a seqlock epoch: plain updates touch
// one shard (any interleaving is a valid set), while a rebalance move —
// the only multi-shard mutation, erase from one shard + reinsert into
// another — bumps the epoch around each moved point, so a query retries
// the (cheap, N atomic loads) gather instead of ever observing a point
// twice or not at all. Updates serialize on the router mutex; during a
// background rebalance they stall at most one point-move at a time.
//
// The gather + union rebuild is cached (see CombinedView): a query first
// validates the published view against the shards' current snapshot
// pointers under the epoch, so bursts against an unchanged live set pay
// the recombination setup once and the steady-state query path allocates
// nothing (tests/alloc_hotpath_test.cc).

#ifndef PNN_SHARD_SHARDED_ENGINE_H_
#define PNN_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/dyn/dynamic_engine.h"
#include "src/exec/thread_pool.h"
#include "src/shard/placement.h"

namespace pnn {
namespace shard {

using dyn::Id;

enum class PlacementKind {
  kHashById,        // Stateless splitmix hash of the global id.
  kSpatialKdMedian  // Kd decision tree over point centroids.
};

/// Write-ahead hook for durable stores (store::ShardedStore): the router
/// invokes OnInsert/OnErase/OnMove BEFORE applying the mutation to any
/// shard engine — the listener persists the op, and only then does the
/// state change — and OnApplied(shard) after the apply, where the listener
/// may rotate that shard's log against its fresh snapshot. All four run
/// under the router's update mutex, so for a given shard the persisted op
/// order equals the applied order, with no rotation interleaving between
/// an op's append and its apply. A move invokes OnMove once (destination
/// first is the listener's concern), then OnApplied for both shards.
///
/// The On* hooks return false to VETO the mutation: the listener could not
/// persist it (a degraded store refusing the ack), so the router must not
/// apply it either. A vetoed Insert returns -1 without consuming the id, a
/// vetoed Erase leaves the point live and returns false, and a vetoed move
/// skips that point and ends the rebalance pass. OnApplied has no veto —
/// the mutation is already durable and applied by then.
class UpdateListener {
 public:
  virtual ~UpdateListener() = default;
  virtual bool OnInsert(uint32_t shard, Id id, const UncertainPoint& point) = 0;
  virtual bool OnErase(uint32_t shard, Id id) = 0;
  virtual bool OnMove(uint32_t src, uint32_t dst, Id id,
                      const UncertainPoint& point) = 0;
  virtual void OnApplied(uint32_t shard) = 0;
};

struct Options {
  /// Number of DynamicEngine shards; >= 1.
  uint32_t num_shards = 4;
  PlacementKind placement = PlacementKind::kHashById;
  /// Per-shard dynamic-engine configuration. Shared by every shard (the
  /// engine seed in particular must coincide for cross-shard Monte-Carlo
  /// recombination); its pool must be null — set `pool` below instead.
  dyn::Options shard;
  /// When set: per-shard maintenance runs here, NonzeroNN fans out across
  /// shards, Monte-Carlo sample draws fan out, structure builds fork
  /// per-subtree, and auto_rebalance may schedule background moves. Must
  /// outlive the engine. When null, everything runs inline on the calling
  /// thread. Query fan-out shares the pool with maintenance and rebalance
  /// jobs; each shard's maintenance runs as sliced steps on its own
  /// dedicated lane (see exec::Lane), so one shard's compaction occupies
  /// at most one worker between parallel sections and cannot starve
  /// another shard's merges; work stealing plus caller participation
  /// keeps queries progressing alongside (a single-worker pool skips
  /// query fan-out entirely).
  exec::ThreadPool* pool = nullptr;

  // Rebalance policy:
  /// A shard is overfull when its live count exceeds this factor times the
  /// ideal (total / num_shards); > 1.
  double rebalance_max_imbalance = 2.0;
  /// Below this total live count rebalance never triggers.
  size_t rebalance_min_points = 128;
  /// Schedule background rebalance passes on `pool` after updates.
  bool auto_rebalance = false;
  /// When set, every mutation is announced to this listener before it
  /// applies (the durable store's write-ahead hook; see UpdateListener).
  /// Must outlive the engine.
  UpdateListener* listener = nullptr;
};

struct RebalanceStats {
  size_t passes = 0;         // Completed rebalance passes (>= 1 move each).
  size_t points_moved = 0;   // Total erase+reinsert migrations.
};

/// The cross-shard query view: the per-shard snapshots gathered under a
/// seqlock epoch plus their combined union snapshot, with the router's
/// engine options and pool (the struct is dyn::CombinedView, which the
/// single engine publishes with one part).
/// Published through the engine's snapshot cache, so query bursts against
/// an unchanged live set share one view; any shard publish (insert, erase,
/// background merge/compaction, rebalance move) makes the next View() call
/// rebuild it.
using CombinedView = dyn::CombinedView;

/// Hit/miss counters of the combined-snapshot cache (process-lifetime,
/// monotone; hit rate = hits / (hits + misses)).
struct SnapshotCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// Thread safety: View() and the view's queries are const, lock-free
/// (seqlock-retry on rebalance moves only) and may run concurrently with
/// updates, maintenance and rebalance. Updates serialize on an internal
/// mutex.
class ShardedEngine {
 public:
  explicit ShardedEngine(Options options = Options());
  /// Bulk load: ids 0..n-1, routed by placement (the spatial router builds
  /// its kd-median partition from `initial` first), one bucket per shard.
  explicit ShardedEngine(const UncertainSet& initial, Options options = Options());
  /// Recovery bootstrap (store::ShardedStore): shard s adopts
  /// `recovered[s]`'s segment-loaded buckets and masks instead of building
  /// from points (recovered.size() must equal num_shards). The id->shard
  /// map is NOT populated yet — the caller replays its per-shard logs
  /// through RecoverInsert/RecoverErase and then seals the engine with
  /// FinishRecovery; no other method may run before that, and recovery is
  /// single-threaded.
  ShardedEngine(std::vector<std::vector<dyn::RecoveredBucket>> recovered,
                Options options);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Adds a point; returns its global id (sequential from 0), or -1 when
  /// the write-ahead listener vetoed the mutation (its durable store is
  /// degraded) — the id is not consumed and nothing changed.
  Id Insert(UncertainPoint point);

  /// Removes a point; false if the id is unknown or already erased, or if
  /// the write-ahead listener vetoed the erase (the listener's owner can
  /// tell the two apart — store::ShardedStore does).
  bool Erase(Id id);

  // Recovery replay surface (between the recovery constructor and
  // FinishRecovery only; bypasses placement, the listener and the
  // id->shard map — the log already fixed all three):
  /// Replays an insert into shard `shard`; false (skipped) if the id is
  /// already live there — idempotent against duplicated log records.
  bool RecoverInsert(uint32_t shard, Id id, UncertainPoint point);
  /// Replays an erase; false if the id is not live on that shard.
  bool RecoverErase(uint32_t shard, Id id);
  /// Picks the shard that loses an id recovered live on two shards `a`
  /// and `b` (a mid-move crash); returns `a` or `b`.
  using DuplicateResolver = std::function<uint32_t(Id id, uint32_t a, uint32_t b)>;
  /// Seals recovery in one pass over the shards' live ids: builds the
  /// id->shard map, hands every id live on two shards to `resolve` and
  /// erases it from the loser, sets the id counter to
  /// max(next_id_floor, max live id + 1) and returns it, and — for
  /// spatial placement — rebuilds the router's partition from the
  /// recovered live set (a heuristic reseed: past SplitShard refinements
  /// are not persisted; the map stays authoritative, so only future
  /// insert locality is affected).
  Id FinishRecovery(Id next_id_floor, const DuplicateResolver& resolve);

  /// Shard `s`'s current snapshot (the durable store checkpoints against
  /// it inside UpdateListener::OnApplied).
  std::shared_ptr<const dyn::Snapshot> ShardSnapshot(uint32_t s) const {
    return shards_[s]->snapshot();
  }

  /// The current combined view, the router's query surface
  /// (View()->Quantify(q)). Cache hit: a handful of atomic loads and
  /// pointer compares, no allocation; miss: one seqlock gather plus the
  /// union rebuild, published for subsequent queries. The batch executor
  /// threads one view through a whole batch.
  std::shared_ptr<const CombinedView> View() const;

  /// View()->Prewarm(eps): builds every per-bucket structure Quantify(·,
  /// eps) may need across all shards. Kept as a forward because the
  /// benchmark suite (bench_suite/bench_suite.cc) calls it.
  void Prewarm(std::optional<double> eps = std::nullopt) const;

  /// True when the most loaded shard exceeds the imbalance threshold.
  bool RebalanceNeeded() const;

  /// Runs rebalance passes inline until balanced (no-op when balanced or
  /// below rebalance_min_points). Safe to call concurrently with queries;
  /// note that with a null pool a move whose reinsert crosses the target
  /// shard's tail limit runs that shard's merge inline INSIDE the epoch
  /// window, so concurrent queries spin for the build's duration — give
  /// the engine a pool when serving queries from other threads (merges
  /// then run as background jobs and every epoch window stays tiny).
  void RebalanceNow();

  /// Blocks until no background rebalance pass or per-shard merge /
  /// compaction is running or pending.
  void WaitForMaintenance() const;

  size_t live_size() const;
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  std::vector<size_t> ShardLiveSizes() const;
  RebalanceStats rebalance_stats() const;
  SnapshotCacheStats snapshot_cache_stats() const;
  const Options& options() const { return options_; }

  /// The live union of the current View() in ascending-id order (with the
  /// ids when non-null) — the input a reference engine is built on
  /// (dyn::SnapshotLiveSet).
  UncertainSet LiveSet(std::vector<Id>* ids = nullptr) const;

  /// Options for a static Engine over LiveSet() answering bit-identically
  /// to this router: engine options + mc_stream_ids = the live ids of the
  /// current View() (dyn::SnapshotReferenceOptions).
  Engine::Options ReferenceEngineOptions() const;

 private:
  /// One seqlock-consistent gather of the shard snapshots: every live id
  /// appears in exactly one snapshot.
  std::vector<std::shared_ptr<const dyn::Snapshot>> Grab() const;

  uint32_t PlaceLocked(Id id, const UncertainPoint& point) const;
  bool RebalanceOnceLocked(std::unique_lock<std::mutex>* lock);
  bool RebalanceNeededLocked(uint32_t* src, uint32_t* dst, size_t* total) const;
  void MaybeScheduleRebalanceLocked();
  void RebalanceLoop();

  Options options_;
  /// One maintenance lane per shard (pool mode only). Declared before
  /// shards_ so it outlives them during destruction: a shard's destructor
  /// waits out maintenance steps that hop through its lane.
  std::vector<std::unique_ptr<exec::Lane>> lanes_;
  std::vector<std::unique_ptr<dyn::DynamicEngine>> shards_;

  mutable std::mutex mu_;  // Serializes updates, placement and rebalance.
  mutable std::condition_variable cv_;
  /// Seqlock epoch: odd while a rebalance move is mid-flight across two
  /// shards; queries retry their snapshot gather on any change.
  mutable std::atomic<uint64_t> epoch_{0};
  /// Combined-snapshot cache (atomic shared_ptr): valid exactly while
  /// every shard's current snapshot pointer equals the cached part (the
  /// cache holds the parts alive, so pointer equality cannot alias a
  /// recycled address). Any shard publish therefore invalidates it.
  mutable std::shared_ptr<const CombinedView> view_cache_;
  mutable std::atomic<uint64_t> view_hits_{0};
  mutable std::atomic<uint64_t> view_misses_{0};

  // Guarded by mu_:
  Id next_id_ = 0;
  std::unordered_map<Id, uint32_t> shard_of_;
  std::unique_ptr<SpatialRouter> spatial_;  // kSpatialKdMedian only.
  bool rebalance_running_ = false;
  RebalanceStats rebalance_stats_;
};

}  // namespace shard
}  // namespace pnn

#endif  // PNN_SHARD_SHARDED_ENGINE_H_
