// pnn::dyn — dynamic uncertain-point engine: Insert/Erase, plus the full
// pnn::Engine query surface on the view it publishes (View()->Quantify(q)),
// with answers identical to a freshly built static Engine over the current
// live set.
//
// Structure (Bentley–Saxe logarithmic method): points live in O(log n)
// geometrically sized immutable buckets, each backed by a static
// pnn::Engine, plus a small mutable tail answered by brute force. Inserts
// append to the tail; once it exceeds `tail_limit` a merge folds it —
// together with every bucket no larger than the accumulated merge — into a
// new bucket, so a point's bucket at least doubles each time it is rebuilt
// (O(log n) rebuilds per point, O(polylog n) amortized insert). Erases are
// tombstones (per-bucket masks / a tail set); once the dead fraction
// exceeds `max_dead_fraction` a compaction rebuilds the structure from the
// live set. Merges and compactions can run as background jobs on an
// exec::ThreadPool; structure versions are published with the atomic
// shared_ptr snapshot pattern of Engine::EnsureRounds, so queries never
// block on a rebuild.
//
// Equivalence contract: every query decomposes exactly across the
// partition into buckets + tail —
//   * NonzeroNN: Delta(q) = min over parts, then per-part threshold
//     reporting (Lemma 2.1 is a pure min/filter, so the partition is
//     invisible);
//   * spiral Quantify: per-bucket best-first location streams are k-way
//     merged into the global distance order and fed through the same
//     tie-grouped sweep (QuantifyPrefixSweep) a monolithic structure runs;
//   * Monte-Carlo Quantify: samples are keyed by (seed, round, point id)
//     (each bucket engine's mc_stream_ids), so the candidates every part
//     reports against the global NN!=0 bound carry exactly the static
//     engine's sample rows, and one evaluator takes each round's argmin
//     over them, exact ties going to the lowest id;
//   * QuantifyExact (discrete): per-part survival profiles multiply by the
//     paper's independence structure (SurvivalProfile in core/prob).
// Consequently answers match a fresh Engine(LiveSet(),
// ReferenceEngineOptions()) — bit-identically for NonzeroNN/Quantify/
// ThresholdNN — regardless of the update history, the merge schedule, or
// the thread count. The decompositions live in merge.h; the per-query
// pipeline over them (eps, answer cache, plan rule) is CombinedView's
// methods (view_query.h), the one query surface of this engine, the shard
// router and the static Engine's api::EngineRef alike.

#ifndef PNN_DYN_DYNAMIC_ENGINE_H_
#define PNN_DYN_DYNAMIC_ENGINE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "src/core/pnn.h"
#include "src/dyn/bucket.h"
#include "src/dyn/view_query.h"
#include "src/exec/thread_pool.h"

namespace pnn {
namespace dyn {

struct Options {
  /// Shared by every bucket's static engine: seed, eps defaults and the
  /// spiral-vs-Monte-Carlo plan rule. mc_stream_ids must stay empty: each
  /// bucket engine samples under its bucket's ids.
  Engine::Options engine;
  /// Live tail entries that trigger a bucket merge.
  size_t tail_limit = 64;
  /// Tombstone fraction of the structure that triggers a compaction.
  double max_dead_fraction = 0.25;
  /// When set, merges/compactions run as background jobs here and
  /// Monte-Carlo sample draws fan out across it. When null, maintenance
  /// runs inline in the update that triggered it. Unless
  /// engine.build_pool is set explicitly, it defaults to this pool, so
  /// bucket kd builds fork per-subtree across the same workers.
  exec::ThreadPool* pool = nullptr;
  /// Serial lane for this engine's maintenance steps (requires `pool`;
  /// the lane must be built over it and outlive the engine). With a lane,
  /// a merge/compaction runs as a chain of bounded steps that hop through
  /// the lane — so one engine's long build occupies at most one worker at
  /// a time between its parallel sections, and several engines sharing a
  /// pool (the shard router) interleave their maintenance instead of one
  /// compaction starving the others' merges. Null = chain directly
  /// through the pool.
  exec::Lane* maintenance_lane = nullptr;
  /// Points per sliced-build step: a maintenance build gathers the live
  /// set once, then constructs the replacement bucket in units of ~this
  /// many points (per-subtree kd construction inside each unit), yielding
  /// between units. Bounds the transient build memory to the gathered
  /// live set plus one unit and keeps concurrent pool work flowing. 0 =
  /// monolithic single-pass build. The published structure is identical
  /// either way.
  size_t build_chunk = 8192;
  /// Prewarm as part of maintenance: when the Monte-Carlo plan is active
  /// at default_eps, a merge/compaction draws the new bucket's sample block
  /// before publishing it (and the published snapshot's tail samples right
  /// after), so the first query after a bucket build doesn't pay the lazy
  /// construction inside its latency. The block is drawn in steps of about
  /// build_chunk samples, like the bucket build itself.
  bool prewarm_after_build = false;
  /// Attach an AnswerCache to every published snapshot: repeated queries
  /// against the same snapshot return the memoized answer instead of
  /// re-evaluating (invalidation is the publish itself — see
  /// answer_cache.h). Answers are identical either way; off exists for
  /// benchmarking the uncached path.
  bool answer_cache = true;
};

/// One recovered bucket for the recovery constructor: the adopted bucket
/// (rebuilt from a mapped segment by store::LoadSegment) plus the
/// tombstone mask its store's log prescribed. An empty mask means fully
/// alive.
struct RecoveredBucket {
  std::shared_ptr<const Bucket> bucket;
  std::vector<char> dead;
};

/// Read-only enumeration of a snapshot's frozen state — what the durable
/// store serializes. Views borrow from the snapshot they were taken over;
/// the caller keeps that snapshot alive while using them. This is the
/// supported checkpointing surface: the serializer consumes exactly these
/// spans instead of poking at engine internals.
struct SnapshotIntrospection {
  struct BucketView {
    const Bucket* bucket = nullptr;       // id() / points() / engine().
    const std::vector<char>* dead = nullptr;  // Null when fully alive.
    size_t live_count = 0;
  };
  std::vector<BucketView> buckets;
  const std::vector<TailEntry>* tail = nullptr;   // Insertion order.
  const std::vector<char>* tail_dead = nullptr;   // Null when fully alive.
  size_t live_count = 0;                          // Buckets + tail, live only.
};

/// Introspects one snapshot (grab it with DynamicEngine::snapshot()).
SnapshotIntrospection Introspect(const Snapshot& snap);

/// Thread safety: View() and the view's query methods are const and may
/// run concurrently with each other, with updates, and with background
/// maintenance. Updates (Insert/Erase) serialize on an internal mutex and
/// are safe to call from one or many threads.
class DynamicEngine {
 public:
  explicit DynamicEngine(Options options = Options());
  /// Bulk load: the initial points become one bucket with ids 0..n-1.
  explicit DynamicEngine(const UncertainSet& initial, Options options = Options());
  /// Bulk load under caller-chosen ids (ascending, unique, parallel to
  /// `points`): the shard router's per-shard bootstrap. Subsequent
  /// Insert() ids continue after the largest initial id.
  DynamicEngine(std::vector<Id> ids, const UncertainSet& points,
                Options options = Options());
  /// Recovery: adopts already-built buckets with their tombstone masks
  /// (the durable store's segment + mask replay), instead of rebuilding
  /// from points. Live ids across the buckets must be unique; next_id
  /// continues from max(next_id_floor, largest recovered id + 1). The log
  /// tail's op records are then replayed through the normal
  /// InsertWithId/Erase path on top.
  DynamicEngine(std::vector<RecoveredBucket> recovered, Id next_id_floor,
                Options options = Options());
  ~DynamicEngine();

  DynamicEngine(const DynamicEngine&) = delete;
  DynamicEngine& operator=(const DynamicEngine&) = delete;

  /// Adds a point; returns its stable id (sequential from 0).
  Id Insert(UncertainPoint point);

  /// Adds a point under a caller-chosen id (must be >= 0 and not currently
  /// live). The shard router uses this to keep ids global across shards —
  /// both for new points and for points migrated between shards, whose old
  /// engine may still hold a tombstoned copy of the same id. Sample streams
  /// are keyed by id, so a migrated point keeps its Monte-Carlo identity.
  void InsertWithId(Id id, UncertainPoint point);

  /// Removes a point; false if the id is unknown or already erased.
  bool Erase(Id id);

  /// True while `id` is live: a binary search per bucket plus a tail scan
  /// under the writer lock. The store's log replay uses this to make
  /// duplicated records idempotent (a replayed insert of a live id / erase
  /// of a dead one is skipped, not an abort).
  bool IsLive(Id id) const;

  size_t live_size() const;
  size_t num_buckets() const;
  size_t tail_size() const;  // Live tail entries.
  size_t dead_size() const;  // Tombstones not yet compacted away.
  const Options& options() const { return options_; }

  /// The live set of the current snapshot in ascending-id order,
  /// optionally with the ids — the input a reference static Engine is
  /// built over (dyn::SnapshotLiveSet).
  UncertainSet LiveSet(std::vector<Id>* ids = nullptr) const;

  /// Options for a static Engine over LiveSet() that answers
  /// bit-identically to this engine: the shared engine options plus
  /// mc_stream_ids = the live ids of the current snapshot, so Monte-Carlo
  /// samples coincide (dyn::SnapshotReferenceOptions).
  Engine::Options ReferenceEngineOptions() const;

  /// Blocks until no background merge/compaction is running or pending.
  void WaitForMaintenance() const;

  /// The current one-part query view (parts = {snapshot()}, combined =
  /// snapshot()), published together with each snapshot: one lock-free
  /// acquire load, no allocation. Holding it pins the structure version.
  /// Every query goes through it: engine.View()->Quantify(q).
  std::shared_ptr<const CombinedView> View() const {
    return std::atomic_load_explicit(&view_, std::memory_order_acquire);
  }

  /// The current immutable structure version. The shard router
  /// concatenates these across shards into its own CombinedView.
  std::shared_ptr<const Snapshot> snapshot() const { return View()->combined; }

 private:
  struct MaintenancePlan;
  struct BuildJob;

  void PublishLocked();
  void InsertEntryLocked(Id id, UncertainPoint point);
  void AddAggregatesLocked(const UncertainPoint& p);
  void RemoveAggregatesLocked(const UncertainPoint& p);
  /// Where the live copy of `id` sits: `part` is its bucket's index, or
  /// buckets_.size() for the tail, and `index` its position there. False
  /// when `id` is not live.
  bool FindLiveLocked(Id id, size_t* part, size_t* index) const;
  bool CompactionDueLocked() const;
  bool MaintenanceNeededLocked() const;
  /// May release `lock` (inline maintenance mode); callers must not touch
  /// guarded state afterwards.
  void MaybeStartMaintenanceLocked(std::unique_lock<std::mutex>& lock);
  MaintenancePlan DecidePlanLocked();
  void SpliceLocked(const MaintenancePlan& plan,
                    std::shared_ptr<const Bucket> built);
  /// One bounded unit of maintenance (plan decision, a build slice, a
  /// prewarm batch, or the splice). Returns false once maintenance is
  /// finished (and maintenance_running_ has been cleared).
  bool MaintenanceStep();
  /// Inline driver: steps back-to-back on the calling thread.
  void MaintenanceLoop();
  /// Background driver: runs one step, then re-submits itself through the
  /// lane (or pool) — the cooperative yield between slices.
  void MaintenanceChain();
  void ScheduleMaintenanceHop();

  Options options_;

  mutable std::mutex mu_;  // Serializes updates and maintenance swaps.
  mutable std::condition_variable cv_;
  // Accessed with std::atomic_load/atomic_store; queries are lock-free.
  std::shared_ptr<const CombinedView> view_;

  // Writer state (guarded by mu_). buckets_ and tail_ are the live set's
  // only copy: an id is live where FindLiveLocked finds it, and a
  // maintenance build gathers its members from them (sorted by id there,
  // since tail ids need not ascend once InsertWithId re-adds old ids).
  // agg_ is the live set's aggregates; the multisets keep its extremes
  // exact under erase.
  SetAggregates agg_;
  std::multiset<double> live_weights_;
  std::multiset<size_t> live_ks_;  // max(k, 1) per live point.
  Id next_id_ = 0;
  std::vector<Snapshot::BucketRef> buckets_;
  std::vector<TailEntry> tail_;
  std::vector<char> tail_dead_mask_;  // Parallel to tail_.
  size_t tail_dead_count_ = 0;
  bool maintenance_running_ = false;
  bool building_ = false;
  std::vector<Id> erased_during_build_;

  // Owned by the maintenance driver (a single logical thread: the inline
  // loop, or the chained lane/pool hops, which never overlap); not
  // guarded by mu_.
  std::unique_ptr<BuildJob> job_;
};

/// The spiral-vs-Monte-Carlo routing rule (pnn::PlanQuantify) over a
/// snapshot's aggregates — exactly what a fresh static Engine over the
/// same live set decides.
/// The query pipeline (view_query.h) applies it to a view's union
/// snapshot; maintenance applies it before prewarming a new bucket.
QuantifyPlan PlanForSnapshot(const Snapshot& snap, const Engine::Options& options,
                             double eps);

/// Monte-Carlo rounds the plan above needs at this eps
/// (MonteCarloPNN::Rounds over the snapshot's live aggregates).
size_t McRoundsForSnapshot(const Snapshot& snap, const Engine::Options& options,
                           double eps);

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_DYNAMIC_ENGINE_H_
