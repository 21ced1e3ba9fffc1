// pnn::dyn's immutable query views and the one query pipeline of every
// backend. A Snapshot is one frozen partition of a live set into buckets;
// a CombinedView is the snapshots a query reads plus their union
// (UnionSnapshot, where a dynamic engine's live tail is one more bucket),
// with the options and pool of the backend that built it, and its methods
// are the only query surface: DynamicEngine publishes a one-part view of
// its snapshot, shard::ShardedEngine one part per shard, and EngineView
// below wraps the static Engine. Callers pin a view and ask it
// (engine.View()->Quantify(q), api::EngineRef::Call), so the per-query
// steps exist once (view_query.cc):
//   1. eps resolution (pnn::ResolveEps over the view's options, checked);
//   2. the empty check (an empty view answers empty);
//   3. the view's AnswerCache (lookup, then insert after evaluation);
//   4. the spiral-vs-Monte-Carlo plan rule over the union's aggregates
//      (PlanForSnapshot / McRoundsForSnapshot);
//   5. the exact cross-bucket recombinations of merge.h over the union,
//      reading every bucket engine's Monte-Carlo sample block
//      (Engine::EnsureRounds);
//   6. ThresholdNN's tau check and filter, MostLikelyNN's argmax.
// Answers are a deterministic function of (view, query), so they match a
// fresh static Engine over the view's live set bit-identically for
// NonzeroNN / Quantify / QuantifyExact / ThresholdNN / MostLikelyNN,
// whatever the number of parts and whatever the view's pool is (see the
// equivalence contract in dynamic_engine.h).

#ifndef PNN_DYN_VIEW_QUERY_H_
#define PNN_DYN_VIEW_QUERY_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/core/pnn.h"
#include "src/dyn/bucket.h"
#include "src/exec/thread_pool.h"

namespace pnn {
namespace dyn {

/// One entry of a DynamicEngine's published tail record: its id and,
/// while live, its point, borrowed from the same snapshot's tail bucket
/// (null once erased), so the record copies no point.
struct TailEntry {
  Id id;
  const UncertainPoint* point;
};

class AnswerCache;  // Per-snapshot cross-query answers (answer_cache.h).

/// One immutable version of a DynamicEngine's structure. Queries snapshot
/// it with a lock-free atomic load and are unaffected by concurrent
/// updates or background rebuilds (old versions stay alive through the
/// shared_ptrs a running query holds). The SetAggregates base holds the live set's
/// aggregates — exactly what a fresh static Engine over it derives, kept
/// as counts and a min/max spread so partitions of snapshots (the shard
/// router) recombine them without re-scanning every point.
///
/// A DynamicEngine's own snapshot (DynamicEngine::snapshot()) keeps its
/// Bentley–Saxe buckets in `buckets` — what the store serializes — and its
/// live tail apart, in `tail_bucket`. Queries read a view's union
/// (UnionSnapshot), where every part's tail bucket is one more bucket and
/// `tail_bucket` is null, so each query body is one loop over buckets.
struct Snapshot : SetAggregates {
  struct BucketRef {
    std::shared_ptr<const Bucket> bucket;
    /// Tombstone mask in bucket-local indexing; null when nothing is dead.
    std::shared_ptr<const std::vector<char>> dead;
    size_t live_count = 0;
  };
  std::vector<BucketRef> buckets;
  /// The live tail entries as one bucket, ascending by id, whose engine
  /// builds no index (Engine::NoIndex) and samples under the entries' ids,
  /// so it answers exactly as the entries would inside any bucket. Null
  /// when no tail entry is live, and on a union.
  std::shared_ptr<const Bucket> tail_bucket;
  /// The writer's tail as published: entries in insertion order, with a
  /// tombstone mask parallel to it (null when nothing is dead). Ids are
  /// not necessarily ascending (InsertWithId may re-add an id previously
  /// moved out by the shard router), so deadness is positional. Its only
  /// readers are DynamicEngine::tail_size / dead_size and bench_suite's
  /// AddViewCounts (the dyn.tail and dyn.dead metrics); no query and no
  /// store read does, since checkpoints re-describe the tail from
  /// `tail_bucket`.
  std::shared_ptr<const std::vector<TailEntry>> tail;
  std::shared_ptr<const std::vector<char>> tail_dead;
  /// Cross-query answer memoization for this snapshot (null on hand-built
  /// snapshots and when Options::answer_cache is off — queries then just
  /// evaluate). A publish starts a fresh one: that is its invalidation.
  std::shared_ptr<AnswerCache> answers;

  bool TailAlive(size_t index) const {
    return tail_dead == nullptr || (*tail_dead)[index] == 0;
  }
};

/// One immutable query view, and the one query surface of every backend:
/// the snapshots it was gathered from, their union as one snapshot, and
/// the engine options and pool of the backend that built it. A
/// DynamicEngine publishes a one-part view with every snapshot (parts =
/// {snap}, combined = its union); the shard router gathers one part per
/// shard under its seqlock and builds their union; dyn::EngineView wraps a
/// static Engine (its one part is its own union). Holding one pins its structures, so queries against it answer
/// as of the gather, and never reach back into the backend. Answers match
/// a fresh static Engine over the view's live set (the equivalence
/// contract in dynamic_engine.h).
struct CombinedView {
  std::vector<std::shared_ptr<const Snapshot>> parts;
  std::shared_ptr<const Snapshot> combined;
  /// The backend's engine options: seed, default_eps, the plan rule's
  /// knobs. mc_stream_ids stays empty (each bucket engine samples under
  /// its own ids), so copying them into a view allocates nothing.
  Engine::Options options;
  /// Monte-Carlo sample draws fan out here; null = inline.
  exec::ThreadPool* pool = nullptr;

  /// NN!=0(q) over the view, ascending ids (Lemma 2.1 semantics).
  std::vector<Id> NonzeroNN(Point2 q) const;

  /// NonzeroNN writing into `out` (cleared first) — with a warm scratch
  /// arena and a warm output buffer a steady-state call performs zero
  /// heap allocations (tests/alloc_hotpath_test.cc).
  void NonzeroNNInto(Point2 q, std::vector<Id>* out) const;

  /// Estimates of all positive pi_i(q) within additive eps (default:
  /// options.default_eps); Quantification indices are point ids, ascending.
  std::vector<Quantification> Quantify(Point2 q,
                                       std::optional<double> eps = std::nullopt) const;

  /// Quantify writing into `out` (cleared first) — with warm caches and a
  /// warm scratch arena this performs zero heap allocations on the spiral
  /// and Monte-Carlo paths (tests/alloc_hotpath_test.cc).
  void QuantifyInto(Point2 q, std::optional<double> eps,
                    std::vector<Quantification>* out) const;

  /// Exact pi_i(q) over the view's NN!=0 candidates (MergedQuantifyExact):
  /// the Eq. (2) sweep for an all-discrete view, Eq. (1) quadrature for an
  /// all-continuous one (checked: a mixed view aborts). Bit-identical to a
  /// static Engine's QuantifyExact over the live set.
  std::vector<Quantification> QuantifyExact(Point2 q) const;

  /// Points with pi_i(q) > tau; tau must be in [0, 1] (checked).
  std::vector<Quantification> ThresholdNN(Point2 q, double tau,
                                          std::optional<double> eps = std::nullopt) const;

  /// Id with the largest estimated quantification probability (-1 when the
  /// view is empty).
  Id MostLikelyNN(Point2 q, std::optional<double> eps = std::nullopt) const;

  /// The plan Quantify() picks at this eps, by the rule a fresh static
  /// Engine over the live set applies.
  QuantifyPlan PlanForQuantify(std::optional<double> eps = std::nullopt) const;

  /// Builds every structure Quantify(·, eps) may need (every bucket's
  /// Monte-Carlo sample block, the tail buckets' included), so a batch
  /// fans out without contending on lazy construction.
  void Prewarm(std::optional<double> eps = std::nullopt) const;
};

/// The union of `parts` as the one snapshot a view's queries read: every
/// part's live buckets and its tail bucket, shared, with the aggregates
/// recombined by sum / max / min — exactly what one engine over the union
/// would hold. The Merged* decompositions never assume the buckets came
/// from one engine, so over this union they answer as a static engine over
/// the parts' live set. With `answer_cache` the union gets a fresh
/// AnswerCache, which lives exactly as long as the view that owns it.
std::shared_ptr<const Snapshot> UnionSnapshot(
    const std::vector<std::shared_ptr<const Snapshot>>& parts, bool answer_cache);

/// A one-part view over a static engine: one bucket that borrows `engine`
/// under ids 0..n-1, with no tombstones, no tail, no AnswerCache and no
/// pool, and the engine's own aggregates and options (mc_stream_ids
/// aside). Monte-Carlo queries read the engine's sample block, so the view
/// and the engine's direct methods share one set of samples. The engine
/// must outlive the view.
std::shared_ptr<const CombinedView> EngineView(const Engine* engine);

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_VIEW_QUERY_H_
