// pnn::dyn's immutable query views and the one query pipeline of every
// backend. A Snapshot is one frozen buckets + tail partition of a live
// set; a CombinedView is the snapshots a query reads plus their union,
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
//   5. the exact cross-part recombinations of merge.h, reading every
//      bucket engine's Monte-Carlo sample block (Engine::EnsureRounds);
//   6. ThresholdNN's tau check and filter, MostLikelyNN's argmax.
// Answers are a deterministic function of (view, query), so they match a
// fresh static Engine over the view's live set bit-identically for
// NonzeroNN / Quantify / ThresholdNN / MostLikelyNN, whatever the number
// of parts and whatever the view's pool is (see the equivalence contract
// in dynamic_engine.h).

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

struct TailEntry {
  Id id;
  UncertainPoint point;
};

class TailMcCache;  // Per-snapshot Monte-Carlo tail samples (tail_cache.h).
class AnswerCache;  // Per-snapshot cross-query answers (answer_cache.h).

/// One immutable version of a DynamicEngine's structure. Queries snapshot
/// it with a lock-free atomic load and are unaffected by concurrent
/// updates or background rebuilds (old versions stay alive through the
/// shared_ptrs a running query holds). The SetAggregates base holds the live set's
/// aggregates — exactly what a fresh static Engine over it derives, kept
/// as counts and a min/max spread so partitions of snapshots (the shard
/// router) recombine them without re-scanning every point.
struct Snapshot : SetAggregates {
  struct BucketRef {
    std::shared_ptr<const Bucket> bucket;
    /// Tombstone mask in bucket-local indexing; null when nothing is dead.
    std::shared_ptr<const std::vector<char>> dead;
    size_t live_count = 0;
  };
  std::vector<BucketRef> buckets;
  /// Tail entries in insertion order. Ids are not necessarily ascending
  /// (InsertWithId may re-add an id previously moved out by the shard
  /// router), and an id may recur dead in one part and live in another;
  /// deadness is therefore positional, never keyed by id.
  std::shared_ptr<const std::vector<TailEntry>> tail;
  /// Tombstone mask parallel to `tail`; null when nothing is dead.
  std::shared_ptr<const std::vector<char>> tail_dead;
  /// Lazily built per-(seed, rounds) Monte-Carlo tail samples, shared by
  /// every query against this snapshot so repeated quantifications sample
  /// the tail once (null when the tail has no live entries; hand-built
  /// snapshots may omit it, and the merge layer then samples through a
  /// query-local cache). A snapshot publish starts a fresh cache: that is
  /// the invalidation on insert/erase/merge/compaction.
  std::shared_ptr<TailMcCache> tail_mc;
  /// Cross-query answer memoization for this snapshot (null on hand-built
  /// snapshots and when Options::answer_cache is off — queries then just
  /// evaluate). Shares the publish-is-the-invalidation lifecycle with
  /// tail_mc.
  std::shared_ptr<AnswerCache> answers;

  bool TailAlive(size_t index) const {
    return tail_dead == nullptr || (*tail_dead)[index] == 0;
  }
};

/// One immutable query view, and the one query surface of every backend:
/// the snapshots it was gathered from, their union as one snapshot, and
/// the engine options and pool of the backend that built it. A
/// DynamicEngine publishes a one-part view with every snapshot (parts =
/// {snap}, combined = snap); the shard router gathers one part per shard
/// under its seqlock and builds the union; dyn::EngineView wraps a static
/// Engine. Holding one pins its structures, so queries against it answer
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
  /// NonzeroNN stages and Monte-Carlo sample draws fan out here; null =
  /// inline.
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

  /// Exact pi_i(q): survival-profile recombination for an all-discrete
  /// view, quadrature over the gathered live set for an all-continuous one
  /// (checked: a mixed view aborts).
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

  /// Builds every structure Quantify(·, eps) may need (per-bucket
  /// Monte-Carlo sample blocks and the union's tail samples), so a batch
  /// fans out without contending on lazy construction.
  void Prewarm(std::optional<double> eps = std::nullopt) const;
};

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
