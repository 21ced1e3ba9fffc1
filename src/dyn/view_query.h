// The one query pipeline of every backend: every query kind answered over
// a pinned CombinedView. DynamicEngine (a one-part view of its snapshot),
// shard::ShardedEngine (one part per shard) and api::EngineRef (any
// backend, the static Engine through EngineView below) all answer through
// the functions below, so the per-query steps exist once:
//   1. eps resolution (pnn::ResolveEps, checked);
//   2. the empty check (an empty view answers empty);
//   3. the view's AnswerCache (lookup, then insert after evaluation);
//   4. the spiral-vs-Monte-Carlo plan rule over the union's aggregates
//      (PlanForSnapshot / McRoundsForSnapshot);
//   5. the exact cross-part recombinations of merge.h, reading every
//      bucket engine's Monte-Carlo round cache (Engine::EnsureRounds).
// Answers are a deterministic function of (view, options, query), so they
// match a fresh static Engine over the view's live set bit-identically for
// NonzeroNN / Quantify / ThresholdNN / MostLikelyNN, whatever the number
// of parts and whatever `pool` is (see the equivalence contract in
// dynamic_engine.h).

#ifndef PNN_DYN_VIEW_QUERY_H_
#define PNN_DYN_VIEW_QUERY_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/core/pnn.h"
#include "src/dyn/dynamic_engine.h"
#include "src/exec/thread_pool.h"

namespace pnn {
namespace dyn {

/// A one-part view over a static engine: one bucket that borrows `engine`
/// under ids 0..n-1, with no tombstones, no tail and no AnswerCache, and
/// the engine's own aggregates. Monte-Carlo queries read the engine's
/// round cache, so the view and the engine's direct methods share one set
/// of rounds. The engine must outlive the view.
std::shared_ptr<const CombinedView> EngineView(const Engine* engine);

/// NN!=0(q) over the view, ascending ids (Lemma 2.1), into `out` (cleared
/// first). Two stages over view.parts: the global bound is the min of the
/// parts' SnapshotNonzeroDelta, then each part reports against it
/// (AppendNonzeroNNWithin). Both stages fan out on `pool` when more than
/// one part is non-empty; with one part this is MergedNonzeroNNInto. With
/// a warm scratch arena and a warm `out` a call allocates nothing.
void NonzeroNNInto(const CombinedView& view, exec::ThreadPool* pool, Point2 q,
                   std::vector<Id>* out);

/// Estimates of all positive pi_i(q) within additive eps (default:
/// options.default_eps), ids ascending, into `out` (cleared first):
/// MergedSpiralQuantifyInto or MergedMonteCarloQuantifyInto over
/// view.combined, by the plan rule. Monte-Carlo rounds fan out on `pool`.
/// With warm caches and a warm scratch arena a call allocates nothing.
void QuantifyInto(const CombinedView& view, const Engine::Options& options,
                  exec::ThreadPool* pool, Point2 q, std::optional<double> eps,
                  std::vector<Quantification>* out);

/// Exact pi_i(q): survival-profile recombination for an all-discrete view,
/// quadrature over the gathered live set for an all-continuous one
/// (checked: a mixed view aborts).
std::vector<Quantification> QuantifyExact(const CombinedView& view, Point2 q);

/// The plan QuantifyInto picks at this eps.
QuantifyPlan PlanFor(const CombinedView& view, const Engine::Options& options,
                     std::optional<double> eps);

/// Builds every structure QuantifyInto(·, eps) may need over the view
/// (per-bucket Monte-Carlo rounds and the union's tail samples), so a
/// batch fans out without contending on lazy construction.
void Prewarm(const CombinedView& view, const Engine::Options& options,
             exec::ThreadPool* pool, std::optional<double> eps);

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_VIEW_QUERY_H_
