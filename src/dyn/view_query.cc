#include "src/dyn/view_query.h"

#include <algorithm>
#include <limits>

#include "src/dyn/answer_cache.h"
#include "src/dyn/dynamic_engine.h"
#include "src/dyn/merge.h"
#include "src/dyn/tail_cache.h"
#include "src/util/arena.h"
#include "src/util/check.h"

namespace pnn {
namespace dyn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::shared_ptr<const CombinedView> EngineView(const Engine* engine) {
  const SetAggregates& agg = engine->aggregates();
  auto snap = std::make_shared<Snapshot>();
  snap->buckets.push_back(
      {std::make_shared<const Bucket>(
           std::shared_ptr<const Engine>(engine, [](const Engine*) {}), true),
       nullptr, agg.live_count});
  static_cast<SetAggregates&>(*snap) = agg;
  auto view = std::make_shared<CombinedView>();
  view->parts.push_back(snap);
  view->combined = std::move(snap);
  view->options = engine->options();
  // The bucket's engine samples under its own ids; the view never needs
  // them, and a copy would be one id per point.
  view->options.mc_stream_ids.clear();
  return view;
}

std::vector<Id> CombinedView::NonzeroNN(Point2 q) const {
  std::vector<Id> out;
  NonzeroNNInto(q, &out);
  return out;
}

void CombinedView::NonzeroNNInto(Point2 q, std::vector<Id>* out) const {
  const Snapshot& u = *combined;
  out->clear();
  if (u.live_count == 0) return;
  // The view is immutable and the answer a deterministic function of
  // (view, q), so a memoized answer is exact — a hit skips both stages and
  // the final sort (invalidation is the publish itself; answer_cache.h).
  AnswerCache* cache = u.answers.get();
  AnswerCache::Key key{AnswerCache::Kind::kNonzeroNN, q, 0.0};
  if (cache != nullptr && cache->LookupIds(key, out)) return;

  // Mixedness is the union's, not a part's: the reference engine's
  // re-filter depends on the whole live set.
  bool mixed = u.discrete_count > 0 && u.continuous_count > 0;
  size_t active = 0;
  for (const auto& part : parts) active += part->live_count > 0;
  if (parts.size() == 1) {
    MergedNonzeroNNInto(*parts[0], q, out);
  } else if (pool == nullptr || active <= 1) {
    // Stage 1: the global Lemma 2.1 bound is the min over the parts';
    // stage 2: every part reports against it, straight into `out`.
    double bound = kInf;
    for (const auto& part : parts) {
      if (part->live_count > 0) bound = std::min(bound, SnapshotNonzeroDelta(*part, q));
    }
    for (const auto& part : parts) {
      if (part->live_count > 0) AppendNonzeroNNWithin(*part, q, bound, mixed, out);
    }
  } else {
    // The same two stages fanned out per non-empty part (empty parts add
    // +inf to stage 1 and nothing to stage 2, so they are never scheduled).
    util::ScratchVec<size_t> active_lease;
    std::vector<size_t>& live_parts = *active_lease;
    live_parts.clear();
    for (size_t i = 0; i < parts.size(); ++i) {
      if (parts[i]->live_count > 0) live_parts.push_back(i);
    }
    util::ScratchVec<double> deltas_lease;
    std::vector<double>& deltas = *deltas_lease;
    deltas.assign(active, kInf);
    pool->ParallelFor(active, [&](size_t i) {
      deltas[i] = SnapshotNonzeroDelta(*parts[live_parts[i]], q);
    });
    double bound = kInf;
    for (double d : deltas) bound = std::min(bound, d);

    util::ScratchVec<std::vector<Id>> found_lease;
    std::vector<std::vector<Id>>& found = *found_lease;
    // Grow-only: shrinking would destroy the tail inner vectors and forfeit
    // their pooled capacity when the active-part count oscillates.
    if (found.size() < active) found.resize(active);
    for (size_t i = 0; i < active; ++i) found[i].clear();
    pool->ParallelFor(active, [&](size_t i) {
      AppendNonzeroNNWithin(*parts[live_parts[i]], q, bound, mixed, &found[i]);
    });
    for (size_t i = 0; i < active; ++i) {
      out->insert(out->end(), found[i].begin(), found[i].end());
    }
  }
  std::sort(out->begin(), out->end());
  if (cache != nullptr) cache->InsertIds(key, *out);
}

std::vector<Quantification> CombinedView::Quantify(Point2 q,
                                                   std::optional<double> eps) const {
  std::vector<Quantification> out;
  QuantifyInto(q, eps, &out);
  return out;
}

void CombinedView::QuantifyInto(Point2 q, std::optional<double> eps_opt,
                                std::vector<Quantification>* out) const {
  double eps = ResolveEps(options, eps_opt);
  const Snapshot& snap = *combined;
  out->clear();
  if (snap.live_count == 0) return;
  // A hit skips plan selection, Monte-Carlo rounds and the merge entirely.
  AnswerCache* cache = snap.answers.get();
  AnswerCache::Key key{AnswerCache::Kind::kQuantify, q, eps};
  if (cache != nullptr && cache->LookupQuants(key, out)) return;
  if (PlanForSnapshot(snap, options, eps) == QuantifyPlan::kSpiral) {
    MergedSpiralQuantifyInto(snap, q, eps, out);
  } else {
    MergedMonteCarloQuantifyInto(snap, q, McRoundsForSnapshot(snap, options, eps),
                                 options.seed, pool, out);
  }
  if (cache != nullptr) cache->InsertQuants(key, *out);
}

std::vector<Quantification> CombinedView::QuantifyExact(Point2 q) const {
  const Snapshot& snap = *combined;
  if (snap.live_count == 0) return {};
  AnswerCache* cache = snap.answers.get();
  AnswerCache::Key key{AnswerCache::Kind::kQuantifyExact, q, 0.0};
  std::vector<Quantification> out;
  if (cache != nullptr && cache->LookupQuants(key, &out)) return out;
  out = MergedQuantifyExact(snap, q);
  if (cache != nullptr) cache->InsertQuants(key, out);
  return out;
}

std::vector<Quantification> CombinedView::ThresholdNN(Point2 q, double tau,
                                                      std::optional<double> eps) const {
  PNN_CHECK_MSG(tau >= 0 && tau <= 1, "ThresholdNN tau must be a probability in [0,1]");
  return ThresholdFilter(Quantify(q, eps), tau);
}

Id CombinedView::MostLikelyNN(Point2 q, std::optional<double> eps) const {
  return pnn::MostLikelyNN(Quantify(q, eps));
}

QuantifyPlan CombinedView::PlanForQuantify(std::optional<double> eps) const {
  return PlanForSnapshot(*combined, options, ResolveEps(options, eps));
}

void CombinedView::Prewarm(std::optional<double> eps_opt) const {
  double eps = ResolveEps(options, eps_opt);
  const Snapshot& snap = *combined;
  if (snap.live_count == 0) return;
  if (PlanForSnapshot(snap, options, eps) != QuantifyPlan::kMonteCarlo) return;
  size_t rounds = McRoundsForSnapshot(snap, options, eps);
  for (const auto& bref : snap.buckets) {
    if (bref.live_count > 0) bref.bucket->engine().EnsureRounds(rounds, pool);
  }
  if (snap.tail_mc != nullptr) snap.tail_mc->Ensure(snap, rounds, options.seed);
}

}  // namespace dyn
}  // namespace pnn
