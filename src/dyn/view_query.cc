#include "src/dyn/view_query.h"

#include <algorithm>

#include "src/dyn/answer_cache.h"
#include "src/dyn/dynamic_engine.h"
#include "src/dyn/merge.h"
#include "src/util/check.h"

namespace pnn {
namespace dyn {

std::shared_ptr<const Snapshot> UnionSnapshot(
    const std::vector<std::shared_ptr<const Snapshot>>& parts, bool answer_cache) {
  auto u = std::make_shared<Snapshot>();
  size_t buckets = 0;
  for (const auto& s : parts) buckets += s->buckets.size() + 1;
  u->buckets.reserve(buckets);
  for (const auto& s : parts) {
    for (const auto& bref : s->buckets) {
      if (bref.live_count > 0) u->buckets.push_back(bref);
    }
    if (s->tail_bucket != nullptr) {
      u->buckets.push_back({s->tail_bucket, nullptr, s->tail_bucket->size()});
    }
    u->live_count += s->live_count;
    u->discrete_count += s->discrete_count;
    u->continuous_count += s->continuous_count;
    u->total_complexity += s->total_complexity;
    u->max_k = std::max(u->max_k, s->max_k);
    u->wmin = std::min(u->wmin, s->wmin);
    u->wmax = std::max(u->wmax, s->wmax);
  }
  if (answer_cache && u->live_count > 0) u->answers = std::make_shared<AnswerCache>();
  return u;
}

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
  MergedNonzeroNNInto(u, q, out);
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
    MergedMonteCarloQuantifyInto(snap, q, McRoundsForSnapshot(snap, options, eps), pool,
                                 out);
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
}

}  // namespace dyn
}  // namespace pnn
