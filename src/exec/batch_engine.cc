#include "src/exec/batch_engine.h"

#include <algorithm>
#include <thread>

#include "src/dyn/answer_cache.h"
#include "src/util/check.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

namespace pnn {
namespace exec {

namespace {

// The answer cache a pinned query run will consult: the view's union
// snapshot's (null for static backends or when caching is disabled).
dyn::AnswerCache::Stats PinCacheStats(const api::EngineRef::Pin& pin) {
  const dyn::AnswerCache* cache =
      pin.view != nullptr ? pin.view->combined->answers.get() : nullptr;
  return cache != nullptr ? cache->stats() : dyn::AnswerCache::Stats{};
}

void AccumulateCacheDelta(const api::EngineRef::Pin& pin,
                          const dyn::AnswerCache::Stats& before, BatchStats* stats) {
  dyn::AnswerCache::Stats after = PinCacheStats(pin);
  stats->answer_cache_hits += after.hits - before.hits;
  stats->answer_cache_misses += after.misses - before.misses;
}

}  // namespace

api::QueryRequest MixedOp::ToRequest(std::optional<double> eps) const {
  switch (kind) {
    case Kind::kInsert:
      return api::QueryRequest::Insert(*point);
    case Kind::kErase:
      return api::QueryRequest::Erase(id);
    case Kind::kNonzeroNN:
      return api::QueryRequest::NonzeroNN(q);
    case Kind::kQuantify:
      return api::QueryRequest::Quantify(q, eps);
    case Kind::kThresholdNN:
      return api::QueryRequest::ThresholdNN(q, tau, eps);
  }
  return api::QueryRequest::NonzeroNN(q);
}

std::vector<api::QueryRequest> ToRequests(const std::vector<MixedOp>& ops,
                                          std::optional<double> eps) {
  std::vector<api::QueryRequest> requests;
  requests.reserve(ops.size());
  for (const MixedOp& op : ops) requests.push_back(op.ToRequest(eps));
  return requests;
}

BatchEngine::BatchEngine(api::EngineRef ref, BatchOptions options)
    : ref_(ref), options_(options) {
  PNN_CHECK_MSG(ref_.valid(), "BatchEngine needs an engine");
  size_t threads = options_.num_threads > 0
                       ? options_.num_threads
                       : std::max<size_t>(1, std::thread::hardware_concurrency());
  // The calling thread always participates, so a pool is only needed for
  // the extra threads beyond it.
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads - 1);
}

void BatchEngine::PrepareRun(const std::vector<api::QueryRequest>& requests,
                             size_t begin, size_t end, const api::EngineRef::Pin& pin,
                             BatchStats* stats) const {
  // The plan rule depends on eps and the pinned point set only, so it is
  // evaluated (and the structures built) once per distinct eps — almost
  // always one per run.
  std::vector<std::pair<std::optional<double>, QuantifyPlan>> plans;
  for (size_t i = begin; i < end; ++i) {
    const api::QueryRequest& request = requests[i];
    if (!request.is_quantify_like()) continue;
    // Invalid requests (e.g. out-of-range eps) answer kInvalidArgument at
    // dispatch; prewarming them would abort inside the engine.
    if (api::Validate(request) != api::StatusCode::kOk) continue;
    auto it = std::find_if(plans.begin(), plans.end(),
                           [&](const auto& p) { return p.first == request.eps; });
    if (it == plans.end()) {
      ref_.Prewarm(request.eps, pin);
      plans.emplace_back(request.eps, ref_.PlanForQuantify(request.eps, pin));
      it = plans.end() - 1;
    }
    if (it->second == QuantifyPlan::kSpiral) {
      ++stats->spiral_plans;
    } else {
      ++stats->monte_carlo_plans;
    }
  }
}

BatchResult<api::QueryResponse> BatchEngine::RequestBatch(
    const std::vector<api::QueryRequest>& requests) const {
  size_t n = requests.size();
  BatchResult<api::QueryResponse> out;
  out.values.resize(n);
  std::vector<double> query_lat, update_lat;
  bool parallel_used = false;
  Timer wall;

  // The pin each query run answers against: captured once at the start of
  // the run (updates between runs invalidate it), threaded through every
  // query in the run instead of re-capturing per query.
  api::EngineRef::Pin run_pin;
  auto answer_query = [&](size_t i, double* lat) {
    Timer t;
    out.values[i] = ref_.Call(requests[i], run_pin);
    *lat = t.Micros();
    out.values[i].server_micros = *lat;
  };

  size_t i = 0;
  while (i < n) {
    if (requests[i].is_update()) {
      Timer t;
      out.values[i] = ref_.Call(requests[i]);
      double micros = t.Micros();
      out.values[i].server_micros = micros;
      update_lat.push_back(micros);
      ++i;
      continue;
    }
    // Maximal run of consecutive queries: fan out when it pays.
    size_t j = i;
    while (j < n && !requests[j].is_update()) ++j;
    // Pin first, then prewarm and count plans against that pin: a publish
    // in between would otherwise leave the answered structures cold and
    // the plan mix describing another state. Plans are sampled per run, as
    // interleaved updates can flip the spiral-vs-Monte-Carlo rule.
    run_pin = ref_.Capture();
    PrepareRun(requests, i, j, run_pin, &out.stats);
    dyn::AnswerCache::Stats cache_before = PinCacheStats(run_pin);
    size_t run = j - i;
    size_t lat_base = query_lat.size();
    query_lat.resize(lat_base + run);
    if (pool_ && run >= options_.min_parallel_batch) {
      pool_->ParallelFor(
          run, [&](size_t k) { answer_query(i + k, &query_lat[lat_base + k]); });
      parallel_used = true;
    } else {
      for (size_t k = 0; k < run; ++k) answer_query(i + k, &query_lat[lat_base + k]);
    }
    AccumulateCacheDelta(run_pin, cache_before, &out.stats);
    i = j;
  }

  BatchStats& s = out.stats;
  s.num_queries = query_lat.size();
  s.num_updates = update_lat.size();
  s.threads = parallel_used ? num_threads() : 1;
  s.wall_seconds = wall.Seconds();
  s.queries_per_sec = s.wall_seconds > 0
                          ? static_cast<double>(s.num_queries) / s.wall_seconds
                          : 0.0;
  s.p50_micros = Percentile(&query_lat, 50.0);
  s.p99_micros = Percentile(&query_lat, 99.0);
  s.update_p50_micros = Percentile(&update_lat, 50.0);
  s.update_p99_micros = Percentile(&update_lat, 99.0);
  return out;
}

}  // namespace exec
}  // namespace pnn
