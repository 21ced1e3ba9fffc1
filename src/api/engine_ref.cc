#include "src/api/engine_ref.h"

#include <utility>

#include "src/dyn/view_query.h"

namespace pnn {
namespace api {

namespace {

/// QuantifyExact supports all-discrete or all-continuous sets; the direct
/// methods PNN_CHECK on mixed input, the api answers a status instead.
constexpr const char* kMixedExactMessage =
    "QuantifyExact needs an all-discrete or all-continuous set";

/// A durable backend's refusal: the op was NOT applied, and a retry after
/// its disk heals will succeed.
QueryResponse Unavailable(QueryKind kind, const util::Status& status) {
  return QueryResponse::Error(StatusCode::kUnavailable, kind, status.ToString());
}

}  // namespace

EngineRef::EngineRef(const Engine* engine)
    : engine_(engine),
      static_view_(engine != nullptr ? dyn::EngineView(engine) : nullptr) {}

std::shared_ptr<const dyn::CombinedView> EngineRef::ViewOf(const Pin* pin) const {
  if (pin != nullptr && pin->view != nullptr) return pin->view;
  if (dyn_ != nullptr) return dyn_->View();
  if (sharded_view() != nullptr) return sharded_view()->View();
  return static_view_;
}

const Engine::Options& EngineRef::view_options() const {
  if (dyn_ != nullptr) return dyn_->options().engine;
  if (sharded_view() != nullptr) return sharded_view()->options().shard.engine;
  return engine_->options();
}

exec::ThreadPool* EngineRef::view_pool() const {
  if (dyn_ != nullptr) return dyn_->options().pool;
  if (sharded_view() != nullptr) return sharded_view()->options().pool;
  return nullptr;
}

EngineRef::Pin EngineRef::Capture() const { return Pin{ViewOf(nullptr)}; }

QueryResponse EngineRef::Call(const QueryRequest& request) const {
  return Dispatch(request, nullptr);
}

QueryResponse EngineRef::Call(const QueryRequest& request, const Pin& pin) const {
  return Dispatch(request, &pin);
}

QueryResponse EngineRef::Dispatch(const QueryRequest& request, const Pin* pin) const {
  if (!valid()) {
    return QueryResponse::Error(StatusCode::kInternal, request.kind,
                                "EngineRef has no backend");
  }
  std::string detail;
  StatusCode valid_status = Validate(request, &detail);
  if (valid_status != StatusCode::kOk) {
    return QueryResponse::Error(valid_status, request.kind, std::move(detail));
  }
  if (request.is_update()) return ApplyUpdate(request);

  // Every query answers through the shared pipeline over the (pinned or
  // live) view. A pinned call reads the pin's view in place, so the calls
  // of a batch sharing one pin take no reference-count traffic on it.
  std::shared_ptr<const dyn::CombinedView> live;
  const dyn::CombinedView& view =
      pin != nullptr && pin->view != nullptr ? *pin->view : *(live = ViewOf(nullptr));
  auto quantify = [&](std::vector<Quantification>* out) {
    dyn::QuantifyInto(view, view_options(), view_pool(), request.q, request.eps, out);
  };
  QueryResponse r;
  r.kind = request.kind;
  switch (request.kind) {
    case QueryKind::kNonzeroNN:
      dyn::NonzeroNNInto(view, view_pool(), request.q, &r.ids);
      break;
    case QueryKind::kQuantify:
      quantify(&r.quants);
      break;
    case QueryKind::kQuantifyExact: {
      // Pre-check what the direct call would abort on.
      const dyn::Snapshot& s = *view.combined;
      if (s.live_count > 0 && !s.all_discrete() && !s.all_continuous()) {
        return QueryResponse::Error(StatusCode::kUnimplemented, request.kind,
                                    kMixedExactMessage);
      }
      r.quants = dyn::QuantifyExact(view, request.q);
      break;
    }
    case QueryKind::kThresholdNN:
      quantify(&r.quants);
      r.quants = ThresholdFilter(r.quants, request.tau);
      break;
    case QueryKind::kMostLikelyNN: {
      std::vector<Quantification> all;
      quantify(&all);
      r.id = pnn::MostLikelyNN(all);
      break;
    }
    case QueryKind::kInsert:
    case QueryKind::kErase:
      break;  // Handled by ApplyUpdate above.
  }
  return r;
}

QueryResponse EngineRef::ApplyUpdate(const QueryRequest& request) const {
  QueryResponse r;
  r.kind = request.kind;
  if (!supports_updates()) {
    return QueryResponse::Error(StatusCode::kUnimplemented, request.kind,
                                "static Engine backends are immutable");
  }
  // A degraded durable store refuses mutations with kUnavailable; queries
  // never take this path — they keep answering kOk.
  if (request.kind == QueryKind::kInsert) {
    if (sharded_store_ != nullptr) {
      util::StatusOr<dyn::Id> id = sharded_store_->Insert(*request.point);
      if (!id.ok()) return Unavailable(request.kind, id.status());
      r.id = *id;
    } else if (dyn_ != nullptr) {
      r.id = dyn_->Insert(*request.point);
    } else {
      r.id = sharded_->Insert(*request.point);
    }
    return r;
  }
  bool erased;
  if (sharded_store_ != nullptr) {
    util::StatusOr<bool> status = sharded_store_->Erase(request.id);
    if (!status.ok()) return Unavailable(request.kind, status.status());
    erased = *status;
  } else if (dyn_ != nullptr) {
    erased = dyn_->Erase(request.id);
  } else {
    erased = sharded_->Erase(request.id);
  }
  r.id = erased ? request.id : -1;
  return r;
}

void EngineRef::Prewarm(std::optional<double> eps, const Pin& pin) const {
  if (valid()) dyn::Prewarm(*ViewOf(&pin), view_options(), view_pool(), eps);
}

QuantifyPlan EngineRef::PlanForQuantify(std::optional<double> eps, const Pin& pin) const {
  return dyn::PlanFor(*ViewOf(&pin), view_options(), eps);
}

size_t EngineRef::live_size() const {
  return valid() ? ViewOf(nullptr)->combined->live_count : 0;
}

}  // namespace api
}  // namespace pnn
