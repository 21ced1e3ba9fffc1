// pnn::api::EngineRef — a type-erased, non-owning handle over the query
// backends (static Engine, dyn::DynamicEngine, shard::ShardedEngine, and
// the durable store::ShardedStore, which with one shard is the durable
// single engine) that dispatches api::QueryRequest.
//
// This is the seam the serving layer and the batch executor stand on: the
// server decodes wire frames into QueryRequests and calls one EngineRef,
// and exec::BatchEngine::RequestBatch fans runs of them out. Every query,
// on every backend, answers through the one pipeline of dyn/view_query.h
// over a dyn::CombinedView: the mutable backends' View(), or for the
// static Engine a one-part view (dyn::EngineView) built once when the ref
// is constructed and shared by its copies. Answers are bit-identical to
// the backends' direct methods (tests/api_engine_ref_test.cc
// differential-tests randomized op streams on every backend).
//
// Pinning: Capture() returns the backend's current view (always the same
// one for the static Engine, which never changes) and Call(request, pin)
// answers as of that capture — the batch executor pins once per query
// run, the server once per coalesced network batch. Updates always apply
// to the live backend regardless of any pin.
//
// Thread safety: EngineRef is a handful of pointers — copy it freely.
// Calls are as safe as the backend's own methods: queries may run
// concurrently with anything; updates serialize inside the backend.

#ifndef PNN_API_ENGINE_REF_H_
#define PNN_API_ENGINE_REF_H_

#include <cstddef>
#include <memory>
#include <optional>

#include "src/api/query.h"
#include "src/core/pnn.h"
#include "src/dyn/dynamic_engine.h"
#include "src/shard/sharded_engine.h"
#include "src/store/sharded_store.h"

namespace pnn {
namespace api {

class EngineRef {
 public:
  /// Which backend a ref points at (mostly for logs and tests).
  enum class Backend { kNone, kStatic, kDynamic, kSharded, kShardedStore };

  EngineRef() = default;
  /// Static backend: the five query kinds; Insert/Erase answer
  /// kUnimplemented. The engine must outlive the ref and its copies.
  explicit EngineRef(const Engine* engine);
  explicit EngineRef(dyn::DynamicEngine* engine) : dyn_(engine) {}
  explicit EngineRef(shard::ShardedEngine* engine) : sharded_(engine) {}
  /// Durable backend: queries run against the store's live router
  /// exactly like the in-memory refs; Insert/Erase route through the
  /// store so they are logged (and synced) before they apply.
  explicit EngineRef(store::ShardedStore* store) : sharded_store_(store) {}

  Backend backend() const {
    if (engine_ != nullptr) return Backend::kStatic;
    if (dyn_ != nullptr) return Backend::kDynamic;
    if (sharded_ != nullptr) return Backend::kSharded;
    if (sharded_store_ != nullptr) return Backend::kShardedStore;
    return Backend::kNone;
  }
  bool valid() const { return backend() != Backend::kNone; }
  /// True when Insert/Erase are available (every backend but the static
  /// Engine).
  bool supports_updates() const {
    return dyn_ != nullptr || sharded_ != nullptr || sharded_store_ != nullptr;
  }

  /// The backend's immutable state for pinned calls. Holding a Pin keeps
  /// the captured structures alive; an empty (default-constructed) Pin
  /// makes the pinned calls below answer the live state.
  struct Pin {
    std::shared_ptr<const dyn::CombinedView> view;
  };
  /// The view queries read from. With a warm view (the shard router's
  /// cache hit, or always for a dynamic or static engine) this allocates
  /// nothing.
  Pin Capture() const;

  /// Dispatches one request against the current live state. Never aborts
  /// on bad arguments — vacuous requests (eps/tau out of range, Insert
  /// without a point, updates on a static backend, QuantifyExact on a
  /// mixed discrete/continuous set) come back as error statuses, because
  /// a server must outlive its clients' mistakes.
  QueryResponse Call(const QueryRequest& request) const;

  /// Dispatches against pinned state: queries answer as of the capture,
  /// updates apply to the live backend and invalidate nothing the pin
  /// holds.
  QueryResponse Call(const QueryRequest& request, const Pin& pin) const;

  // Backend pass-throughs the batch executor and server need, over the
  // pinned state (the live state when `pin` is empty):
  /// Builds every structure Quantify(·, eps) may need.
  void Prewarm(std::optional<double> eps = std::nullopt, const Pin& pin = Pin()) const;
  /// The spiral-vs-Monte-Carlo routing decision at this eps.
  QuantifyPlan PlanForQuantify(std::optional<double> eps = std::nullopt,
                               const Pin& pin = Pin()) const;
  size_t live_size() const;

  /// The raw backends (null unless this ref wraps that kind).
  const Engine* static_engine() const { return engine_; }
  dyn::DynamicEngine* dynamic_engine() const { return dyn_; }
  shard::ShardedEngine* sharded_engine() const { return sharded_; }
  store::ShardedStore* sharded_store() const { return sharded_store_; }

 private:
  QueryResponse Dispatch(const QueryRequest& request, const Pin* pin) const;
  QueryResponse ApplyUpdate(const QueryRequest& request) const;
  /// The pinned view, or the live one when `pin` holds none.
  std::shared_ptr<const dyn::CombinedView> ViewOf(const Pin* pin) const;
  /// The engine options and pool of the backend queries read from (the
  /// store's live router for the durable backend; no pool for the static
  /// Engine, whose direct methods run without one).
  const Engine::Options& view_options() const;
  exec::ThreadPool* view_pool() const;
  /// The shard router queries read from; null unless sharded-shaped.
  const shard::ShardedEngine* sharded_view() const {
    return sharded_store_ != nullptr ? &sharded_store_->engine() : sharded_;
  }

  const Engine* engine_ = nullptr;
  std::shared_ptr<const dyn::CombinedView> static_view_;  // EngineView(engine_).
  dyn::DynamicEngine* dyn_ = nullptr;
  shard::ShardedEngine* sharded_ = nullptr;
  store::ShardedStore* sharded_store_ = nullptr;
};

}  // namespace api
}  // namespace pnn

#endif  // PNN_API_ENGINE_REF_H_
