// Parallel batch query executor over any pnn backend — the in-process
// equivalent of a pod-style request fan-out: one shared read-only set of
// structures (kd-trees, spiral quantifier, Monte-Carlo instantiations),
// many queries answered concurrently on a work-stealing pool.
//
// The executor speaks api::QueryRequest / api::QueryResponse through one
// api::EngineRef, and RequestBatch() is its only batch method: the serving
// layer's network batches land there, and in-process callers build request
// vectors (MixedOp::ToRequest converts the streaming-churn ops).
//
// Determinism contract: RequestBatch returns results bit-identical to
// answering the requests one by one on a single thread, at any thread
// count. This holds because (a) all structures are prewarmed before the
// fan-out and queried through const, side-effect-free paths, and (b) the
// Monte-Carlo structure derives point id's round-r sample from the stream
// MakeStreamRng(SplitSeed(seed, r), id) (see util/rng.h), so it is the
// same structure no matter which thread triggers its construction. Exact
// distance ties included: every round's winner is the lowest tied id
// (pnn::McQuantifyRowsInto).

#ifndef PNN_EXEC_BATCH_ENGINE_H_
#define PNN_EXEC_BATCH_ENGINE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/api/engine_ref.h"
#include "src/api/query.h"
#include "src/core/pnn.h"
#include "src/dyn/dynamic_engine.h"
#include "src/exec/thread_pool.h"

namespace pnn {
namespace exec {

struct BatchOptions {
  /// Total concurrency, counting the calling thread (which participates in
  /// every batch). 1 = fully sequential; 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Batches smaller than this run inline on the calling thread, skipping
  /// fan-out overhead.
  size_t min_parallel_batch = 32;
};

/// Per-batch execution statistics.
struct BatchStats {
  size_t num_queries = 0;
  size_t threads = 0;          // Threads actually used (1 when run inline).
  double wall_seconds = 0.0;
  double queries_per_sec = 0.0;
  /// Plan mix of the quantification-kind requests, each counted against
  /// the pin its query run answered on (0/0 without such requests).
  size_t spiral_plans = 0;
  size_t monte_carlo_plans = 0;
  /// Per-query latency percentiles, microseconds.
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  /// Update ops and their latency percentiles (0/0/0 for pure query
  /// batches).
  size_t num_updates = 0;
  double update_p50_micros = 0.0;
  double update_p99_micros = 0.0;
  /// dyn::AnswerCache traffic attributable to this batch: counter deltas
  /// on the pinned snapshot/view's cache across each query run. Duplicate
  /// requests within a batch dedup here — the first evaluation populates
  /// the pinned cache and the repeats hit it. 0/0 for backends without a
  /// cache (static Engine, caches disabled) or when another thread shares
  /// the same snapshot concurrently the split is approximate.
  size_t answer_cache_hits = 0;
  size_t answer_cache_misses = 0;
};

/// A batch answer: `values[i]` answers `queries[i]`, plus the stats.
template <typename T>
struct BatchResult {
  std::vector<T> values;
  BatchStats stats;
};

/// One operation of a mixed update/query stream (workload/streaming.h
/// generates them); it converts 1:1 into the api::QueryRequest that
/// RequestBatch takes (ToRequest).
struct MixedOp {
  enum class Kind { kInsert, kErase, kNonzeroNN, kQuantify, kThresholdNN };

  static MixedOp Insert(UncertainPoint p) {
    MixedOp op;
    op.kind = Kind::kInsert;
    op.point = std::move(p);
    return op;
  }
  static MixedOp Erase(dyn::Id id) {
    MixedOp op;
    op.kind = Kind::kErase;
    op.id = id;
    return op;
  }
  static MixedOp NonzeroNN(Point2 q) {
    MixedOp op;
    op.kind = Kind::kNonzeroNN;
    op.q = q;
    return op;
  }
  static MixedOp Quantify(Point2 q) {
    MixedOp op;
    op.kind = Kind::kQuantify;
    op.q = q;
    return op;
  }
  static MixedOp ThresholdNN(Point2 q, double tau) {
    MixedOp op;
    op.kind = Kind::kThresholdNN;
    op.q = q;
    op.tau = tau;
    return op;
  }

  bool is_update() const { return kind == Kind::kInsert || kind == Kind::kErase; }

  /// The api::QueryRequest this op denotes (`eps` applies to the
  /// quantification kinds).
  api::QueryRequest ToRequest(std::optional<double> eps) const;

  Kind kind = Kind::kNonzeroNN;
  std::optional<UncertainPoint> point;  // kInsert.
  dyn::Id id = -1;                      // kErase.
  Point2 q{0, 0};                       // Query kinds.
  double tau = 0.0;                     // kThresholdNN.
};

/// The requests an op stream denotes, in order (MixedOp::ToRequest each).
std::vector<api::QueryRequest> ToRequests(const std::vector<MixedOp>& ops,
                                          std::optional<double> eps = std::nullopt);

/// Answers vectors of queries in parallel against a shared backend behind
/// an api::EngineRef. The backend must outlive the BatchEngine; the
/// BatchEngine itself is thread-compatible (use one per batching thread, or
/// serialize calls).
class BatchEngine {
 public:
  /// Any backend through the type-erased handle.
  explicit BatchEngine(api::EngineRef ref, BatchOptions options = {});

  /// Applies a mixed stream of api::QueryRequests in order. Updates run
  /// sequentially at their stream positions; each maximal run of
  /// consecutive queries pins the backend state once
  /// (EngineRef::Capture), prewarms and counts plans against that pin,
  /// and fans out over the pool. Results are identical to a fully
  /// sequential replay at any thread count; per-request errors come back
  /// as response statuses, never aborts. Deadlines are NOT enforced here —
  /// serve::Server sheds expired requests before batches reach this point.
  BatchResult<api::QueryResponse> RequestBatch(
      const std::vector<api::QueryRequest>& requests) const;

  /// The type-erased backend handle.
  const api::EngineRef& ref() const { return ref_; }
  size_t num_threads() const { return pool_ ? pool_->size() + 1 : 1; }

 private:
  /// For every valid quantification-kind request in [begin, end): prewarms
  /// the pinned state once per distinct eps (so the fan-out never contends
  /// on lazy structure construction) and counts the request's plan.
  void PrepareRun(const std::vector<api::QueryRequest>& requests, size_t begin,
                  size_t end, const api::EngineRef::Pin& pin, BatchStats* stats) const;

  api::EngineRef ref_;
  BatchOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // Null when num_threads == 1.
};

}  // namespace exec
}  // namespace pnn

#endif  // PNN_EXEC_BATCH_ENGINE_H_
