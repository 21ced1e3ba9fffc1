// pnn::api — the unified query surface: one request/response pair for
// every backend.
//
// Every backend answers the same five query kinds (NonzeroNN, Quantify,
// QuantifyExact, ThresholdNN, MostLikelyNN) plus, when mutable,
// Insert/Erase. QueryRequest is a tagged union over those seven kinds,
// QueryResponse the matching result variant plus a status and server-side
// timing, and api::EngineRef (engine_ref.h) dispatches either against any
// backend through the one evaluator over a pinned view
// (dyn/view_query.h). The wire protocol (serve/protocol.h) serializes
// exactly these types, and exec::BatchEngine::RequestBatch batches them.
//
// Semantics are exactly the direct methods': answers through the api are
// bit-identical to the direct calls (tests/api_engine_ref_test.cc
// differential-tests randomized op streams on every backend). The
// one deliberate difference is error handling — direct calls PNN_CHECK
// (abort) on vacuous arguments, while a server must keep running, so
// Validate()/EngineRef return kInvalidArgument statuses instead.

#ifndef PNN_API_QUERY_H_
#define PNN_API_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/prob/quantify.h"
#include "src/geometry/point2.h"
#include "src/uncertain/uncertain_point.h"

namespace pnn {
namespace api {

/// Global point id — dyn::Id (int) widened nowhere: the static Engine's
/// vector<int> indices and the dynamic/sharded ids share this type.
using Id = int;

/// The operation a QueryRequest asks for. Values are part of the wire
/// protocol (docs/protocol.md); append only, never renumber.
enum class QueryKind : uint8_t {
  kNonzeroNN = 0,     // NN!=0(q): ids with positive NN probability.
  kQuantify = 1,      // pi_i(q) within additive eps.
  kQuantifyExact = 2, // Exact pi_i(q).
  kThresholdNN = 3,   // ids with pi_i(q) > tau.
  kMostLikelyNN = 4,  // argmax_i pi_i(q).
  kInsert = 5,        // Add a point (mutable backends only).
  kErase = 6,         // Remove a point by id (mutable backends only).
};

const char* QueryKindName(QueryKind kind);

/// Response status. Values are part of the wire protocol; append only.
enum class StatusCode : uint8_t {
  kOk = 0,
  /// Malformed request: bad kind, eps/tau out of range, missing point.
  kInvalidArgument = 1,
  /// The request's deadline passed before execution started. The server
  /// always answers with this status — expired requests are never
  /// silently dropped.
  kDeadlineExceeded = 2,
  /// Shed by admission control: the server's pending queue was full.
  kOverloaded = 3,
  /// The backend cannot perform this kind (Insert/Erase on a static
  /// Engine).
  kUnimplemented = 4,
  /// Server-side failure (decode of a result, internal inconsistency).
  kInternal = 5,
  /// The backend exists but temporarily refuses this operation — a
  /// degraded read-only store vetoing mutations until its disk heals.
  /// Retryable: the op was NOT applied. Queries keep answering kOk.
  kUnavailable = 6,
};

const char* StatusCodeName(StatusCode status);

/// One operation against any pnn backend: a tagged union over the five
/// query kinds plus Insert/Erase. Only the fields of the active kind are
/// meaningful; the factories below set exactly those.
struct QueryRequest {
  QueryKind kind = QueryKind::kNonzeroNN;
  Point2 q{0.0, 0.0};              // All query kinds.
  std::optional<double> eps;       // kQuantify/kThresholdNN/kMostLikelyNN;
                                   // nullopt = the engine's default_eps.
  double tau = 0.0;                // kThresholdNN; must be in [0, 1].
  std::optional<UncertainPoint> point;  // kInsert.
  Id id = -1;                      // kErase.
  /// Deadline budget in microseconds from server receipt; 0 = none.
  /// In-process callers (EngineRef) ignore it — deadlines are a serving
  /// concern (serve::Server checks before execution).
  uint64_t deadline_micros = 0;

  static QueryRequest NonzeroNN(Point2 q);
  static QueryRequest Quantify(Point2 q, std::optional<double> eps = std::nullopt);
  static QueryRequest QuantifyExact(Point2 q);
  static QueryRequest ThresholdNN(Point2 q, double tau,
                                  std::optional<double> eps = std::nullopt);
  static QueryRequest MostLikelyNN(Point2 q, std::optional<double> eps = std::nullopt);
  static QueryRequest Insert(UncertainPoint point);
  static QueryRequest Erase(Id id);

  bool is_update() const {
    return kind == QueryKind::kInsert || kind == QueryKind::kErase;
  }
  /// True for the kinds whose execution consults the spiral-vs-Monte-Carlo
  /// plan rule (the batch executor's plan statistics).
  bool is_quantify_like() const {
    return kind == QueryKind::kQuantify || kind == QueryKind::kThresholdNN ||
           kind == QueryKind::kMostLikelyNN;
  }
};

/// Argument validation shared by EngineRef and the server: kOk, or the
/// kInvalidArgument every dispatcher returns instead of tripping the
/// direct methods' PNN_CHECKs. `detail` (optional) receives a message.
StatusCode Validate(const QueryRequest& request, std::string* detail = nullptr);

/// The answer to one QueryRequest. Only the result member matching the
/// request kind is set (and only when status == kOk, except Erase, which
/// reports an unknown id as kOk with id = -1, matching the direct call's
/// `false`).
struct QueryResponse {
  StatusCode status = StatusCode::kOk;
  QueryKind kind = QueryKind::kNonzeroNN;
  std::vector<Id> ids;                 // kNonzeroNN, ascending.
  std::vector<Quantification> quants;  // kQuantify/kQuantifyExact/kThresholdNN.
  Id id = -1;                          // kMostLikelyNN / kInsert / kErase.
  /// Server-side execution time of this request, microseconds (0 until a
  /// server fills it; EngineRef leaves it 0 — in-process calls are timed
  /// by their caller).
  double server_micros = 0.0;
  /// Human-readable detail for non-kOk statuses.
  std::string message;

  bool ok() const { return status == StatusCode::kOk; }

  static QueryResponse Error(StatusCode status, QueryKind kind, std::string message);
};

}  // namespace api
}  // namespace pnn

#endif  // PNN_API_QUERY_H_
