// Answer checks for the suite: a served or batched response must equal the
// answer of a reference backend to the same request, after the reference's
// point indices are mapped to the ids the backend under test assigned.
//
// The reference for the sharded workloads is a fresh static
// Engine(LiveSet(&ids), ReferenceEngineOptions()), which the engines
// promise to match bit for bit on NonzeroNN, Quantify, ThresholdNN and
// MostLikelyNN. QuantifyExact is compared to 1e-9: the cross-part survival
// products reassociate (src/dyn/merge.h).

#ifndef PNN_BENCH_SUITE_VERIFY_H_
#define PNN_BENCH_SUITE_VERIFY_H_

#include <cmath>
#include <cstdio>
#include <vector>

#include "src/api/engine_ref.h"
#include "src/api/query.h"

namespace pnn {
namespace suite {

class Verifier {
 public:
  /// Answers `request` on `reference` (a static-engine ref) and compares.
  /// `ids[i]` is the id of the reference's point i (null = identity).
  void Check(const api::QueryRequest& request, const api::QueryResponse& got,
             const api::EngineRef& reference, const std::vector<int>* ids) {
    Compare(request, got, reference.Call(request), ids);
  }

  /// Compares `got` with an already computed reference answer. Responses
  /// the server refused (shed, deadline) are the failure count's business,
  /// not an answer to check.
  void Compare(const api::QueryRequest& request, const api::QueryResponse& got,
               const api::QueryResponse& want, const std::vector<int>* ids) {
    if (got.status == api::StatusCode::kOverloaded ||
        got.status == api::StatusCode::kDeadlineExceeded) {
      return;
    }
    ++checked_;
    auto map = [&](int i) { return ids == nullptr || i < 0 ? i : (*ids)[i]; };
    bool same = got.status == want.status && got.kind == want.kind;
    if (same && got.ok()) {
      switch (request.kind) {
        case api::QueryKind::kNonzeroNN:
          same = got.ids.size() == want.ids.size();
          for (size_t i = 0; same && i < got.ids.size(); ++i) {
            same = got.ids[i] == map(want.ids[i]);
          }
          break;
        case api::QueryKind::kQuantify:
        case api::QueryKind::kThresholdNN:
        case api::QueryKind::kQuantifyExact: {
          double tol = request.kind == api::QueryKind::kQuantifyExact ? 1e-9 : 0.0;
          same = got.quants.size() == want.quants.size();
          for (size_t i = 0; same && i < got.quants.size(); ++i) {
            same = got.quants[i].index == map(want.quants[i].index) &&
                   std::fabs(got.quants[i].probability - want.quants[i].probability) <=
                       tol;
          }
          break;
        }
        case api::QueryKind::kMostLikelyNN:
          same = got.id == map(want.id);
          break;
        default:
          break;
      }
    }
    if (!same) Mismatch(request, "answer differs from the reference");
  }

  /// Records a failed invariant that is not a per-request comparison.
  void Fail(const char* what) {
    ++checked_;
    ++mismatches_;
    std::fprintf(stderr, "verify: %s\n", what);
  }
  void Pass() { ++checked_; }

  size_t checked() const { return checked_; }
  size_t mismatches() const { return mismatches_; }

 private:
  void Mismatch(const api::QueryRequest& request, const char* what) {
    if (mismatches_++ < 5) {
      std::fprintf(stderr, "verify: %s %s at (%.17g, %.17g)\n",
                   api::QueryKindName(request.kind), what, request.q.x, request.q.y);
    }
  }

  size_t checked_ = 0;
  size_t mismatches_ = 0;
};

}  // namespace suite
}  // namespace pnn

#endif  // PNN_BENCH_SUITE_VERIFY_H_
