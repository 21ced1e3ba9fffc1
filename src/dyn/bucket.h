// One immutable Bentley–Saxe bucket of the dynamic engine: a frozen slice
// of the live set under ascending stable ids, with its own static
// pnn::Engine. The engine samples Monte-Carlo rounds under the bucket's
// ids (Engine::Options::mc_stream_ids, the only copy of them), so its
// sample block (Engine::EnsureRounds) holds exactly the rows a static
// engine over the whole live set draws for these points.
//
// A bucket never changes after construction; erases are tombstone masks
// kept next to the bucket in the engine's snapshot, and growth happens by
// building a new bucket and swapping snapshots (queries never block).

#ifndef PNN_DYN_BUCKET_H_
#define PNN_DYN_BUCKET_H_

#include <memory>
#include <vector>

#include "src/core/pnn.h"

namespace pnn {
namespace dyn {

/// Stable identifier of an inserted point (assigned sequentially, so
/// ascending-id order equals insertion order equals the rank order of a
/// fresh static Engine over the live set).
using Id = int;

class Bucket {
 public:
  /// `ids` must be ascending and parallel to `points`; both non-empty.
  /// `options` is the dynamic engine's shared Engine configuration; the
  /// bucket engine's mc_stream_ids become `ids`, the one copy id() reads.
  Bucket(const std::vector<Id>& ids, UncertainSet points, Engine::Options options);

  /// Adoption form: wraps an engine built elsewhere (a loaded segment, the
  /// live tail's index-free engine) whose mc_stream_ids are the bucket's
  /// ascending ids. With `by_index` the bucket names the points by index
  /// instead, whatever stream ids the engine samples under: a static
  /// engine's one-part view (dyn::EngineView), which borrows the engine (a
  /// no-op deleter), so the engine must outlive every call.
  explicit Bucket(std::shared_ptr<const Engine> engine, bool by_index = false);

  /// The stable id of local point `local`.
  Id id(size_t local) const {
    return static_cast<Id>(ids_ != nullptr ? ids_[local] : local);
  }
  const UncertainSet& points() const { return engine_->points(); }
  const Engine& engine() const { return *engine_; }
  size_t size() const { return engine_->points().size(); }

  /// Local index of `id`, or -1 (binary search; ids are ascending).
  int LocalIndex(Id id) const;

 private:
  std::shared_ptr<const Engine> engine_;  // Never null.
  // engine_'s mc_stream_ids, or null when the bucket names points by index.
  const uint64_t* ids_;
};

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_BUCKET_H_
