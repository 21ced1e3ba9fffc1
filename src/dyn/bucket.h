// One immutable Bentley–Saxe bucket of the dynamic engine: a frozen slice
// of the live set with its own static pnn::Engine, plus a lazily extended
// cache of per-round Monte-Carlo instantiations keyed by stable point ids.
//
// A bucket never changes after construction; erases are tombstone masks
// kept next to the bucket in the engine's snapshot, and growth happens by
// building a new bucket and swapping snapshots (queries never block).

#ifndef PNN_DYN_BUCKET_H_
#define PNN_DYN_BUCKET_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/core/pnn.h"
#include "src/exec/thread_pool.h"

namespace pnn {
namespace dyn {

/// Stable identifier of an inserted point (assigned sequentially, so
/// ascending-id order equals insertion order equals the rank order of a
/// fresh static Engine over the live set).
using Id = int;

class Bucket {
 public:
  /// `ids` must be ascending and parallel to `points`; both non-empty.
  /// `options` is the dynamic engine's shared Engine configuration (its
  /// mc_stream_ids, if any, are ignored: the bucket engine's own
  /// Monte-Carlo path is unused).
  Bucket(std::vector<Id> ids, UncertainSet points, Engine::Options options);

  /// Adoption form for SlicedBucketBuilder: wraps an engine built
  /// elsewhere (in bounded steps) without re-running construction.
  Bucket(std::vector<Id> ids, std::unique_ptr<Engine> engine);

  const std::vector<Id>& ids() const { return ids_; }
  const UncertainSet& points() const { return engine_->points(); }
  const Engine& engine() const { return *engine_; }
  size_t size() const { return ids_.size(); }

  /// Local index of `id`, or -1 (binary search; ids are ascending).
  int LocalIndex(Id id) const;

  /// Rounds [0, rounds) of the Monte-Carlo cache, building any missing
  /// suffix (on `pool` when provided) with BuildMcRounds over the members,
  /// stream ids = member ids, at the engine's seed and kd leaf width —
  /// exactly the rounds a static MonteCarloPNN with those stream ids
  /// builds, so a cross-bucket argmin per round reproduces its per-round
  /// nearest neighbor. Builds serialize on an internal mutex; the
  /// completed prefix is shared structurally between extensions, and
  /// readers holding an older McRounds keep it alive via shared_ptr.
  std::shared_ptr<const McRounds> EnsureRounds(size_t rounds,
                                               exec::ThreadPool* pool) const;

 private:
  std::vector<Id> ids_;
  std::unique_ptr<Engine> engine_;  // Never null.

  mutable std::mutex mc_mu_;  // Serializes round-cache extensions.
  // Accessed with std::atomic_load/atomic_store (the Engine snapshot
  // pattern): readers are lock-free once enough rounds exist.
  mutable std::shared_ptr<const McRounds> mc_;
};

/// Builds a Bucket in bounded steps — the sliced-compaction unit of the
/// dynamic engine's maintenance. Wraps EngineBuilder (each Step is at most
/// ~chunk points of gathering, or one kd build fanning out per-subtree on
/// the engine options' build_pool) and assembles the Bucket at Finish.
/// The produced bucket is identical to Bucket(ids, points, options).
class SlicedBucketBuilder {
 public:
  /// Same preconditions as the Bucket constructor. chunk = 0 builds in
  /// one Step per stage.
  SlicedBucketBuilder(std::vector<Id> ids, UncertainSet points,
                      Engine::Options options, size_t chunk);

  bool done() const { return builder_.done(); }
  void Step() { builder_.Step(); }
  std::shared_ptr<const Bucket> Finish();

 private:
  std::vector<Id> ids_;
  EngineBuilder builder_;
};

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_BUCKET_H_
