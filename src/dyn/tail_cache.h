// Per-snapshot cache of Monte-Carlo tail samples: every live tail entry's
// round-r sample is McSample(point, seed, r, id) — a pure function of
// (seed, r, id), the sample a bucket engine holds for that id — so the
// samples are drawn once per snapshot and shared by every query against
// it. This is the only place tail samples are drawn: MergedMonteCarloQuantify
// reads them from the snapshot's cache (or, for a hand-built snapshot
// without one, from a query-local cache). The cache object rides on the
// Snapshot (see Snapshot::tail_mc): a new snapshot publish
// (insert/erase/merge, or a new combined union in the shard router) starts
// a fresh empty cache, which is exactly the required invalidation.
//
// Concurrency mirrors Engine::EnsureRounds: extensions serialize on a
// mutex, readers take lock-free atomic-shared_ptr snapshots, and an
// extension copies the rounds already drawn, so rows stay bit-identical at
// any rounds progression.

#ifndef PNN_DYN_TAIL_CACHE_H_
#define PNN_DYN_TAIL_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/dyn/dynamic_engine.h"

namespace pnn {
namespace dyn {

/// One immutable generation of tail samples: the live entry at snapshot
/// tail position tail_index[j] has row j of `samples`, the point-major
/// block a bucket engine keeps (Engine::EnsureRounds), so the evaluator
/// reads bucket and tail rows alike.
struct TailSamples {
  uint64_t seed = 0;
  std::vector<uint32_t> tail_index;  // Live entries' positions, ascending.
  McSamples samples{0, 0};
};

class TailMcCache {
 public:
  /// Samples for rounds [0, rounds) of every live tail entry of `snap`,
  /// built on demand. `snap` must be the snapshot this cache was published
  /// with (the live tail set is fixed per snapshot); `seed` is the engine
  /// seed and must not vary across calls on one cache.
  std::shared_ptr<const TailSamples> Ensure(const Snapshot& snap, size_t rounds,
                                            uint64_t seed);

 private:
  std::mutex mu_;  // Serializes extensions.
  // Accessed with std::atomic_load/atomic_store (the Engine snapshot
  // pattern): readers are lock-free once enough rounds exist.
  std::shared_ptr<const TailSamples> cur_;
};

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_TAIL_CACHE_H_
