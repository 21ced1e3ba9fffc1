// Cross-query answer memoization: a small sharded LRU from (query kind,
// query point, resolved eps) to the finished answer, hung off each
// published Snapshot (and each shard CombinedView's union snapshot).
//
// Keying off the snapshot object is what makes invalidation free — every
// insert/erase/merge/compaction/rebalance publishes a NEW snapshot with a
// fresh (empty) cache, so a hit can never observe a stale answer, and the
// old cache ages out with the last query still holding its snapshot. The
// engines are deterministic per snapshot (same snapshot + same eps + same
// seed => bit-identical answer), so serving a copy of a previous result is
// semantically invisible; what a hit skips is the entire evaluation: plan
// selection, Monte-Carlo rounds, the k-way merge, the final sort.
//
// Allocation discipline (the PR 4 zero-alloc warm-path contract):
//   * a hit copies into the caller's warm buffer with assign() — no heap
//     traffic once the buffer has capacity;
//   * a miss inserts by overwriting the shard's LRU slot in place, also
//     with assign() — the evicted entry's vectors keep their capacity, so
//     a warm steady state of misses allocates nothing either. Slots are
//     created lazily (first inserts into a fresh cache allocate; the
//     rewarm passes absorb that, exactly like the scratch arenas).
//
// Concurrency: per-shard std::mutex around a linear scan of at most
// kEntriesPerShard entries — the same "tiny critical section beside a
// lock-free snapshot" shape as Engine::EnsureRounds. Queries on different shards
// never contend; hit/miss counters are relaxed atomics (BatchStats reads
// their deltas).

#ifndef PNN_DYN_ANSWER_CACHE_H_
#define PNN_DYN_ANSWER_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/core/prob/quantify.h"
#include "src/dyn/bucket.h"
#include "src/geometry/point2.h"

namespace pnn {
namespace dyn {

class AnswerCache {
 public:
  /// What a key's answer is: id lists for NonzeroNN, quantification lists
  /// for the (eps-keyed) approximate and the exact paths. ThresholdNN and
  /// MostLikelyNN derive from Quantify in both engines, so they ride the
  /// kQuantify entries without kinds of their own.
  enum class Kind : uint8_t { kNonzeroNN = 0, kQuantify = 1, kQuantifyExact = 2 };

  struct Key {
    Kind kind = Kind::kNonzeroNN;
    Point2 q{0.0, 0.0};
    double eps = 0.0;  // Resolved eps for kQuantify; 0 for the others.
  };

  AnswerCache() = default;
  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// On hit, copies the cached ids into *out (cleared via assign) and
  /// returns true. Kind must be kNonzeroNN.
  bool LookupIds(const Key& key, std::vector<Id>* out);
  /// Records the answer for `key`, overwriting the shard's LRU slot (or
  /// the slot already holding `key`, if two queries raced the same miss).
  void InsertIds(const Key& key, const std::vector<Id>& ids);

  /// The quantification-valued twins (kQuantify / kQuantifyExact keys).
  bool LookupQuants(const Key& key, std::vector<Quantification>* out);
  void InsertQuants(const Key& key, const std::vector<Quantification>& quants);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  Stats stats() const {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

  /// Total entry capacity (shards * entries per shard) — lets tests and
  /// benches size their working sets around the eviction boundary.
  static constexpr size_t Capacity() { return kShards * kEntriesPerShard; }

 private:
  struct Entry {
    uint64_t tick = 0;
    Key key;
    // Exactly one is meaningful (key.kind); both persist across evictions
    // so an overwritten slot donates its capacity to the new answer.
    std::vector<Id> ids;
    std::vector<Quantification> quants;
  };
  struct Shard {
    std::mutex mu;
    uint64_t tick = 0;  // LRU clock; bumped on every touch.
    std::vector<Entry> entries;  // Lazily grown, never beyond the cap.
  };

  static constexpr size_t kShards = 8;
  static constexpr size_t kEntriesPerShard = 16;

  Shard& ShardFor(const Key& key);
  /// Entry holding `key`, or nullptr. Caller holds shard.mu.
  Entry* FindLocked(Shard& shard, const Key& key);
  /// Slot to write `key` into: its current entry, a fresh slot below the
  /// cap, or the LRU victim. Caller holds shard.mu.
  Entry* SlotLocked(Shard& shard, const Key& key);

  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_ANSWER_CACHE_H_
