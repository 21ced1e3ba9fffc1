// The durable store: one StoreCore (segments + op log + manifest) per
// shard under <dir>/shard-<i>/, wired into shard::ShardedEngine through
// its UpdateListener write-ahead hook — every acked Insert/Erase/move is
// appended (and by default fdatasync'd) to the owning shard's log BEFORE
// the router applies it. With sharded.num_shards = 1 it is the durable
// single engine. Open refuses a directory it would open half-empty: one
// holding a shard at or beyond num_shards, or a root MANIFEST (the retired
// single-engine layout).
//
// Rebalance moves are the cross-shard case: OnMove logs the move as an
// (id, point, move_seq) delta on BOTH shards — kMoveIn on the destination
// first, then kMoveOut on the source, each synced before the engines
// change. A crash between the two leaves the id live in both shards'
// logged state; recovery resolves the duplicate toward the highest
// move_seq (the destination's kMoveIn always carries a newer seq than
// whatever last placed the id on the source) and durably erases the loser,
// so a mid-move crash recovers to a consistent single placement.
//
// IO failures degrade per shard (see store.h "Failure model"): a shard
// whose log cannot ack vetoes its mutations through the listener hooks —
// the router applies nothing — while the other shards and all queries
// keep working. A half-logged move (kMoveIn durable on the destination,
// kMoveOut append failed on the source) is rolled back by truncating the
// destination's log to its pre-move offset; otherwise the dangling
// kMoveIn would resurrect the point after a crash even though the move
// was refused.

#ifndef PNN_STORE_SHARDED_STORE_H_
#define PNN_STORE_SHARDED_STORE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/shard/sharded_engine.h"
#include "src/store/store.h"

namespace pnn {
namespace store {

/// Thread safety matches ShardedEngine: queries through engine() are
/// lock-free and concurrent; mutations serialize on the router's update
/// mutex, with the listener's log work under a nested store mutex.
class ShardedStore : public shard::UpdateListener {
 public:
  struct Options {
    /// Router configuration. `sharded.listener` is overwritten (the store
    /// is the listener); the per-shard engine seed is pinned into every
    /// shard's manifest and must match on reopen.
    shard::Options sharded;
    /// Fdatasync each shard's log before the mutation applies.
    bool fsync = true;
  };

  /// Opens or initializes <dir>/shard-<i>/ for every shard, recovers each
  /// (segments + log replay), resolves mid-move cross-shard duplicates by
  /// move_seq, and seals the router. Corruption beyond a torn log tail
  /// aborts, and so does a directory holding <dir>/MANIFEST or a
  /// <dir>/shard-<i>/MANIFEST with i >= num_shards (reopening with MORE
  /// shards is fine: the new shards start empty).
  static std::unique_ptr<ShardedStore> Open(const std::string& dir,
                                            Options options);

  ~ShardedStore() override;

  /// Logs to the owning shard, syncs, applies, acks (the router invokes
  /// the write-ahead listener internally). Non-OK when the owning shard's
  /// store is degraded and could not heal — the op was vetoed before any
  /// state changed.
  util::StatusOr<dyn::Id> Insert(UncertainPoint point);

  /// OK(false) if `id` is not live (nothing logged); non-OK when the
  /// owning shard's store refused the ack.
  util::StatusOr<bool> Erase(dyn::Id id);

  /// Forces a log rotation on every shard (healing degraded ones first).
  /// Returns the first failure but still attempts every shard. Requires
  /// external quiescence: no concurrent mutations or rebalance (a rotation
  /// between another op's log append and its apply would drop that op from
  /// the new generation).
  util::Status Checkpoint();

  /// False while ANY shard's store is degraded read-only (that shard's
  /// mutations are vetoed until a heal succeeds; queries keep serving).
  bool healthy() const;
  /// The first degraded shard's error (Ok when healthy).
  util::Status status() const;

  /// The live router. Mutating it directly is safe — the listener is
  /// wired in, so even engine().Insert() is durable — but prefer the
  /// store's methods.
  const shard::ShardedEngine& engine() const { return *engine_; }
  shard::ShardedEngine& engine() { return *engine_; }

  uint32_t num_shards() const { return static_cast<uint32_t>(cores_.size()); }
  std::vector<Stats> stats() const;  // One entry per shard.
  const std::string& dir() const { return dir_; }

  // shard::UpdateListener — invoked by the router under its update mutex,
  // before (On*) / after (OnApplied) each mutation applies. Each hook
  // first tries to heal a degraded core; false = veto (the shard's store
  // still cannot ack — the router must not apply the mutation):
  bool OnInsert(uint32_t shard, dyn::Id id, const UncertainPoint& point) override;
  bool OnErase(uint32_t shard, dyn::Id id) override;
  bool OnMove(uint32_t src, uint32_t dst, dyn::Id id,
              const UncertainPoint& point) override;
  void OnApplied(uint32_t shard) override;

 private:
  ShardedStore(const std::string& dir, Options options);
  void Recover();
  util::Status EnsureShardHealthyLocked(uint32_t shard);
  bool Veto(util::Status status);  // Records the error, returns false.

  std::string dir_;
  Options options_;
  /// Guards cores_ and the counters. Lock order: router mutex -> mu_
  /// (listener callbacks); Checkpoint/stats take mu_ alone.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<StoreCore>> cores_;
  dyn::Id next_id_ = 0;          // Mirrors the router's id counter.
  uint64_t next_move_seq_ = 1;   // Monotone across all shards' moves.
  /// Veto channel from the listener hooks back to Insert/Erase (the
  /// router's return values alone cannot distinguish "not live" from
  /// "refused"). Under concurrent mutations an error may be attributed to
  /// the wrong caller, but only while some shard genuinely refused an op —
  /// the status is correct even when the correlation is approximate.
  uint64_t veto_count_ = 0;
  util::Status last_veto_error_;
  /// Declared last: destroyed first, so background rebalance quiesces
  /// (via the router's destructor) while the listener and cores are
  /// still alive.
  std::unique_ptr<shard::ShardedEngine> engine_;
};

}  // namespace store
}  // namespace pnn

#endif  // PNN_STORE_SHARDED_STORE_H_
