// pnn::store — durable bucket snapshots + append-only op log with crash
// recovery and degraded-mode serving, for one shard's directory.
//
// StoreCore is the per-shard bookkeeping behind store::ShardedStore (the
// only durable store; one shard is the single-engine store). The owner
// logs every acked Insert/Erase through it BEFORE applying it:
//   * each op is appended to the op log (CRC-framed) and — by default —
//     fdatasync'd before the engine applies it and the call returns, so
//     an acked op is never lost;
//   * whenever maintenance changes the bucket set (merge/compaction), the
//     next mutation rotates the log: new buckets are serialized to
//     checksummed segment files, a fresh log generation re-describes the
//     tombstone masks and live tail, and the manifest is atomically swapped
//     to point at them — keeping the log proportional to the brute-force
//     tail instead of the history;
//   * Open() recovers by mapping the manifest's segments (adopting their
//     kd layouts — no rebuilds) and handing the log tail back for replay
//     through the engine's normal insert/erase path, after truncating a
//     torn final record. A corrupt frame is never accepted; recovered
//     answers are bit-identical to a fresh static Engine over exactly the
//     acked live set (tests/store_recovery_test.cc).
//
// Failure model (docs/persistence.md "Failure model", docs/faults.md):
// IO failures after open do NOT abort. Any failed append, sync or
// checkpoint step puts the core in DEGRADED READ-ONLY state: the failing
// op is refused (never acked), every subsequent mutation returns
// kUnavailable, and queries keep serving from the in-memory engine —
// which holds exactly the acked history. Each refused mutation first
// attempts a Heal: truncate the log back to the last fully-acked boundary
// (discarding any torn or un-acked frames), reopen, and probe with an
// fdatasync; if a checkpoint's manifest install failed ambiguously, heal
// instead requires a full re-checkpoint under a fresh generation number
// (failed generations are never reused — a failed install may still have
// reached disk). Once a heal succeeds the core acks mutations again.
//
// Ordering invariant behind all of it: segment data and directory entries
// are fsynced before the log that references them, and the log before the
// manifest that references both — so a durable manifest implies a durable,
// internally consistent store image. See docs/persistence.md.

#ifndef PNN_STORE_STORE_H_
#define PNN_STORE_STORE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/dyn/dynamic_engine.h"
#include "src/store/io.h"
#include "src/store/log.h"
#include "src/store/manifest.h"
#include "src/util/status.h"

namespace pnn {
namespace store {

/// Counters for tests, benchmarks and ops visibility.
struct Stats {
  uint64_t log_appends = 0;
  uint64_t log_syncs = 0;
  uint64_t checkpoints = 0;
  uint64_t segments_written = 0;
  uint64_t segments_reused = 0;
  // Degraded-mode lifecycle:
  uint64_t degraded_entries = 0;    // Healthy -> degraded transitions.
  uint64_t heals = 0;               // Successful degraded -> healthy probes.
  uint64_t checkpoint_failures = 0; // Rotation attempts abandoned mid-way.
  // Recovery (set once by Open):
  uint64_t recovered_buckets = 0;
  uint64_t recovered_ops = 0;           // Log records replayed into the engine.
  uint64_t skipped_duplicate_ops = 0;   // Replayed records that were no-ops.
  uint64_t truncated_log_bytes = 0;     // Torn tail discarded by recovery.
};

/// Log/segment/manifest bookkeeping for one shard's directory
/// (ShardedStore owns one core per shard). Not thread-safe; the owner
/// serializes all calls (the router's update lock via its listener, plus
/// the store's own mutex).
class StoreCore {
 public:
  /// What Open() recovered, for the owner to build its engine from.
  struct OpenResult {
    bool fresh = false;                 // No manifest: initialized empty.
    Manifest manifest;                  // Valid when !fresh.
    /// Buckets loaded from segments with their log-prescribed masks, in
    /// snapshot order: this shard's list for ShardedEngine's recovery
    /// constructor.
    std::vector<dyn::RecoveredBucket> recovered;
    /// Op records to replay on top (the checkpoint's tail re-description
    /// followed by post-checkpoint mutations), in log order. kMask records
    /// are already folded into `recovered` and do not appear here.
    std::vector<LogRecord> ops;
  };

  /// `engine_options` must carry the seed the store's segments were cut
  /// under (checked against both manifest and segments). `fsync` false
  /// trades durability of the last few ops for speed — frames are still
  /// CRC-gated, so recovery never accepts garbage, it just may lose
  /// unsynced acks (the bench's comparison mode).
  StoreCore(std::string dir, Engine::Options engine_options, bool fsync);

  /// Opens or initializes the directory; leaves the live log open for
  /// appends. Aborts on disk corruption (bad manifest, unloadable segment,
  /// a checkpoint whose pre-manifest delta records are missing) AND on IO
  /// failure — open-time IO failure has no acked state to protect, and a
  /// store that cannot write its first manifest is not a store; degraded
  /// mode starts only after a successful open. Tolerates and truncates a
  /// torn log tail.
  OpenResult Open();

  /// Frames, appends and fdatasyncs one record (seqno assigned here; no
  /// sync when fsync is disabled). A successful return is the ack
  /// boundary: the record is durable and survives Heal()'s rollback. On
  /// failure the record is NOT acked, the core enters the failed state
  /// (healthy() false, all further appends refused), and any torn bytes
  /// are reclaimed by the next successful Heal().
  util::Status Append(LogRecord rec);

  /// Rotates iff `snap`'s bucket pointer set differs from the one the
  /// current log generation describes. Call after applying a mutation.
  util::Status MaybeCheckpoint(const dyn::Snapshot& snap, int64_t next_id,
                               uint64_t move_seq);

  /// Unconditional rotation against `snap`: writes segments for unseen
  /// buckets, starts a fresh generation with mask/tail delta records,
  /// atomically installs the manifest, then deletes the old generation's
  /// log and any dropped segments. On failure NOTHING is committed — the
  /// old generation stays live, generation numbers of failed attempts are
  /// never reused, and abandoned files are reclaimed as orphans at the
  /// next Open(). A failure at or after the manifest install additionally
  /// poisons the old log (the install may have reached disk, making old-
  /// log appends unrecoverable), so Heal() re-runs the rotation instead of
  /// probing.
  util::Status Checkpoint(const dyn::Snapshot& snap, int64_t next_id,
                          uint64_t move_seq);

  /// Attempts to leave the failed state. Tear repair: truncate the log to
  /// the last acked boundary, reopen, probe with an fdatasync. Manifest
  /// ambiguity: re-run Checkpoint(snap, ...) under a fresh generation.
  /// No-op when healthy. On failure the core stays failed and the error
  /// is returned.
  util::Status Heal(const dyn::Snapshot& snap, int64_t next_id,
                    uint64_t move_seq);

  /// False once any append/sync/checkpoint step failed; mutations are
  /// refused until a Heal() succeeds. Queries are unaffected — the owner
  /// keeps serving its in-memory engine.
  bool healthy() const { return !failed_; }

  /// The failure that entered the current degraded episode (Ok when
  /// healthy).
  const util::Status& last_error() const { return last_error_; }

  /// Logical end-of-log offset (bytes successfully appended). Pair with
  /// RollbackTo to undo appends that must not survive — ShardedStore's
  /// move rollback: if the destination logged kMoveIn but the source
  /// failed to log kMoveOut, the dangling kMoveIn would resurrect the
  /// point after a crash.
  uint64_t LogOffset() const { return log_bytes_; }

  /// Discards every append past `offset` (same generation as when the
  /// offset was taken — no checkpoint may intervene): truncates, reopens
  /// and re-probes the log. Leaves the core failed if the repair itself
  /// fails.
  util::Status RollbackTo(uint64_t offset);

  /// Marks recovery complete for bookkeeping done by the owner.
  void NoteRecoveredOps(uint64_t replayed, uint64_t skipped);

  const std::string& dir() const { return dir_; }
  uint64_t generation() const { return generation_; }
  const Stats& stats() const { return stats_; }

 private:
  void InitFresh();
  void CleanupOrphans(const std::vector<uint64_t>& live_segments);
  util::Status Fail(util::Status status);   // Enter/extend the failed state.
  util::Status HealTear();                  // Truncate + reopen + probe.
  std::string SegmentPath(uint64_t file_id) const;
  std::string LogPath(uint64_t generation) const;

  std::string dir_;
  Engine::Options engine_options_;
  bool fsync_ = true;

  File log_;
  uint64_t generation_ = 0;
  uint64_t next_generation_ = 1;  // Ticket counter; failed attempts burn one.
  uint64_t seqno_ = 1;
  uint64_t next_file_id_ = 1;
  /// Degraded state. log_bytes_ is the logical log length (every byte of
  /// every successful append); healthy_bytes_ trails it at the last ack
  /// boundary (successful Append) and is where Heal() truncates back to.
  bool failed_ = false;
  bool manifest_dirty_ = false;  // Failed install may be durable.
  util::Status last_error_;
  uint64_t log_bytes_ = 0;
  uint64_t healthy_bytes_ = 0;
  /// Buckets the current generation's manifest covers, with their segment
  /// file ids. Keyed by bucket pointer identity (shared_ptrs keep the
  /// address from being recycled): buckets are immutable, so pointer
  /// equality is version equality.
  std::vector<std::pair<std::shared_ptr<const dyn::Bucket>, uint64_t>> tracked_;
  Stats stats_;
};

}  // namespace store
}  // namespace pnn

#endif  // PNN_STORE_STORE_H_
