#include "src/store/sharded_store.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/store/io.h"
#include "src/util/check.h"

namespace pnn {
namespace store {

namespace {

/// The move_seq that last placed `id` on a shard; 0 = plain insert or
/// segment-resident (its placing record was checkpointed away — any live
/// kMoveIn elsewhere is necessarily newer).
uint64_t PlacedSeq(const std::unordered_map<dyn::Id, uint64_t>& m, dyn::Id id) {
  auto it = m.find(id);
  return it == m.end() ? 0 : it->second;
}

/// A replayed record's id. Ids on disk are i64, but only [0, max Id) was
/// ever assigned (the last id would leave no next one), so a CRC-valid
/// record outside it is corruption, not a crash: abort rather than narrow
/// it onto some other point's id.
dyn::Id ReplayedId(const LogRecord& rec) {
  PNN_CHECK_MSG(rec.id >= 0 && rec.id < std::numeric_limits<dyn::Id>::max(),
                "sharded store: record id out of range");
  return static_cast<dyn::Id>(rec.id);
}

/// Open-time layout guard: a store opened with fewer shards than its
/// directory holds would silently serve a subset of the acked points, and
/// the retired single-engine layout (MANIFEST at the root) would open as
/// an empty store beside it. Both abort, like any open-time corruption.
void RefuseForeignLayout(const std::string& dir, uint32_t num_shards) {
  PNN_CHECK_MSG(!PathExists(dir + "/MANIFEST"),
                "sharded store: the directory holds a root MANIFEST (the "
                "retired single-engine layout); refusing to open it");
  std::vector<std::string> names;
  PNN_CHECK_MSG(ListDir(dir, &names).ok(), "sharded store: cannot list root dir");
  for (const std::string& name : names) {
    unsigned shard = 0;
    char tail = 0;
    if (std::sscanf(name.c_str(), "shard-%u%c", &shard, &tail) != 1) continue;
    PNN_CHECK_MSG(shard < num_shards || !PathExists(dir + "/" + name + "/MANIFEST"),
                  "sharded store: the directory holds a shard at or beyond "
                  "num_shards; reopen with at least as many shards as it "
                  "was written with");
  }
}

}  // namespace

ShardedStore::ShardedStore(const std::string& dir, Options options)
    : dir_(dir), options_(std::move(options)) {
  PNN_CHECK_MSG(options_.sharded.num_shards >= 1, "num_shards must be >= 1");
  options_.sharded.listener = this;
  PNN_CHECK_MSG(EnsureDir(dir_).ok(), "sharded store: cannot create root dir");
  RefuseForeignLayout(dir_, options_.sharded.num_shards);
  Engine::Options engine_options = options_.sharded.shard.engine;
  engine_options.mc_stream_ids.clear();
  cores_.reserve(options_.sharded.num_shards);
  for (uint32_t s = 0; s < options_.sharded.num_shards; ++s) {
    cores_.push_back(std::make_unique<StoreCore>(
        dir_ + "/shard-" + std::to_string(s), engine_options, options_.fsync));
  }
}

ShardedStore::~ShardedStore() = default;

std::unique_ptr<ShardedStore> ShardedStore::Open(const std::string& dir,
                                                 Options options) {
  std::unique_ptr<ShardedStore> store(
      new ShardedStore(dir, std::move(options)));
  store->Recover();
  return store;
}

void ShardedStore::Recover() {
  const uint32_t n = num_shards();
  std::vector<StoreCore::OpenResult> results;
  results.reserve(n);
  for (auto& core : cores_) results.push_back(core->Open());

  std::vector<std::vector<dyn::RecoveredBucket>> recovered(n);
  int64_t floor = 0;  // Ids on disk are i64; live ids fit dyn::Id (checked).
  uint64_t next_move_seq = 1;
  for (uint32_t s = 0; s < n; ++s) {
    recovered[s] = std::move(results[s].recovered);
    if (!results[s].fresh) {
      floor = std::max(floor, results[s].manifest.next_id);
      next_move_seq = std::max(next_move_seq, results[s].manifest.move_seq);
    }
  }
  engine_ = std::make_unique<shard::ShardedEngine>(std::move(recovered),
                                                   options_.sharded);

  // Replay each shard's log tail through the router's recovery surface
  // (idempotent: duplicated records are skipped), tracking per shard the
  // move_seq that last placed each live id there by a move (absent = 0:
  // a plain insert, or a placement the checkpoint folded away).
  std::vector<std::unordered_map<dyn::Id, uint64_t>> placed_seq(n);
  for (uint32_t s = 0; s < n; ++s) {
    uint64_t replayed = 0;
    uint64_t skipped = 0;
    for (const LogRecord& rec : results[s].ops) {
      switch (rec.type) {
        case LogRecordType::kInsert:
        case LogRecordType::kMoveIn: {
          PNN_CHECK_MSG(rec.point.has_value(),
                        "sharded store: insert/move-in record without a point");
          dyn::Id id = ReplayedId(rec);
          floor = std::max<int64_t>(floor, id + 1);
          if (rec.type == LogRecordType::kMoveIn) {
            next_move_seq = std::max(next_move_seq, rec.move_seq + 1);
          }
          if (engine_->RecoverInsert(s, id, *rec.point)) {
            if (rec.type == LogRecordType::kMoveIn) placed_seq[s][id] = rec.move_seq;
            ++replayed;
          } else {
            ++skipped;
          }
          break;
        }
        case LogRecordType::kErase:
        case LogRecordType::kMoveOut: {
          if (rec.type == LogRecordType::kMoveOut) {
            next_move_seq = std::max(next_move_seq, rec.move_seq + 1);
          }
          dyn::Id id = ReplayedId(rec);
          if (engine_->RecoverErase(s, id)) {
            placed_seq[s].erase(id);
            ++replayed;
          } else {
            ++skipped;
          }
          break;
        }
        default:
          PNN_CHECK_MSG(false, "sharded store: unexpected record type in "
                               "replay ops (checkpoint/mask are folded by "
                               "StoreCore::Open)");
      }
    }
    cores_[s]->NoteRecoveredOps(replayed, skipped);
  }

  // Seal the router; it reports each mid-move duplicate — a crash between
  // the destination's kMoveIn and the apply leaves the id live on both
  // shards' logged state. The shard whose placement move_seq is highest
  // keeps it (the destination's kMoveIn is strictly newer than whatever
  // last placed the id on the source), and the loser gets a durable erase
  // so the next recovery agrees without re-deciding.
  PNN_CHECK_MSG(floor <= std::numeric_limits<dyn::Id>::max(),
                "sharded store: manifest next id out of range");
  next_id_ = engine_->FinishRecovery(
      static_cast<dyn::Id>(floor), [&](dyn::Id id, uint32_t a, uint32_t b) {
        uint64_t seq_a = PlacedSeq(placed_seq[a], id);
        uint64_t seq_b = PlacedSeq(placed_seq[b], id);
        PNN_CHECK_MSG(seq_a != seq_b,
                      "sharded store: id live on two shards with equal "
                      "placement seq — logs are inconsistent beyond a "
                      "single torn move");
        uint32_t loser = seq_a > seq_b ? b : a;
        LogRecord rec;
        rec.type = LogRecordType::kErase;
        rec.id = id;
        // Open-time, like StoreCore::Open: no acked state to protect yet,
        // so a failure to durably resolve the duplicate is fatal.
        PNN_CHECK_MSG(cores_[loser]->Append(std::move(rec)).ok(),
                      "sharded store: cannot log mid-move duplicate resolution");
        return loser;
      });
  next_move_seq_ = next_move_seq;

  // Fold recovered logs forward: if replay's inserts triggered merges (or
  // a segment-described bucket set no longer matches), rotate now so the
  // next crash replays from segments instead of the whole tail again.
  engine_->WaitForMaintenance();
  for (uint32_t s = 0; s < n; ++s) {
    // A failed rotation just opens that shard degraded — its first
    // mutation retries via the heal path in the listener hooks.
    (void)cores_[s]->MaybeCheckpoint(*engine_->ShardSnapshot(s), next_id_,
                                     next_move_seq_);
  }
}

util::Status ShardedStore::EnsureShardHealthyLocked(uint32_t shard) {
  StoreCore& core = *cores_[shard];
  if (core.healthy()) return util::Status::Ok();
  // No WaitForMaintenance here — the router's mutex is held (deadlock) and
  // a rotation against the current snapshot is correct regardless.
  return core.Heal(*engine_->ShardSnapshot(shard), next_id_, next_move_seq_);
}

bool ShardedStore::Veto(util::Status status) {
  ++veto_count_;
  last_veto_error_ = std::move(status);
  return false;
}

util::StatusOr<dyn::Id> ShardedStore::Insert(UncertainPoint point) {
  dyn::Id id = engine_->Insert(std::move(point));
  if (id >= 0) return id;
  // -1 only happens on a listener veto, which recorded its cause.
  std::lock_guard<std::mutex> lock(mu_);
  return last_veto_error_;
}

util::StatusOr<bool> ShardedStore::Erase(dyn::Id id) {
  uint64_t vetoes_before;
  {
    std::lock_guard<std::mutex> lock(mu_);
    vetoes_before = veto_count_;
  }
  if (engine_->Erase(id)) return true;
  std::lock_guard<std::mutex> lock(mu_);
  if (veto_count_ != vetoes_before) return last_veto_error_;
  return false;  // Not live (nothing was logged).
}

util::Status ShardedStore::Checkpoint() {
  engine_->WaitForMaintenance();
  std::lock_guard<std::mutex> lock(mu_);
  util::Status first = util::Status::Ok();
  for (uint32_t s = 0; s < num_shards(); ++s) {
    util::Status st = EnsureShardHealthyLocked(s);
    if (st.ok()) {
      st = cores_[s]->Checkpoint(*engine_->ShardSnapshot(s), next_id_,
                                 next_move_seq_);
    }
    if (!st.ok() && first.ok()) first = std::move(st);
  }
  return first;
}

bool ShardedStore::healthy() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& core : cores_) {
    if (!core->healthy()) return false;
  }
  return true;
}

util::Status ShardedStore::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& core : cores_) {
    if (!core->healthy()) return core->last_error();
  }
  return util::Status::Ok();
}

std::vector<Stats> ShardedStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Stats> out;
  out.reserve(cores_.size());
  for (const auto& core : cores_) out.push_back(core->stats());
  return out;
}

bool ShardedStore::OnInsert(uint32_t shard, dyn::Id id,
                            const UncertainPoint& point) {
  std::lock_guard<std::mutex> lock(mu_);
  util::Status st = EnsureShardHealthyLocked(shard);
  if (!st.ok()) return Veto(std::move(st));
  next_id_ = std::max(next_id_, id + 1);
  LogRecord rec;
  rec.type = LogRecordType::kInsert;
  rec.id = id;
  rec.point = point;
  st = cores_[shard]->Append(std::move(rec));
  if (!st.ok()) return Veto(std::move(st));
  return true;
}

bool ShardedStore::OnErase(uint32_t shard, dyn::Id id) {
  std::lock_guard<std::mutex> lock(mu_);
  util::Status st = EnsureShardHealthyLocked(shard);
  if (!st.ok()) return Veto(std::move(st));
  LogRecord rec;
  rec.type = LogRecordType::kErase;
  rec.id = id;
  st = cores_[shard]->Append(std::move(rec));
  if (!st.ok()) return Veto(std::move(st));
  return true;
}

bool ShardedStore::OnMove(uint32_t src, uint32_t dst, dyn::Id id,
                          const UncertainPoint& point) {
  std::lock_guard<std::mutex> lock(mu_);
  util::Status st = EnsureShardHealthyLocked(dst);
  if (st.ok()) st = EnsureShardHealthyLocked(src);
  if (!st.ok()) return Veto(std::move(st));
  uint64_t seq = next_move_seq_++;
  // Destination first: if we crash between the two appends, the id is
  // live on both logs and recovery keeps the destination (higher seq).
  // The reverse order could durably lose the point (logged out of the
  // source, never into the destination).
  const uint64_t dst_mark = cores_[dst]->LogOffset();
  LogRecord in;
  in.type = LogRecordType::kMoveIn;
  in.id = id;
  in.move_seq = seq;
  in.point = point;
  st = cores_[dst]->Append(std::move(in));
  if (!st.ok()) return Veto(std::move(st));
  LogRecord out;
  out.type = LogRecordType::kMoveOut;
  out.id = id;
  out.move_seq = seq;
  st = cores_[src]->Append(std::move(out));
  if (!st.ok()) {
    // The destination's kMoveIn is durable but the move is being refused;
    // left in place it would resurrect the id there after a crash (its
    // move_seq outranks the source's live placement). Truncate it back
    // out. If even the rollback fails the destination core stays failed
    // with its ack boundary at the mark, so its next heal truncates the
    // record anyway.
    (void)cores_[dst]->RollbackTo(dst_mark);
    return Veto(std::move(st));
  }
  return true;
}

void ShardedStore::OnApplied(uint32_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  // The op above is already acked; a failed rotation only degrades this
  // shard's future mutations (healed by the next one through the hooks).
  (void)cores_[shard]->MaybeCheckpoint(*engine_->ShardSnapshot(shard), next_id_,
                                       next_move_seq_);
}

}  // namespace store
}  // namespace pnn
