#include "src/store/store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/store/segment.h"
#include "src/util/check.h"

namespace pnn {
namespace store {

namespace {

constexpr char kManifestName[] = "MANIFEST";

std::string FormatU64(const char* prefix, uint64_t v, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%llu%s", prefix,
                static_cast<unsigned long long>(v), suffix);
  return buf;
}

/// Open-time failures abort (see StoreCore::Open): there is no acked state
/// to protect yet, and a store that cannot write its root files is not a
/// store. Degraded mode exists only after a successful open.
void OrDie(const util::Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "pnn store: fatal at open (%s): %s\n", what,
               st.ToString().c_str());
  std::abort();
}

}  // namespace

// --- StoreCore ------------------------------------------------------------

StoreCore::StoreCore(std::string dir, Engine::Options engine_options, bool fsync)
    : dir_(std::move(dir)), engine_options_(std::move(engine_options)),
      fsync_(fsync) {}

std::string StoreCore::SegmentPath(uint64_t file_id) const {
  return dir_ + "/" + FormatU64("seg-", file_id, ".seg");
}

std::string StoreCore::LogPath(uint64_t generation) const {
  return dir_ + "/" + FormatU64("oplog-", generation, "");
}

util::Status StoreCore::Fail(util::Status status) {
  if (!failed_) {
    failed_ = true;
    ++stats_.degraded_entries;
  }
  last_error_ = status;
  return status;
}

void StoreCore::InitFresh() {
  generation_ = 1;
  next_generation_ = 2;
  std::string head;
  LogRecord cp;
  cp.type = LogRecordType::kCheckpoint;
  cp.seqno = seqno_++;
  cp.generation = generation_;
  cp.next_id = 0;
  cp.delta_count = 0;
  AppendLogRecord(cp, &head);
  {
    util::StatusOr<File> f = File::Create(LogPath(generation_));
    OrDie(f.status(), "create initial log");
    OrDie(f->Append(head.data(), head.size()), "write initial log");
    OrDie(f->Sync(), "sync initial log");
    log_ = std::move(*f);
  }
  log_bytes_ = healthy_bytes_ = head.size();
  // The log's direntry, before the manifest references it.
  OrDie(SyncDir(dir_), "sync store directory");
  Manifest m;
  m.generation = generation_;
  m.next_id = 0;
  m.move_seq = 0;
  m.engine_seed = engine_options_.seed;
  OrDie(WriteManifest(dir_ + "/" + kManifestName, m), "install initial manifest");
}

StoreCore::OpenResult StoreCore::Open() {
  OrDie(EnsureDir(dir_), "create store directory");
  OpenResult result;
  Manifest m;
  if (!ReadManifest(dir_ + "/" + kManifestName, &m)) {
    InitFresh();
    result.fresh = true;
    result.manifest.generation = generation_;
    result.manifest.engine_seed = engine_options_.seed;
    CleanupOrphans({});
    return result;
  }
  PNN_CHECK_MSG(m.engine_seed == engine_options_.seed,
                "store: engine seed does not match the manifest's (segments "
                "were cut under a different seed)");
  result.manifest = m;
  generation_ = m.generation;
  next_generation_ = m.generation + 1;

  // Map and adopt every live segment, one thread per segment (the decode
  // is CPU-bound and the buckets are independent; Bentley-Saxe sizes mean
  // the largest bucket bounds the wall clock). A manifest-referenced
  // segment was fully fsynced before the manifest was installed, so
  // failure here is disk corruption, not a crash artifact.
  result.recovered.resize(m.segments.size());
  {
    std::vector<std::thread> loaders;
    loaders.reserve(m.segments.size());
    for (size_t i = 0; i < m.segments.size(); ++i) {
      loaders.emplace_back([this, &result, &m, i] {
        std::string error;
        result.recovered[i].bucket =
            LoadSegment(SegmentPath(m.segments[i]), engine_options_, &error);
      });
    }
    for (std::thread& t : loaders) t.join();
  }
  for (size_t i = 0; i < m.segments.size(); ++i) {
    PNN_CHECK_MSG(result.recovered[i].bucket != nullptr,
                  "store: manifest-referenced segment failed to load (disk "
                  "corruption)");
    next_file_id_ = std::max(next_file_id_, m.segments[i] + 1);
  }
  stats_.recovered_buckets = m.segments.size();

  // Replay the live log generation up to the first bad frame.
  const std::string log_path = LogPath(generation_);
  LogReplay replay = ReadLog(log_path);
  PNN_CHECK_MSG(!replay.records.empty() &&
                    replay.records[0].type == LogRecordType::kCheckpoint &&
                    replay.records[0].generation == generation_,
                "store: live log lacks its checkpoint head (the head was "
                "fsynced before the manifest — disk corruption)");
  const uint64_t delta_count = replay.records[0].delta_count;
  // The delta region (masks + tail re-description) was durable before the
  // manifest pointed at this generation; a tear inside it cannot be a
  // crash.
  PNN_CHECK_MSG(replay.records.size() >= 1 + delta_count,
                "store: checkpoint delta torn (disk corruption)");

  for (size_t i = 1; i < replay.records.size(); ++i) {
    LogRecord& rec = replay.records[i];
    if (rec.type == LogRecordType::kMask) {
      PNN_CHECK_MSG(i < 1 + delta_count,
                    "store: mask record outside the checkpoint delta");
      PNN_CHECK_MSG(rec.segment_ordinal < result.recovered.size(),
                    "store: mask names a segment the manifest does not");
      dyn::RecoveredBucket& rb = result.recovered[rec.segment_ordinal];
      rb.dead.resize(rb.bucket->size(), 0);
      PNN_CHECK_MSG(rec.local_index < rb.dead.size(),
                    "store: mask index outside its bucket");
      rb.dead[rec.local_index] = 1;
    } else {
      result.ops.push_back(std::move(rec));
    }
  }

  if (replay.truncated) {
    // Normal crash shape: a torn append past the delta region (or frames a
    // pre-crash degraded episode never healed). Discard it so future
    // appends extend a clean prefix.
    {
      util::StatusOr<File> probe = File::OpenAppend(log_path);
      OrDie(probe.status(), "open live log");
      stats_.truncated_log_bytes = probe->Size() - replay.valid_bytes;
    }
    OrDie(TruncateFile(log_path, replay.valid_bytes), "truncate torn log tail");
  }
  {
    util::StatusOr<File> f = File::OpenAppend(log_path);
    OrDie(f.status(), "open live log");
    log_ = std::move(*f);
  }
  log_bytes_ = healthy_bytes_ = replay.valid_bytes;
  seqno_ = replay.records.back().seqno + 1;

  // tracked_ pairs the recovered buckets with their segment files, so the
  // first post-recovery checkpoint only writes buckets that changed.
  tracked_.clear();
  for (size_t i = 0; i < result.recovered.size(); ++i) {
    tracked_.emplace_back(result.recovered[i].bucket, m.segments[i]);
  }
  CleanupOrphans(m.segments);
  return result;
}

void StoreCore::CleanupOrphans(const std::vector<uint64_t>& live_segments) {
  // Best-effort reclamation of files no manifest references (failed
  // checkpoint attempts, pre-crash temp files): a failure here is retried
  // at the next open, never surfaced.
  std::vector<std::string> names;
  if (!ListDir(dir_, &names).ok()) return;
  for (const std::string& name : names) {
    unsigned long long v = 0;
    if (std::sscanf(name.c_str(), "seg-%llu.seg", &v) == 1) {
      if (std::find(live_segments.begin(), live_segments.end(),
                    static_cast<uint64_t>(v)) == live_segments.end()) {
        (void)RemoveFileIfExists(dir_ + "/" + name);
      }
    } else if (std::sscanf(name.c_str(), "oplog-%llu", &v) == 1) {
      if (v != generation_) (void)RemoveFileIfExists(dir_ + "/" + name);
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      (void)RemoveFileIfExists(dir_ + "/" + name);
    }
  }
}

util::Status StoreCore::Append(LogRecord rec) {
  if (failed_) {
    return util::Status::Unavailable("store: degraded read-only (" +
                                     last_error_.ToString() + ")");
  }
  rec.seqno = seqno_++;
  std::string frame;
  AppendLogRecord(rec, &frame);
  util::Status st = log_.Append(frame.data(), frame.size());
  // On failure an unknown prefix of the frame may be in the file past
  // log_bytes_ — a tear. healthy_bytes_ still marks the acked boundary;
  // HealTear truncates the tear away before the next append.
  if (!st.ok()) return Fail(std::move(st));
  log_bytes_ += frame.size();
  ++stats_.log_appends;
  if (fsync_) {
    st = log_.Sync();
    if (!st.ok()) return Fail(std::move(st));
    ++stats_.log_syncs;
  }
  healthy_bytes_ = log_bytes_;  // The ack boundary heals roll back to.
  return util::Status::Ok();
}

util::Status StoreCore::MaybeCheckpoint(const dyn::Snapshot& snap,
                                        int64_t next_id, uint64_t move_seq) {
  if (failed_) {
    return util::Status::Unavailable("store: degraded read-only (" +
                                     last_error_.ToString() + ")");
  }
  bool same = snap.buckets.size() == tracked_.size();
  for (size_t i = 0; same && i < tracked_.size(); ++i) {
    same = snap.buckets[i].bucket.get() == tracked_[i].first.get();
  }
  if (!same) return Checkpoint(snap, next_id, move_seq);
  return util::Status::Ok();
}

util::Status StoreCore::Checkpoint(const dyn::Snapshot& snap, int64_t next_id,
                                   uint64_t move_seq) {
  // Transactional: no member state is committed until the manifest install
  // returns OK, so a failed attempt leaves the old generation live and
  // MaybeCheckpoint simply retries later. The generation number and file
  // ids an attempt consumed are burned, never reused — a failed install
  // may still have reached disk, and a reused oplog-N name would let a
  // durable manifest reference a rewritten log. Abandoned files become
  // orphans the next Open() reclaims.

  // 1. Segments for buckets this core has not serialized yet. Data is
  // fsynced per file; one directory fsync below covers the new entries.
  std::vector<std::pair<std::shared_ptr<const dyn::Bucket>, uint64_t>> tracked;
  std::vector<uint64_t> segments;
  for (const dyn::Snapshot::BucketRef& ref : snap.buckets) {
    uint64_t file_id = 0;
    bool found = false;
    for (const auto& [bucket, id] : tracked_) {
      if (bucket.get() == ref.bucket.get()) {
        file_id = id;
        found = true;
        break;
      }
    }
    if (!found) {
      file_id = next_file_id_++;
      util::Status st = WriteSegmentFile(SegmentPath(file_id), *ref.bucket);
      if (!st.ok()) {
        ++stats_.checkpoint_failures;
        return Fail(std::move(st));
      }
      ++stats_.segments_written;
    } else {
      ++stats_.segments_reused;
    }
    tracked.emplace_back(ref.bucket, file_id);
    segments.push_back(file_id);
  }

  // 2. The next log generation: checkpoint head + delta records that
  // re-describe the snapshot's non-segment state (tombstone masks, live
  // tail). Everything the masks/tail reference is positional against
  // `segments`, so the log is self-contained given the manifest. Seqnos
  // come from a local counter committed only on success (an abandoned
  // attempt leaves a gap, which replay allows).
  // The live tail is re-described from the snapshot's tail bucket: its
  // live entries, ascending by id (replay order never reaches an answer).
  const dyn::Bucket* tail = snap.tail_bucket.get();
  uint64_t delta_count = tail != nullptr ? tail->size() : 0;
  for (const dyn::Snapshot::BucketRef& ref : snap.buckets) {
    delta_count += ref.bucket->size() - ref.live_count;
  }

  uint64_t seq = seqno_;
  const uint64_t next_generation = next_generation_++;
  std::string head;
  LogRecord cp;
  cp.type = LogRecordType::kCheckpoint;
  cp.seqno = seq++;
  cp.generation = next_generation;
  cp.next_id = next_id;
  cp.delta_count = delta_count;
  AppendLogRecord(cp, &head);
  for (size_t b = 0; b < snap.buckets.size(); ++b) {
    const std::vector<char>* dead = snap.buckets[b].dead.get();
    if (dead == nullptr) continue;
    for (size_t j = 0; j < dead->size(); ++j) {
      if ((*dead)[j] == 0) continue;
      LogRecord mask;
      mask.type = LogRecordType::kMask;
      mask.seqno = seq++;
      mask.segment_ordinal = b;
      mask.local_index = j;
      AppendLogRecord(mask, &head);
    }
  }
  for (size_t j = 0; tail != nullptr && j < tail->size(); ++j) {
    LogRecord ins;
    ins.type = LogRecordType::kInsert;
    ins.seqno = seq++;
    ins.id = tail->id(j);
    ins.point = tail->points()[j];
    AppendLogRecord(ins, &head);
  }

  File next_log;
  {
    util::StatusOr<File> f = File::Create(LogPath(next_generation));
    if (!f.ok()) {
      ++stats_.checkpoint_failures;
      return Fail(f.status());
    }
    next_log = std::move(*f);
  }
  {
    util::Status st = next_log.Append(head.data(), head.size());
    if (st.ok()) st = next_log.Sync();
    // One directory fsync makes the new log's (and any new segments')
    // direntries durable BEFORE the manifest can reference them — the
    // ordering invariant recovery's aborts rely on.
    if (st.ok()) st = SyncDir(dir_);
    if (!st.ok()) {
      ++stats_.checkpoint_failures;
      return Fail(std::move(st));
    }
  }

  // 3. Atomically switch the root pointer. A non-OK install is AMBIGUOUS:
  // the rename may have happened without its directory fsync, so the new
  // manifest could surface after a crash even though we report failure.
  // Appending to the old log would then lose acked ops — so the old log
  // is poisoned (manifest_dirty_) and only a fully successful re-rotation
  // under a fresh generation heals the core. Every attempted generation's
  // log was durable before its install attempt, so recovery is consistent
  // whichever manifest survives.
  Manifest m;
  m.generation = next_generation;
  m.next_id = next_id;
  m.move_seq = move_seq;
  m.engine_seed = engine_options_.seed;
  m.segments = segments;
  {
    util::Status st = WriteManifest(dir_ + "/" + kManifestName, m);
    if (!st.ok()) {
      manifest_dirty_ = true;
      ++stats_.checkpoint_failures;
      return Fail(std::move(st));
    }
  }

  // Commit. This is also the heal path for a manifest_dirty_ episode: the
  // newly installed manifest supersedes whatever a failed install left.
  std::string old_log = LogPath(generation_);
  std::vector<uint64_t> dropped;
  for (const auto& [bucket, id] : tracked_) {
    if (std::find(segments.begin(), segments.end(), id) == segments.end()) {
      dropped.push_back(id);
    }
  }
  log_ = std::move(next_log);
  generation_ = next_generation;
  tracked_ = std::move(tracked);
  seqno_ = seq;
  log_bytes_ = healthy_bytes_ = head.size();
  manifest_dirty_ = false;
  if (failed_) {
    failed_ = false;
    last_error_ = util::Status::Ok();
    ++stats_.heals;
  }
  ++stats_.checkpoints;

  // 4. The old generation is unreachable now; reclaim it. The ops above
  // are acked regardless, but a failing unlink still degrades the core:
  // EIO from the same device that holds the log is not a disk to keep
  // acking writes on (the orphan itself is harmless — next Open reclaims
  // it).
  util::Status cleanup = util::Status::Ok();
  for (uint64_t id : dropped) {
    util::Status st = RemoveFileIfExists(SegmentPath(id));
    if (!st.ok() && cleanup.ok()) cleanup = std::move(st);
  }
  {
    util::Status st = RemoveFileIfExists(old_log);
    if (!st.ok() && cleanup.ok()) cleanup = std::move(st);
  }
  if (!cleanup.ok()) return Fail(std::move(cleanup));
  return util::Status::Ok();
}

util::Status StoreCore::Heal(const dyn::Snapshot& snap, int64_t next_id,
                             uint64_t move_seq) {
  if (!failed_) return util::Status::Ok();
  if (manifest_dirty_) return Checkpoint(snap, next_id, move_seq);
  return HealTear();
}

util::Status StoreCore::HealTear() {
  // Truncate whatever reached the file past the acked boundary (a torn
  // append, or a written frame whose fdatasync failed), reopen, and probe
  // the device with the same fdatasync a real append needs. Only a full
  // round trip flips the core back to healthy.
  log_.Close();
  util::Status st = TruncateFile(LogPath(generation_), healthy_bytes_);
  if (!st.ok()) return Fail(std::move(st));
  {
    util::StatusOr<File> f = File::OpenAppend(LogPath(generation_));
    if (!f.ok()) return Fail(f.status());
    log_ = std::move(*f);
  }
  if (fsync_) {
    st = log_.Sync();
    if (!st.ok()) return Fail(std::move(st));
  }
  log_bytes_ = healthy_bytes_;
  failed_ = false;
  last_error_ = util::Status::Ok();
  ++stats_.heals;
  return util::Status::Ok();
}

util::Status StoreCore::RollbackTo(uint64_t offset) {
  PNN_CHECK_MSG(offset <= log_bytes_, "store: rollback past the log end");
  if (offset == log_bytes_ && !failed_) return util::Status::Ok();
  if (healthy_bytes_ > offset) healthy_bytes_ = offset;
  if (!failed_) {
    failed_ = true;
    ++stats_.degraded_entries;
    last_error_ = util::Status::Unavailable("store: cross-shard move rollback");
  }
  return HealTear();
}

void StoreCore::NoteRecoveredOps(uint64_t replayed, uint64_t skipped) {
  stats_.recovered_ops = replayed;
  stats_.skipped_duplicate_ops = skipped;
}

}  // namespace store
}  // namespace pnn
