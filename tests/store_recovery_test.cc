// Crash-recovery robustness for the durable store (a one-shard
// pnn::store::ShardedStore, i.e. the single-engine store):
//   * the op log torn at EVERY byte offset recovers exactly the logged
//     record prefix (log level and whole-store level);
//   * a single bit flip anywhere in a record is rejected by the CRC and
//     truncates replay there — a corrupt frame is never accepted;
//   * duplicated / replayed tail records are idempotent no-ops;
//   * an empty store recovers;
//   * randomized crash-point differential: a store image copied at an
//     arbitrary acked point recovers an engine whose answers are
//     bit-identical to a fresh static Engine over exactly the acked live
//     set.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/engine_ref.h"
#include "src/store/format.h"
#include "src/store/io.h"
#include "src/store/log.h"
#include "src/store/manifest.h"
#include "src/store/sharded_store.h"
#include "src/util/crc32.h"

namespace pnn {
namespace store {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

UncertainPoint SmallDiscretePoint(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 2));
  std::vector<Point2> locs(k);
  std::vector<double> w(k, 1.0 / k);
  for (int s = 0; s < k; ++s) {
    locs[s] = {rng->Uniform(-20, 20), rng->Uniform(-20, 20)};
  }
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

UncertainPoint RichPoint(Rng* rng) {
  if (rng->Bernoulli(0.5)) {
    int k = static_cast<int>(rng->UniformInt(1, 4));
    Point2 c{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
    std::vector<Point2> locs(k);
    std::vector<double> w(k);
    double total = 0.0;
    for (int s = 0; s < k; ++s) {
      locs[s] = {c.x + rng->Uniform(-3, 3), c.y + rng->Uniform(-3, 3)};
      w[s] = rng->Uniform(0.05, 1.0);
      total += w[s];
    }
    for (int s = 0; s < k; ++s) w[s] /= total;
    return UncertainPoint::Discrete(std::move(locs), std::move(w));
  }
  Point2 c{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  double radius = rng->Uniform(0.5, 4.0);
  return rng->Bernoulli(0.3)
             ? UncertainPoint::TruncatedGaussian(c, radius, rng->Uniform(0.3, 2.0))
             : UncertainPoint::UniformDisk(c, radius);
}

std::vector<dyn::Id> LiveIds(const shard::ShardedEngine& engine) {
  std::vector<dyn::Id> ids;
  engine.LiveSet(&ids);
  return ids;
}

/// Asserts the recovered engine answers bit-identically to a fresh static
/// Engine over its live set (the acceptance bar of the whole store).
void ExpectBitIdenticalToReference(const shard::ShardedEngine& engine,
                                   uint64_t query_seed, int queries) {
  std::vector<dyn::Id> ids;
  UncertainSet live = engine.LiveSet(&ids);
  if (live.empty()) return;
  Engine reference(live, engine.ReferenceEngineOptions());
  Rng rng(query_seed);
  for (int t = 0; t < queries; ++t) {
    Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
    std::vector<dyn::Id> got_nn = engine.NonzeroNN(q);
    std::vector<dyn::Id> want_nn;
    for (int i : reference.NonzeroNN(q)) want_nn.push_back(ids[i]);
    EXPECT_EQ(got_nn, want_nn);

    std::vector<Quantification> got = engine.Quantify(q, 0.1);
    std::vector<Quantification> want = reference.Quantify(q, 0.1);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, ids[want[i].index]);
      EXPECT_EQ(got[i].probability, want[i].probability);
    }
  }
}

// ---------------------------------------------------------------------
// Log level
// ---------------------------------------------------------------------

/// A hand-built log: checkpoint head + inserts/erases, with the byte
/// boundary after each frame.
struct BuiltLog {
  std::string bytes;
  std::vector<size_t> boundaries;  // boundaries[i] = end of frame i.
  std::vector<LogRecord> records;
};

BuiltLog BuildLog(int ops, uint64_t seed) {
  BuiltLog log;
  Rng rng(seed);
  uint64_t seqno = 1;
  LogRecord head;
  head.type = LogRecordType::kCheckpoint;
  head.seqno = seqno++;
  head.generation = 1;
  head.next_id = 0;
  head.delta_count = 0;
  log.records.push_back(head);
  AppendLogRecord(head, &log.bytes);
  log.boundaries.push_back(log.bytes.size());
  for (int i = 0; i < ops; ++i) {
    LogRecord rec;
    rec.seqno = seqno++;
    if (i >= 2 && rng.Bernoulli(0.3)) {
      rec.type = LogRecordType::kErase;
      rec.id = rng.UniformInt(0, i - 1);
    } else {
      rec.type = LogRecordType::kInsert;
      rec.id = i;
      rec.point = SmallDiscretePoint(&rng);
    }
    log.records.push_back(rec);
    AppendLogRecord(rec, &log.bytes);
    log.boundaries.push_back(log.bytes.size());
  }
  return log;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Frames fully contained in the first `len` bytes.
size_t FramesWithin(const BuiltLog& log, size_t len) {
  size_t n = 0;
  while (n < log.boundaries.size() && log.boundaries[n] <= len) ++n;
  return n;
}

TEST(StoreLog, TruncationAtEveryByteOffset) {
  BuiltLog log = BuildLog(10, 101);
  std::string path = FreshDir("log_trunc") + ".log";
  for (size_t len = 0; len <= log.bytes.size(); ++len) {
    WriteBytes(path, log.bytes.substr(0, len));
    LogReplay replay = ReadLog(path);
    size_t want = FramesWithin(log, len);
    ASSERT_EQ(replay.records.size(), want) << "at byte " << len;
    EXPECT_EQ(replay.valid_bytes, want == 0 ? 0 : log.boundaries[want - 1]);
    EXPECT_EQ(replay.truncated, replay.valid_bytes != len);
    for (size_t i = 0; i < want; ++i) {
      EXPECT_EQ(replay.records[i].seqno, log.records[i].seqno);
      EXPECT_EQ(replay.records[i].type, log.records[i].type);
    }
  }
  fs::remove(path);
}

TEST(StoreLog, SingleBitFlipTruncatesAtThatRecord) {
  BuiltLog log = BuildLog(8, 103);
  std::string path = FreshDir("log_flip") + ".log";
  for (size_t frame = 0; frame < log.boundaries.size(); ++frame) {
    size_t begin = frame == 0 ? 0 : log.boundaries[frame - 1];
    size_t end = log.boundaries[frame];
    // Flip one bit at several positions inside this frame (header bytes,
    // CRC bytes and payload all included by striding through it).
    for (size_t pos = begin; pos < end; pos += 3) {
      for (uint8_t bit : {uint8_t{1}, uint8_t{0x80}}) {
        std::string corrupt = log.bytes;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ bit);
        WriteBytes(path, corrupt);
        LogReplay replay = ReadLog(path);
        // Replay accepts exactly the frames before the corrupt one —
        // never the corrupt frame itself, never anything after it.
        ASSERT_EQ(replay.records.size(), frame)
            << "bit flip at byte " << pos << " of frame " << frame;
        EXPECT_TRUE(replay.truncated);
        EXPECT_EQ(replay.valid_bytes, begin);
      }
    }
  }
  fs::remove(path);
}

TEST(StoreLog, DuplicatedReplayedFrameIsNotAcceptedTwice) {
  BuiltLog log = BuildLog(5, 107);
  std::string path = FreshDir("log_dup") + ".log";
  // A crashed writer re-appending the last frame verbatim: the second
  // copy's non-increasing seqno stops replay at the duplicate.
  size_t last_begin = log.boundaries[log.boundaries.size() - 2];
  std::string doubled = log.bytes + log.bytes.substr(last_begin);
  WriteBytes(path, doubled);
  LogReplay replay = ReadLog(path);
  EXPECT_EQ(replay.records.size(), log.records.size());
  EXPECT_TRUE(replay.truncated);
  EXPECT_EQ(replay.valid_bytes, log.bytes.size());
  fs::remove(path);
}

TEST(StoreLog, InvalidPointStopsReplayBeforeTheRecord) {
  // A CRC-valid Insert whose point is no distribution is undecodable:
  // replay keeps the records before it and never dies in UncertainPoint's
  // checks. Insert payload: type, seqno, id (17 bytes), then the point.
  struct Case {
    UncertainPoint point;
    size_t field;  // Payload offset of the f64 to overwrite.
    double value;
  };
  const Case cases[] = {
      // Disk: tag, cx, cy, then the radius.
      {UncertainPoint::UniformDisk({0, 0}, 1), 17 + 1 + 16,
       std::numeric_limits<double>::quiet_NaN()},
      // Discrete: tag, k, then x, y and the first weight: 0.4 + 0.5 = 0.9.
      {UncertainPoint::Discrete({{0, 0}, {1, 1}}, {0.5, 0.5}), 17 + 5 + 16, 0.4},
  };
  std::string path = FreshDir("log_bad_point") + ".log";
  for (const Case& c : cases) {
    LogRecord rec;
    rec.type = LogRecordType::kInsert;
    rec.seqno = 1;
    rec.id = 0;
    rec.point = c.point;
    std::string good;
    AppendLogRecord(rec, &good);
    rec.seqno = 2;
    rec.id = 1;
    std::string bad;
    AppendLogRecord(rec, &bad);
    // Frame: u32 length, u32 CRC, payload. Edit the payload, then reseal.
    std::memcpy(&bad[8 + c.field], &c.value, 8);
    std::string crc;
    PutU32(&crc, util::Crc32c(bad.data() + 8, bad.size() - 8));
    bad.replace(4, 4, crc);
    WriteBytes(path, good + bad);
    LogReplay replay = ReadLog(path);
    ASSERT_EQ(replay.records.size(), 1u);
    EXPECT_EQ(replay.records[0].id, 0);
    EXPECT_TRUE(replay.truncated);
    EXPECT_EQ(replay.valid_bytes, good.size());
  }
  fs::remove(path);
}

TEST(StoreLog, MissingFileIsEmptyReplay) {
  LogReplay replay = ReadLog(testing::TempDir() + "/no_such_log");
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.valid_bytes, 0u);
  EXPECT_FALSE(replay.truncated);
}

// ---------------------------------------------------------------------
// Store level
// ---------------------------------------------------------------------

ShardedStore::Options FastOptions() {
  ShardedStore::Options options;
  options.sharded.num_shards = 1;
  options.sharded.shard.engine.seed = 77;
  options.sharded.shard.engine.mc_rounds_override = 48;
  return options;
}

TEST(StoreRecovery, EmptyStoreRecovers) {
  std::string dir = FreshDir("store_empty");
  {
    auto store = ShardedStore::Open(dir, FastOptions());
    EXPECT_EQ(store->engine().live_size(), 0u);
  }
  auto reopened = ShardedStore::Open(dir, FastOptions());
  EXPECT_EQ(reopened->engine().live_size(), 0u);
  EXPECT_EQ(reopened->stats()[0].recovered_ops, 0u);
  // And it still works as a store.
  Rng rng(1);
  dyn::Id id = reopened->Insert(SmallDiscretePoint(&rng)).value();
  EXPECT_EQ(id, 0);
}

TEST(StoreRecovery, ChurnThenReopenIsBitIdentical) {
  std::string dir = FreshDir("store_churn");
  ShardedStore::Options options = FastOptions();
  options.sharded.shard.tail_limit = 8;  // Merges -> segments + rotations.
  std::vector<dyn::Id> acked;
  {
    auto store = ShardedStore::Open(dir, options);
    Rng rng(55);
    for (int op = 0; op < 300; ++op) {
      if (acked.empty() || rng.Bernoulli(0.65)) {
        acked.push_back(store->Insert(RichPoint(&rng)).value());
      } else {
        size_t pick = static_cast<size_t>(rng.UniformInt(0, acked.size() - 1));
        EXPECT_TRUE(store->Erase(acked[pick]).value());
        acked.erase(acked.begin() + static_cast<long>(pick));
      }
    }
  }
  std::sort(acked.begin(), acked.end());

  auto reopened = ShardedStore::Open(dir, options);
  EXPECT_EQ(LiveIds(reopened->engine()), acked);
  EXPECT_GE(reopened->stats()[0].recovered_buckets, 1u)
      << "churn at tail_limit 8 must have cut segments";
  ExpectBitIdenticalToReference(reopened->engine(), 909, 20);

  // Ids keep counting from where the crashed instance stopped: a re-used
  // id would corrupt Monte-Carlo stream identity.
  Rng rng(2);
  dyn::Id next = reopened->Insert(SmallDiscretePoint(&rng)).value();
  EXPECT_GT(next, acked.back());
}

TEST(StoreRecovery, StoreLogTruncatedAtEveryByte) {
  // Build a store whose log holds the full op history (tail_limit high:
  // no rotation), then recover from the image truncated at every byte.
  std::string dir = FreshDir("store_everybyte");
  ShardedStore::Options options = FastOptions();
  options.sharded.shard.tail_limit = 1000;
  std::vector<std::pair<LogRecordType, dyn::Id>> ops;
  {
    auto store = ShardedStore::Open(dir, options);
    Rng rng(11);
    std::set<dyn::Id> live;
    for (int i = 0; i < 12; ++i) {
      if (live.size() >= 2 && rng.Bernoulli(0.3)) {
        dyn::Id victim = *live.begin();
        ASSERT_TRUE(store->Erase(victim).value());
        live.erase(victim);
        ops.emplace_back(LogRecordType::kErase, victim);
      } else {
        dyn::Id id = store->Insert(SmallDiscretePoint(&rng)).value();
        live.insert(id);
        ops.emplace_back(LogRecordType::kInsert, id);
      }
    }
  }

  std::string log_path = dir + "/shard-0/oplog-1";
  std::string bytes;
  ASSERT_TRUE(ReadFile(log_path, &bytes));
  // Reconstruct the frame boundaries by re-encoding what the log holds
  // (framing is deterministic).
  LogReplay full = ReadLog(log_path);
  ASSERT_EQ(full.records.size(), ops.size() + 1);  // + checkpoint head.
  ASSERT_FALSE(full.truncated);
  std::vector<size_t> boundaries;
  {
    std::string acc;
    for (const LogRecord& rec : full.records) {
      AppendLogRecord(rec, &acc);
      boundaries.push_back(acc.size());
    }
    ASSERT_EQ(acc.size(), bytes.size());
  }

  // Expected live set after the first k op records.
  auto expected_after = [&](size_t k) {
    std::set<dyn::Id> live;
    for (size_t i = 0; i < k; ++i) {
      if (ops[i].first == LogRecordType::kInsert) live.insert(ops[i].second);
      else live.erase(ops[i].second);
    }
    return std::vector<dyn::Id>(live.begin(), live.end());
  };

  std::string crash_dir = FreshDir("store_everybyte_crash");
  // Below boundaries[0] the checkpoint head itself is torn — that head
  // was fsynced before the manifest referenced the log, so recovery
  // treats it as disk corruption and refuses (PNN_CHECK), covered by
  // CorruptCheckpointHeadAborts. From the head's end on, every byte
  // offset is a legal crash image.
  for (size_t len = boundaries[0]; len <= bytes.size(); ++len) {
    fs::remove_all(crash_dir);
    fs::copy(dir, crash_dir, fs::copy_options::recursive);
    TruncateFile(crash_dir + "/shard-0/oplog-1", len);
    size_t frames = FramesWithin({bytes, boundaries, {}}, len);
    auto store = ShardedStore::Open(crash_dir, options);
    EXPECT_EQ(LiveIds(store->engine()), expected_after(frames - 1))
        << "truncated at byte " << len;
    if (len != boundaries[frames - 1]) {
      EXPECT_GT(store->stats()[0].truncated_log_bytes, 0u);
    }
  }
  fs::remove_all(crash_dir);
}

TEST(StoreRecoveryDeathTest, CorruptCheckpointHeadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string dir = FreshDir("store_corrupt_head");
  {
    auto store = ShardedStore::Open(dir, FastOptions());
    Rng rng(3);
    store->Insert(SmallDiscretePoint(&rng)).value();
  }
  // Tear the log inside its checkpoint head: that region was durable
  // before the manifest was installed, so this is corruption, not a
  // crash, and recovery must refuse to invent an empty state.
  TruncateFile(dir + "/shard-0/oplog-1", 5);
  EXPECT_DEATH(ShardedStore::Open(dir, FastOptions()), "");
}

TEST(StoreRecoveryDeathTest, OutOfRangeRecordIdAborts) {
  // A CRC-valid record whose i64 id is no dyn::Id is corruption: narrowed,
  // 2^32 + 0 would replay onto live id 0 (an insert skipped as a
  // duplicate, an erase deleting the wrong point). Recovery must abort.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const int64_t kAliasOfZero = int64_t{1} << 32;
  for (LogRecordType type : {LogRecordType::kInsert, LogRecordType::kErase}) {
    for (int64_t bad : {kAliasOfZero, int64_t{INT32_MAX}, int64_t{-3}}) {
      std::string dir = FreshDir("store_bad_record_id");
      Rng rng(5);
      {
        auto store = ShardedStore::Open(dir, FastOptions());
        store->Insert(SmallDiscretePoint(&rng)).value();
      }
      std::string log_path = dir + "/shard-0/oplog-1";
      LogRecord rec;
      rec.type = type;
      rec.seqno = ReadLog(log_path).records.back().seqno + 1;
      rec.id = bad;
      if (type == LogRecordType::kInsert) rec.point = SmallDiscretePoint(&rng);
      std::string frame;
      AppendLogRecord(rec, &frame);
      {
        std::ofstream out(log_path, std::ios::binary | std::ios::app);
        out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
      }
      ASSERT_EQ(ReadLog(log_path).records.back().id, bad);  // The frame is valid.
      EXPECT_DEATH(ShardedStore::Open(dir, FastOptions()), "record id out of range")
          << "id " << bad;
    }
  }
}

TEST(StoreRecoveryDeathTest, OutOfRangeManifestNextIdAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string dir = FreshDir("store_bad_next_id");
  {
    auto store = ShardedStore::Open(dir, FastOptions());
    Rng rng(7);
    store->Insert(SmallDiscretePoint(&rng)).value();
  }
  std::string manifest_path = dir + "/shard-0/MANIFEST";
  Manifest m;
  ASSERT_TRUE(ReadManifest(manifest_path, &m));
  m.next_id = int64_t{1} << 40;  // Would narrow to 0.
  ASSERT_TRUE(WriteManifest(manifest_path, m).ok());
  EXPECT_DEATH(ShardedStore::Open(dir, FastOptions()), "next id out of range");
}

TEST(StoreRecovery, DuplicatedTailRecordsAreIdempotent) {
  std::string dir = FreshDir("store_dup_ops");
  ShardedStore::Options options = FastOptions();
  Rng rng(21);
  UncertainPoint p0 = SmallDiscretePoint(&rng);
  {
    auto store = ShardedStore::Open(dir, options);
    store->Insert(p0).value();
    store->Insert(SmallDiscretePoint(&rng)).value();
    store->Insert(SmallDiscretePoint(&rng)).value();
  }
  // A replayed mutation re-appended with a fresh seqno (e.g. a retried
  // writer): insert of a live id and erase of a never-live id must both
  // be skipped, not aborted and not double-applied.
  std::string log_path = dir + "/shard-0/oplog-1";
  LogReplay before = ReadLog(log_path);
  ASSERT_FALSE(before.records.empty());
  uint64_t seqno = before.records.back().seqno;
  std::string extra;
  LogRecord dup;
  dup.type = LogRecordType::kInsert;
  dup.seqno = ++seqno;
  dup.id = 0;
  dup.point = p0;
  AppendLogRecord(dup, &extra);
  LogRecord ghost;
  ghost.type = LogRecordType::kErase;
  ghost.seqno = ++seqno;
  ghost.id = 999;
  AppendLogRecord(ghost, &extra);
  {
    std::ofstream out(log_path, std::ios::binary | std::ios::app);
    out.write(extra.data(), static_cast<std::streamsize>(extra.size()));
  }

  auto store = ShardedStore::Open(dir, options);
  EXPECT_EQ(store->engine().live_size(), 3u);
  EXPECT_EQ(LiveIds(store->engine()), (std::vector<dyn::Id>{0, 1, 2}));
  EXPECT_EQ(store->stats()[0].skipped_duplicate_ops, 2u);
  ExpectBitIdenticalToReference(store->engine(), 5, 5);
}

TEST(StoreRecovery, RandomizedCrashPointDifferential) {
  // Deterministic op stream; at random acked points, copy the directory
  // (every acked op is fsynced, so the copy is exactly what a crash
  // would leave) and later verify each image recovers bit-identically.
  std::string dir = FreshDir("store_crashpoints");
  ShardedStore::Options options = FastOptions();
  options.sharded.shard.tail_limit = 8;
  options.sharded.shard.max_dead_fraction = 0.3;

  struct CrashImage {
    std::string dir;
    std::vector<dyn::Id> acked;
  };
  std::vector<CrashImage> images;
  {
    auto store = ShardedStore::Open(dir, options);
    Rng rng(4242);
    std::vector<dyn::Id> acked;
    for (int op = 0; op < 250; ++op) {
      if (acked.empty() || rng.Bernoulli(0.6)) {
        acked.push_back(store->Insert(RichPoint(&rng)).value());
      } else {
        size_t pick = static_cast<size_t>(rng.UniformInt(0, acked.size() - 1));
        ASSERT_TRUE(store->Erase(acked[pick]).value());
        acked.erase(acked.begin() + static_cast<long>(pick));
      }
      if (op % 31 == 17) {
        CrashImage image;
        image.dir = FreshDir("store_crash_" + std::to_string(op));
        image.acked = acked;
        std::sort(image.acked.begin(), image.acked.end());
        fs::copy(dir, image.dir, fs::copy_options::recursive);
        images.push_back(std::move(image));
      }
    }
  }
  ASSERT_GE(images.size(), 5u);

  uint64_t seed = 1;
  for (const CrashImage& image : images) {
    auto store = ShardedStore::Open(image.dir, options);
    EXPECT_EQ(LiveIds(store->engine()), image.acked);
    ExpectBitIdenticalToReference(store->engine(), seed++, 6);
    fs::remove_all(image.dir);
  }
}

TEST(StoreRecovery, EngineRefRoutesUpdatesThroughTheStore) {
  std::string dir = FreshDir("store_engine_ref");
  ShardedStore::Options options = FastOptions();
  {
    auto store = ShardedStore::Open(dir, options);
    api::EngineRef ref(store.get());
    EXPECT_EQ(ref.backend(), api::EngineRef::Backend::kShardedStore);
    EXPECT_TRUE(ref.supports_updates());
    Rng rng(31);
    for (int i = 0; i < 10; ++i) {
      api::QueryResponse r = ref.Call(api::QueryRequest::Insert(RichPoint(&rng)));
      ASSERT_EQ(r.status, api::StatusCode::kOk);
      EXPECT_EQ(r.id, i);
    }
    api::QueryResponse erased = ref.Call(api::QueryRequest::Erase(3));
    EXPECT_EQ(erased.id, 3);
    // Queries through the ref answer the store's live engine.
    Point2 q{0, 0};
    EXPECT_EQ(ref.Call(api::QueryRequest::NonzeroNN(q)).ids,
              store->engine().NonzeroNN(q));
  }
  // The updates went through the WAL: they survive reopen.
  auto reopened = ShardedStore::Open(dir, options);
  EXPECT_EQ(reopened->engine().live_size(), 9u);
  std::vector<dyn::Id> live = LiveIds(reopened->engine());
  EXPECT_EQ(std::count(live.begin(), live.end(), 3), 0);
}

}  // namespace
}  // namespace store
}  // namespace pnn
