// Durable-store recovery benchmark + crash-recovery harness.
//
// Default mode measures the two numbers the persistence layer is sized
// by: (1) cold recovery (store::ShardedStore::Open of a one-shard store —
// the single-engine store — adopting checkpointed segments + replaying
// the log tail) versus rebuilding a static Engine from the same live
// set — segment adoption skips every kd BuildRange, so recovery must be
// >= 5x faster (the acceptance gate); and (2) the log-append overhead on
// single-point Insert, p50/p99 with and without fdatasync, which prices
// the durability contract itself.
//
//   ./bench_recovery [--quick] [--no-gate] [--json PATH] [n]
//
// Crash harness (the CI crash-recovery step):
//
//   ./bench_recovery --churn DIR SEED    # deterministic insert/erase
//       churn against a store at DIR until killed; after each acked op,
//       appends one byte to the sibling file DIR.acked and fsyncs it.
//   ./bench_recovery --verify DIR SEED   # recovers DIR, re-simulates
//       the op stream, and checks the recovered live set equals the
//       acked prefix state (or that state advanced by the one op that
//       can be in flight between log fsync and the acked-file append),
//       then differential-verifies answers against a fresh static
//       Engine bit-for-bit. Exits nonzero on any mismatch.
//
// The churn stream is a pure function of SEED and the op index, so the
// verifier replays it without any channel to the killed writer.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/store/io.h"
#include "src/store/sharded_store.h"
#include "src/util/check.h"
#include "src/util/bench_json.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace pnn {
namespace {

UncertainPoint ChurnPoint(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 2));
  Point2 c{rng->Uniform(-50, 50), rng->Uniform(-50, 50)};
  std::vector<Point2> locs(k);
  std::vector<double> w(k, 1.0 / k);
  for (int s = 0; s < k; ++s) {
    locs[s] = {c.x + rng->Uniform(-2, 2), c.y + rng->Uniform(-2, 2)};
  }
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

/// A one-shard durable store (the single-engine store).
store::ShardedStore::Options OneShardOptions(uint64_t seed, bool fsync) {
  store::ShardedStore::Options options;
  options.sharded.num_shards = 1;
  options.sharded.shard.engine.seed = seed;
  options.fsync = fsync;
  return options;
}

store::ShardedStore::Options ChurnStoreOptions() {
  store::ShardedStore::Options options = OneShardOptions(4242, true);
  options.sharded.shard.engine.mc_rounds_override = 48;
  options.sharded.shard.tail_limit = 32;  // Frequent merges -> frequent
                                          // checkpoints; a kill lands mid-one.
  return options;
}

/// One deterministic churn op. The stream is a pure function of the seed
/// and the number of ops already generated, so the writer (driving a
/// store) and the verifier (simulating states) stay in lockstep.
struct ChurnSim {
  explicit ChurnSim(uint64_t seed) : rng(seed) {}

  struct Op {
    bool is_insert = false;
    std::optional<UncertainPoint> point;  // Set when is_insert.
    dyn::Id erase_id = -1;
  };

  Op Next() {
    Op op;
    op.is_insert = live.empty() || rng.Bernoulli(0.7);
    if (op.is_insert) {
      op.point = ChurnPoint(&rng);
      live.push_back(next_id++);
    } else {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      op.erase_id = live[pick];
      live.erase(live.begin() + static_cast<long>(pick));
    }
    return op;
  }

  Rng rng;
  std::vector<dyn::Id> live;
  dyn::Id next_id = 0;
};

int RunChurn(const std::string& dir, uint64_t seed) {
  auto db = store::ShardedStore::Open(dir, ChurnStoreOptions());
  auto acked_or = store::File::OpenAppend(dir + ".acked");
  store::File acked = std::move(acked_or.value());
  ChurnSim sim(seed);
  // 2M ops ~ forever at fsync speed; the harness SIGKILLs long before.
  for (long i = 0; i < 2000000; ++i) {
    ChurnSim::Op op = sim.Next();
    if (op.is_insert) {
      db->Insert(std::move(*op.point)).value();
    } else {
      db->Erase(op.erase_id).value();
    }
    // One byte per acked op, durably.
    PNN_CHECK_MSG(acked.Append(".", 1).ok(), "acked side-file append failed");
    PNN_CHECK_MSG(acked.Sync().ok(), "acked side-file sync failed");
  }
  return 0;
}

int RunVerify(const std::string& dir, uint64_t seed) {
  std::string acked_bytes;
  if (!store::ReadFile(dir + ".acked", &acked_bytes)) {
    std::fprintf(stderr, "FAIL: missing acked side-file %s.acked\n",
                 dir.c_str());
    return 1;
  }
  size_t acked_ops = acked_bytes.size();
  auto db = store::ShardedStore::Open(dir, ChurnStoreOptions());
  store::Stats stats = db->stats()[0];
  std::printf("recovered: %zu acked ops, %llu segments adopted, %llu log ops "
              "replayed, %llu log bytes truncated\n",
              acked_ops, static_cast<unsigned long long>(stats.recovered_buckets),
              static_cast<unsigned long long>(stats.recovered_ops),
              static_cast<unsigned long long>(stats.truncated_log_bytes));

  std::vector<dyn::Id> got_ids;
  db->engine().LiveSet(&got_ids);  // Sorted.

  // The recovered state must equal the acked prefix, or that prefix plus
  // the single op that was logged+applied but killed before its
  // acked-file byte landed.
  ChurnSim sim(seed);
  for (size_t i = 0; i < acked_ops; ++i) sim.Next();
  std::vector<dyn::Id> want = sim.live;
  std::sort(want.begin(), want.end());
  if (got_ids != want) {
    sim.Next();
    want = sim.live;
    std::sort(want.begin(), want.end());
  }
  if (got_ids != want) {
    std::fprintf(stderr,
                 "FAIL: recovered live set (%zu ids) matches neither the "
                 "acked state after %zu ops nor that state plus one op\n",
                 got_ids.size(), acked_ops);
    return 1;
  }

  // Differential: recovered answers bit-match a fresh static Engine over
  // exactly the recovered live set.
  std::vector<dyn::Id> ids;
  UncertainSet live = db->engine().LiveSet(&ids);
  if (!live.empty()) {
    Engine reference(live, db->engine().ReferenceEngineOptions());
    Rng qrng(seed ^ 0x9e3779b97f4a7c15ull);
    for (int t = 0; t < 25; ++t) {
      Point2 q{qrng.Uniform(-55, 55), qrng.Uniform(-55, 55)};
      std::vector<dyn::Id> want_nn;
      for (int i : reference.NonzeroNN(q)) want_nn.push_back(ids[i]);
      if (db->engine().NonzeroNN(q) != want_nn) {
        std::fprintf(stderr, "FAIL: NonzeroNN mismatch at query %d\n", t);
        return 1;
      }
      std::vector<Quantification> got_q = db->engine().Quantify(q, 0.1);
      std::vector<Quantification> want_q = reference.Quantify(q, 0.1);
      if (got_q.size() != want_q.size()) {
        std::fprintf(stderr, "FAIL: Quantify size mismatch at query %d\n", t);
        return 1;
      }
      for (size_t i = 0; i < got_q.size(); ++i) {
        if (got_q[i].index != ids[want_q[i].index] ||
            got_q[i].probability != want_q[i].probability) {
          std::fprintf(stderr, "FAIL: Quantify bit mismatch at query %d\n", t);
          return 1;
        }
      }
    }
  }
  std::printf("PASS: %zu live points recovered, bit-identical to a fresh "
              "static Engine\n", live.size());
  return 0;
}

int RunBench(int n, int latency_ops, const char* json_path, bool gate) {
  std::printf("# Durable store: recovery vs rebuild, log-append overhead "
              "(n=%d)\n", n);
  BenchJson json;
  json.AddMeta("bench", "recovery");
  json.AddMeta("n", std::to_string(n));

  std::string dir = "/tmp/pnn_bench_recovery_store";
  std::string cmd = "rm -rf " + dir;
  std::system(cmd.c_str());

  store::ShardedStore::Options options = OneShardOptions(99, true);
  Rng rng(1234);

  // Fill without fsync, then checkpoint (durable from here on), so
  // recovery is the segment-adoption path.
  double fill_seconds;
  {
    Timer t;
    auto db = store::ShardedStore::Open(dir, OneShardOptions(99, false));
    for (int i = 0; i < n; ++i) db->Insert(ChurnPoint(&rng)).value();
    PNN_CHECK_MSG(db->Checkpoint().ok(), "fill checkpoint failed");
    fill_seconds = t.Seconds();
  }

  Timer recover_timer;
  auto db = store::ShardedStore::Open(dir, options);
  double recovery_seconds = recover_timer.Seconds();
  store::Stats stats = db->stats()[0];

  std::vector<dyn::Id> ids;
  UncertainSet live = db->engine().LiveSet(&ids);

  // Rebuild baseline: what Open would cost WITHOUT segment snapshots —
  // log-replay recovery, every insert re-run through a fresh dynamic
  // engine, paying the whole Bentley-Saxe merge cascade again. Measured
  // generously: points already decoded in memory, no erases replayed.
  Timer rebuild_timer;
  double replay_seconds;
  {
    dyn::DynamicEngine fresh(options.sharded.shard);
    for (size_t i = 0; i < ids.size(); ++i) fresh.InsertWithId(ids[i], live[i]);
    fresh.WaitForMaintenance();
    replay_seconds = rebuild_timer.Seconds();
  }
  // Floor reference: one static Engine over the final live set — the
  // cheapest conceivable rebuild (no intermediate merges, no live map).
  Timer static_timer;
  Engine rebuilt(live, db->engine().ReferenceEngineOptions());
  double static_seconds = static_timer.Seconds();
  double speedup = recovery_seconds > 0 ? replay_seconds / recovery_seconds : 0;

  Table table({"path", "seconds", "notes"});
  table.AddRow({"fill+checkpoint", Table::Num(fill_seconds, 3),
                Table::Int(n) + " inserts"});
  table.AddRow({"recovery (Open)", Table::Num(recovery_seconds, 3),
                std::to_string(stats.recovered_buckets) + " segments adopted"});
  table.AddRow({"log-replay rebuild", Table::Num(replay_seconds, 3),
                "no segments: re-insert everything"});
  table.AddRow({"static build floor", Table::Num(static_seconds, 3),
                "one Engine over the live set"});
  table.AddRow({"speedup", Table::Num(speedup, 1), "log-replay / recovery"});
  table.Print();

  json.Add("recovery_vs_rebuild",
           {{"n", static_cast<double>(n)},
            {"recovery_seconds", recovery_seconds},
            {"log_replay_rebuild_seconds", replay_seconds},
            {"static_build_floor_seconds", static_seconds},
            {"speedup", speedup},
            {"segments_adopted", static_cast<double>(stats.recovered_buckets)},
            {"log_ops_replayed", static_cast<double>(stats.recovered_ops)}});
  db.reset();
  std::system(cmd.c_str());

  // Log-append overhead: single-point inserts, fsync on vs off.
  Table lat({"mode", "ops", "p50 us", "p99 us"});
  for (bool fsync : {true, false}) {
    std::system(cmd.c_str());
    auto ldb = store::ShardedStore::Open(dir, OneShardOptions(99, fsync));
    Rng lrng(777);
    std::vector<double> micros;
    micros.reserve(static_cast<size_t>(latency_ops));
    for (int i = 0; i < latency_ops; ++i) {
      UncertainPoint p = ChurnPoint(&lrng);
      Timer t;
      ldb->Insert(std::move(p)).value();
      micros.push_back(t.Seconds() * 1e6);
    }
    std::vector<double> cuts = Percentiles(&micros, {50, 99});
    lat.AddRow({fsync ? "fsync" : "no-fsync", Table::Int(latency_ops),
                Table::Num(cuts[0], 1), Table::Num(cuts[1], 1)});
    json.Add(fsync ? "insert_latency_fsync" : "insert_latency_nofsync",
             {{"ops", static_cast<double>(latency_ops)},
              {"p50_micros", cuts[0]},
              {"p99_micros", cuts[1]}});
    ldb.reset();
  }
  lat.Print();
  std::system(cmd.c_str());

  if (json_path != nullptr) {
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 2;
    }
    std::printf("\nwrote %s\n", json_path);
  }
  bool fast = speedup >= 5.0;
  std::printf("\nShape check: recovery >= 5x faster than rebuild: %s%s\n",
              fast ? "PASS" : "FAIL", gate ? "" : " (gate disabled)");
  return fast || !gate ? 0 : 1;
}

}  // namespace
}  // namespace pnn

int main(int argc, char** argv) {
  int n = 50000, latency_ops = 2000;
  const char* json_path = nullptr;
  bool gate = true;
  std::vector<int> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--churn") == 0 && i + 2 < argc) {
      return pnn::RunChurn(argv[i + 1],
                           std::strtoull(argv[i + 2], nullptr, 10));
    } else if (std::strcmp(argv[i], "--verify") == 0 && i + 2 < argc) {
      return pnn::RunVerify(argv[i + 1],
                            std::strtoull(argv[i + 2], nullptr, 10));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      n = 5000;
      latency_ops = 400;
    } else if (std::strcmp(argv[i], "--no-gate") == 0) {
      gate = false;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      positional.push_back(std::atoi(argv[i]));
    }
  }
  if (!positional.empty()) n = positional[0];
  if (n <= 0) {
    std::fprintf(stderr,
                 "usage: %s [--quick] [--no-gate] [--json PATH] [n]\n"
                 "       %s --churn DIR SEED | --verify DIR SEED\n",
                 argv[0], argv[0]);
    return 2;
  }
  return pnn::RunBench(n, latency_ops, json_path, gate);
}
