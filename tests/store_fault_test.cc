// Fault injection against pnn::store — the acceptance bar of the failure
// model (docs/persistence.md "Failure model"):
//   * EVERY registered store.* failpoint, armed during insert/checkpoint/
//     compaction churn, degrades the store instead of killing the process,
//     and after disarming the store heals, acks again, and a reopen
//     recovers exactly the acked live set, bit-identical to a fresh
//     static Engine;
//   * while degraded, mutations are refused end-to-end as kUnavailable
//     (through api::EngineRef — the status the serving layer transports)
//     and queries keep answering over exactly the acked history;
//   * un-acked (refused) ops never resurface after heal or recovery;
//   * a single transient fault (FireOnNth) degrades one mutation and the
//     next one self-heals;
//   * a failed checkpoint commits nothing: the old generation keeps
//     serving and a later checkpoint under a fresh generation succeeds.
// The single-engine cases run on a one-shard store::ShardedStore; the last
// one degrades and heals shards independently in a two-shard store.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/engine_ref.h"
#include "src/api/query.h"
#include "src/fault/fault.h"
#include "src/store/sharded_store.h"

namespace pnn {
namespace store {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

UncertainPoint TestPoint(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 3));
  std::vector<Point2> locs(k);
  std::vector<double> w(k, 1.0 / k);
  for (int s = 0; s < k; ++s) {
    locs[s] = {rng->Uniform(-20, 20), rng->Uniform(-20, 20)};
  }
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

std::vector<dyn::Id> LiveIds(const shard::ShardedEngine& engine) {
  std::vector<dyn::Id> ids;
  engine.LiveSet(&ids);
  return ids;
}

/// The recovered engine must answer bit-identically to a fresh static
/// Engine over its live set.
void ExpectBitIdenticalToReference(const shard::ShardedEngine& engine,
                                   uint64_t query_seed, int queries) {
  std::vector<dyn::Id> ids;
  UncertainSet live = engine.LiveSet(&ids);
  if (live.empty()) return;
  Engine reference(live, engine.ReferenceEngineOptions());
  Rng rng(query_seed);
  for (int t = 0; t < queries; ++t) {
    Point2 q{rng.Uniform(-25, 25), rng.Uniform(-25, 25)};
    std::vector<dyn::Id> want_nn;
    for (int i : reference.NonzeroNN(q)) want_nn.push_back(ids[i]);
    EXPECT_EQ(engine.NonzeroNN(q), want_nn);
    std::vector<Quantification> got = engine.Quantify(q, 0.1);
    std::vector<Quantification> want = reference.Quantify(q, 0.1);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, ids[want[i].index]);
      EXPECT_EQ(got[i].probability, want[i].probability);
    }
  }
}

/// Churn options that force checkpoints/compactions during the test: a
/// tiny tail limit means merges cut buckets and every few mutations
/// rotate the log (segment writes + manifest installs + log creates — the
/// whole failpoint surface).
ShardedStore::Options ChurnOptions() {
  ShardedStore::Options options;
  options.sharded.num_shards = 1;
  options.sharded.shard.engine.seed = 77;
  options.sharded.shard.engine.mc_rounds_override = 48;
  options.sharded.shard.tail_limit = 8;
  return options;
}

class StoreFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

/// One insert-or-erase against `store`, bookkeeping `acked` (ids whose op
/// was acknowledged OK). Returns true if the op was acked.
bool ChurnOp(ShardedStore* store, Rng* rng, std::vector<dyn::Id>* acked) {
  if (acked->empty() || rng->Bernoulli(0.7)) {
    util::StatusOr<dyn::Id> id = store->Insert(TestPoint(rng));
    if (!id.ok()) return false;
    acked->push_back(*id);
    return true;
  }
  size_t pick = static_cast<size_t>(rng->UniformInt(0, acked->size() - 1));
  util::StatusOr<bool> erased = store->Erase((*acked)[pick]);
  if (!erased.ok()) return false;
  EXPECT_TRUE(*erased) << "acked ids are live";
  acked->erase(acked->begin() + static_cast<long>(pick));
  return true;
}

// The headline loop: every registered store.* site, armed in turn during
// churn. New IO call sites register themselves, so this covers them with
// no test change.
TEST_F(StoreFaultTest, EveryFailpointDegradesCleanlyAndRecovers) {
  uint64_t query_seed = 5000;
  for (const std::string& site : fault::ListFailpoints()) {
    if (site.rfind("store.", 0) != 0) continue;
    SCOPED_TRACE(site);
    std::string tag = site;
    std::replace(tag.begin(), tag.end(), '.', '_');
    std::string dir = FreshDir("fp_" + tag);
    std::vector<dyn::Id> acked;
    Rng rng(1000 + query_seed);
    {
      auto store = ShardedStore::Open(dir, ChurnOptions());
      // Healthy prelude: every op must ack.
      for (int op = 0; op < 40; ++op) {
        ASSERT_TRUE(ChurnOp(store.get(), &rng, &acked)) << "healthy prelude";
      }

      fault::SiteStats before = fault::StatsFor(site);
      fault::Arm(site, fault::AlwaysFail());
      int refused = 0;
      for (int op = 0; op < 60; ++op) {
        if (!ChurnOp(store.get(), &rng, &acked)) ++refused;
        // Whatever the disk does, queries keep serving the acked set.
        if (op % 20 == 19) {
          std::vector<dyn::Id> live = LiveIds(store->engine());
          std::vector<dyn::Id> want = acked;
          std::sort(want.begin(), want.end());
          EXPECT_EQ(live, want);
        }
      }
      bool hit = fault::StatsFor(site).fired > before.fired;
      if (hit) {
        EXPECT_GE(store->stats()[0].degraded_entries, 1u)
            << site << " fired but never degraded the store";
      }
      // Sites off the mutation path (store.mkdir fires only at open;
      // store.truncate only inside a heal) legitimately never fire here.

      fault::Disarm(site);
      // Post-heal: mutations ack again and the store reports healthy.
      for (int op = 0; op < 20; ++op) {
        EXPECT_TRUE(ChurnOp(store.get(), &rng, &acked)) << "post-heal op " << op;
      }
      EXPECT_TRUE(store->healthy());
      EXPECT_TRUE(store->status().ok());
      if (hit) {
        EXPECT_GE(store->stats()[0].heals, 1u);
      }
      // refused may be 0 for sites that degrade only after the op acked
      // (store.unlink: checkpoint step 4); the degraded_entries assertion
      // above is the universal one.
      (void)refused;
    }
    // Reopen: exactly the acked live set, bit-identical answers.
    auto reopened = ShardedStore::Open(dir, ChurnOptions());
    std::sort(acked.begin(), acked.end());
    EXPECT_EQ(LiveIds(reopened->engine()), acked);
    ExpectBitIdenticalToReference(reopened->engine(), query_seed++, 4);
    fs::remove_all(dir);
  }
}

TEST_F(StoreFaultTest, DegradedMutationsAnswerUnavailableQueriesAnswerOk) {
  std::string dir = FreshDir("fp_unavailable");
  auto store = ShardedStore::Open(dir, ChurnOptions());
  api::EngineRef ref(store.get());
  Rng rng(7);
  std::vector<dyn::Id> acked;
  for (int i = 0; i < 30; ++i) {
    api::QueryResponse r = ref.Call(api::QueryRequest::Insert(TestPoint(&rng)));
    ASSERT_EQ(r.status, api::StatusCode::kOk);
    acked.push_back(r.id);
  }

  fault::Arm("store.fdatasync", fault::AlwaysFail());
  // Every mutation is refused with kUnavailable — the wire status the
  // serving layer transports — and NOT applied.
  for (int i = 0; i < 5; ++i) {
    api::QueryResponse r = ref.Call(api::QueryRequest::Insert(TestPoint(&rng)));
    EXPECT_EQ(r.status, api::StatusCode::kUnavailable);
    EXPECT_FALSE(r.message.empty());
    api::QueryResponse e = ref.Call(api::QueryRequest::Erase(acked[0]));
    EXPECT_EQ(e.status, api::StatusCode::kUnavailable);
  }
  EXPECT_FALSE(store->healthy());
  EXPECT_FALSE(store->status().ok());

  // Queries still answer kOk over exactly the acked set.
  std::vector<dyn::Id> live = LiveIds(store->engine());
  std::sort(acked.begin(), acked.end());
  EXPECT_EQ(live, acked);
  api::QueryResponse q = ref.Call(api::QueryRequest::NonzeroNN({0, 0}));
  EXPECT_EQ(q.status, api::StatusCode::kOk);

  // Heal: the first mutation after the disk recovers acks and the store
  // reports healthy again.
  fault::Disarm("store.fdatasync");
  api::QueryResponse healed = ref.Call(api::QueryRequest::Insert(TestPoint(&rng)));
  EXPECT_EQ(healed.status, api::StatusCode::kOk);
  EXPECT_TRUE(store->healthy());
  EXPECT_GE(store->stats()[0].heals, 1u);
}

TEST_F(StoreFaultTest, SingleTransientFaultSelfHeals) {
  std::string dir = FreshDir("fp_transient");
  auto store = ShardedStore::Open(dir, ChurnOptions());
  Rng rng(9);
  for (int i = 0; i < 10; ++i) store->Insert(TestPoint(&rng)).value();

  // The 1st write after arming fails; the site is healthy afterwards.
  fault::Arm("store.write", fault::FireOnNth(1));
  util::StatusOr<dyn::Id> refused = store->Insert(TestPoint(&rng));
  EXPECT_FALSE(refused.ok());
  EXPECT_FALSE(store->healthy());
  // The next mutation heals (truncate + reopen + probe) and acks.
  dyn::Id id = store->Insert(TestPoint(&rng)).value();
  EXPECT_GE(id, 0);
  EXPECT_TRUE(store->healthy());
  Stats stats = store->stats()[0];
  EXPECT_GE(stats.degraded_entries, 1u);
  EXPECT_GE(stats.heals, 1u);
}

TEST_F(StoreFaultTest, RefusedOpsNeverResurface) {
  std::string dir = FreshDir("fp_unacked");
  std::vector<dyn::Id> acked;
  {
    auto store = ShardedStore::Open(dir, ChurnOptions());
    Rng rng(11);
    for (int i = 0; i < 20; ++i) {
      acked.push_back(store->Insert(TestPoint(&rng)).value());
    }
    // A burst of failures: the partial-write injection on store.write
    // leaves REAL torn bytes in the log that heal must truncate away.
    fault::Arm("store.write", fault::FireTimesThenHeal(4));
    int refused = 0;
    while (refused < 3) {
      if (!store->Insert(TestPoint(&rng)).ok()) ++refused;
    }
    fault::DisarmAll();
    // Heal, then ack more ops on the repaired log.
    for (int i = 0; i < 10; ++i) {
      acked.push_back(store->Insert(TestPoint(&rng)).value());
    }
  }
  auto reopened = ShardedStore::Open(dir, ChurnOptions());
  std::sort(acked.begin(), acked.end());
  EXPECT_EQ(LiveIds(reopened->engine()), acked)
      << "refused inserts must not resurface after recovery";
  ExpectBitIdenticalToReference(reopened->engine(), 404, 6);
}

TEST_F(StoreFaultTest, FailedCheckpointCommitsNothingAndRetries) {
  std::string dir = FreshDir("fp_checkpoint");
  auto store = ShardedStore::Open(dir, ChurnOptions());
  Rng rng(13);
  std::vector<dyn::Id> acked;
  for (int i = 0; i < 60; ++i) {
    acked.push_back(store->Insert(TestPoint(&rng)).value());
  }
  uint64_t generation_before = store->stats()[0].checkpoints;

  // The manifest install (rename) fails: the rotation must be abandoned
  // with the old generation still live and the store degraded (the
  // install may have reached disk — ambiguous until re-checkpointed).
  fault::Arm("store.rename", fault::AlwaysFail());
  util::Status failed = store->Checkpoint();
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(store->healthy());
  EXPECT_GE(store->stats()[0].checkpoint_failures, 1u);

  fault::Disarm("store.rename");
  // Heal re-runs the rotation under a fresh generation and acks again.
  acked.push_back(store->Insert(TestPoint(&rng)).value());
  EXPECT_TRUE(store->healthy());
  EXPECT_GT(store->stats()[0].checkpoints, generation_before);

  // The whole history survives a reopen.
  store.reset();
  auto reopened = ShardedStore::Open(dir, ChurnOptions());
  std::sort(acked.begin(), acked.end());
  EXPECT_EQ(LiveIds(reopened->engine()), acked);
  ExpectBitIdenticalToReference(reopened->engine(), 505, 6);
}

TEST_F(StoreFaultTest, ShardedStoreDegradesAndHealsPerShard) {
  std::string dir = FreshDir("fp_sharded");
  ShardedStore::Options options;
  options.sharded.num_shards = 2;
  options.sharded.shard.engine.seed = 77;
  options.sharded.shard.engine.mc_rounds_override = 48;
  options.sharded.shard.tail_limit = 8;
  auto store = ShardedStore::Open(dir, options);
  Rng rng(17);
  std::vector<dyn::Id> acked;
  for (int i = 0; i < 40; ++i) {
    acked.push_back(store->Insert(TestPoint(&rng)).value());
  }

  fault::Arm("store.fdatasync", fault::AlwaysFail());
  int refused = 0;
  for (int i = 0; i < 10; ++i) {
    util::StatusOr<dyn::Id> id = store->Insert(TestPoint(&rng));
    if (id.ok()) {
      acked.push_back(*id);
    } else {
      ++refused;
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_FALSE(store->healthy());
  // Queries keep serving the acked set while degraded.
  std::vector<dyn::Id> want = acked;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(LiveIds(store->engine()), want);

  fault::Disarm("store.fdatasync");
  for (int i = 0; i < 10; ++i) {
    acked.push_back(store->Insert(TestPoint(&rng)).value());
  }
  EXPECT_TRUE(store->healthy());

  store.reset();
  auto reopened = ShardedStore::Open(dir, options);
  std::sort(acked.begin(), acked.end());
  EXPECT_EQ(LiveIds(reopened->engine()), acked);
  ExpectBitIdenticalToReference(reopened->engine(), 606, 6);
}

}  // namespace
}  // namespace store
}  // namespace pnn
