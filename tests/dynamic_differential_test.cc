// Randomized differential tests for pnn::dyn::DynamicEngine: after any
// interleaving of inserts and erases, every query mode must answer exactly
// like a freshly built static Engine over the live set (bit-identical
// probabilities for NonzeroNN / Quantify / ThresholdNN / QuantifyExact),
// for discrete, continuous and mixed point families, with and without a
// background-maintenance thread pool. The plan inputs behind those
// answers (the published SetAggregates) must equal a fresh scan of the
// live set after every update, maintenance build and store reopen.

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dyn/dynamic_engine.h"
#include "src/exec/thread_pool.h"
#include "src/store/sharded_store.h"

namespace pnn {
namespace dyn {
namespace {

enum class Family { kDiscrete, kContinuous, kMixed };

UncertainPoint RandomDiscretePoint(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 4));
  Point2 c{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  std::vector<Point2> locs(k);
  std::vector<double> w(k);
  double total = 0.0;
  for (int s = 0; s < k; ++s) {
    locs[s] = {c.x + rng->Uniform(-3, 3), c.y + rng->Uniform(-3, 3)};
    // Spread the location probabilities widely so the live set's rho (and
    // with it the spiral-vs-Monte-Carlo plan) drifts over the run.
    w[s] = rng->Uniform(0.05, 1.0);
    total += w[s];
  }
  for (int s = 0; s < k; ++s) w[s] /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

UncertainPoint RandomContinuousPoint(Rng* rng) {
  Point2 c{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  double radius = rng->Uniform(0.5, 4.0);
  if (rng->Bernoulli(0.3)) {
    return UncertainPoint::TruncatedGaussian(c, radius, rng->Uniform(0.3, 2.0));
  }
  return UncertainPoint::UniformDisk(c, radius);
}

UncertainPoint RandomPoint(Family family, Rng* rng) {
  switch (family) {
    case Family::kDiscrete:
      return RandomDiscretePoint(rng);
    case Family::kContinuous:
      return RandomContinuousPoint(rng);
    case Family::kMixed:
      return rng->Bernoulli(0.5) ? RandomDiscretePoint(rng)
                                 : RandomContinuousPoint(rng);
  }
  return RandomDiscretePoint(rng);
}

void ExpectBitIdentical(const std::vector<Quantification>& got,
                        const std::vector<Quantification>& want_by_rank,
                        const std::vector<Id>& ids) {
  ASSERT_EQ(got.size(), want_by_rank.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, ids[want_by_rank[i].index]);
    EXPECT_EQ(got[i].probability, want_by_rank[i].probability);
  }
}

// Runs ~1k interleaved ops, rebuilding a reference static Engine at every
// query step and asserting exact agreement.
void RunDifferential(Family family, uint64_t seed, exec::ThreadPool* pool) {
  Rng rng(seed);
  Options dopt;
  dopt.engine.seed = 77;
  dopt.engine.mc_rounds_override = 48;  // Keep reference MC builds cheap.
  dopt.tail_limit = 8;                  // Force frequent merges.
  dopt.max_dead_fraction = 0.3;
  dopt.pool = pool;
  DynamicEngine dynamic(dopt);

  std::vector<Id> live;
  int quantify_step = 0;
  const int kOps = 1000;
  for (int op = 0; op < kOps; ++op) {
    int r = static_cast<int>(rng.UniformInt(0, 99));
    if (r < 45 || live.empty()) {
      live.push_back(dynamic.Insert(RandomPoint(family, &rng)));
      continue;
    }
    if (r < 72) {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      Id victim = live[pick];
      live.erase(live.begin() + static_cast<long>(pick));
      EXPECT_TRUE(dynamic.Erase(victim));
      EXPECT_FALSE(dynamic.Erase(victim));  // Tombstoned ids stay dead.
      continue;
    }

    // Query step: fresh static reference over the live set.
    std::vector<Id> ids;
    UncertainSet live_set = dynamic.LiveSet(&ids);
    ASSERT_EQ(live_set.size(), live.size());
    Engine reference(live_set, dynamic.ReferenceEngineOptions());
    Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};

    std::vector<Id> got_nn = dynamic.View()->NonzeroNN(q);
    std::vector<int> want_nn_rank = reference.NonzeroNN(q);
    std::vector<Id> want_nn;
    for (int i : want_nn_rank) want_nn.push_back(ids[i]);
    EXPECT_EQ(got_nn, want_nn);

    if (++quantify_step % 4 == 0) {
      double eps = 0.1;
      EXPECT_EQ(dynamic.View()->PlanForQuantify(eps), reference.PlanForQuantify(eps));
      ExpectBitIdentical(dynamic.View()->Quantify(q, eps), reference.Quantify(q, eps),
                         ids);
      ExpectBitIdentical(dynamic.View()->ThresholdNN(q, 0.2, eps),
                         reference.ThresholdNN(q, 0.2, eps), ids);
      Id got_ml = dynamic.View()->MostLikelyNN(q, eps);
      int want_ml = reference.MostLikelyNN(q, eps);
      EXPECT_EQ(got_ml, want_ml < 0 ? -1 : ids[want_ml]);
    }

    if (family != Family::kMixed && quantify_step % 10 == 0) {
      ExpectBitIdentical(dynamic.View()->QuantifyExact(q), reference.QuantifyExact(q),
                         ids);
    }
  }
  dynamic.WaitForMaintenance();
  EXPECT_EQ(dynamic.live_size(), live.size());
}

TEST(DynamicDifferential, DiscreteInterleaved) {
  RunDifferential(Family::kDiscrete, 4001, nullptr);
}

TEST(DynamicDifferential, ContinuousInterleaved) {
  RunDifferential(Family::kContinuous, 4003, nullptr);
}

TEST(DynamicDifferential, MixedInterleaved) {
  RunDifferential(Family::kMixed, 4005, nullptr);
}

TEST(DynamicDifferential, DiscreteWithBackgroundPool) {
  exec::ThreadPool pool(3);
  RunDifferential(Family::kDiscrete, 4007, &pool);
}

TEST(DynamicDifferential, ContinuousWithBackgroundPool) {
  exec::ThreadPool pool(3);
  RunDifferential(Family::kContinuous, 4009, &pool);
}

// Liveness against a std::map model: inserts, erases of live and unknown
// ids, and InsertWithId re-adds of erased ids, whose tombstoned copies
// stay in buckets and the tail until a compaction drops them. A small
// tail_limit keeps merges and compactions running throughout. After every
// op, IsLive, Erase's return and LiveSet(&ids) match the model, and the
// answers match a reference Engine every few ops.
void RunLivenessModel(uint64_t seed, exec::ThreadPool* pool) {
  Rng rng(seed);
  Options dopt;
  dopt.engine.seed = 91;
  dopt.engine.mc_rounds_override = 24;
  dopt.tail_limit = 6;
  dopt.max_dead_fraction = 0.3;
  dopt.pool = pool;
  DynamicEngine dynamic(dopt);

  std::map<Id, Point2> model;  // Live id -> centroid.
  std::vector<Id> erased;
  Id next = 0;
  size_t readds = 0;
  for (int op = 0; op < 600; ++op) {
    int r = static_cast<int>(rng.UniformInt(0, 99));
    Id touched;
    if (r < 40 || model.empty()) {
      UncertainPoint p = RandomDiscretePoint(&rng);
      touched = dynamic.Insert(p);
      ASSERT_EQ(touched, next++);
      model[touched] = p.Centroid();
    } else if (r < 65) {
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, model.size() - 1));
      touched = it->first;
      model.erase(it);
      erased.push_back(touched);
      ASSERT_TRUE(dynamic.Erase(touched));
    } else if (r < 80) {
      // An id never assigned, or one erased and not re-added.
      touched = rng.Bernoulli(0.5) || erased.empty()
                    ? next + static_cast<Id>(rng.UniformInt(0, 5))
                    : erased[rng.UniformInt(0, erased.size() - 1)];
      ASSERT_EQ(dynamic.Erase(touched), model.count(touched) != 0);
      model.erase(touched);
    } else if (!erased.empty()) {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, erased.size() - 1));
      touched = erased[pick];
      erased.erase(erased.begin() + static_cast<long>(pick));
      if (model.count(touched) != 0) continue;
      UncertainPoint p = RandomDiscretePoint(&rng);
      dynamic.InsertWithId(touched, p);
      model[touched] = p.Centroid();
      ++readds;
    } else {
      continue;
    }
    ASSERT_EQ(dynamic.IsLive(touched), model.count(touched) != 0) << "op " << op;
    ASSERT_FALSE(dynamic.IsLive(next + 7));
    std::vector<Id> ids;
    UncertainSet live_set = dynamic.LiveSet(&ids);
    ASSERT_EQ(ids.size(), model.size()) << "op " << op;
    auto it = model.begin();
    for (size_t i = 0; i < ids.size(); ++i, ++it) {
      ASSERT_EQ(ids[i], it->first) << "op " << op;
      ASSERT_EQ(live_set[i].Centroid(), it->second) << "op " << op;
    }
    if (op % 25 == 0 && !live_set.empty()) {
      Engine reference(live_set, dynamic.ReferenceEngineOptions());
      Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
      std::vector<Id> want_nn;
      for (int i : reference.NonzeroNN(q)) want_nn.push_back(ids[i]);
      EXPECT_EQ(dynamic.View()->NonzeroNN(q), want_nn);
      ExpectBitIdentical(dynamic.View()->Quantify(q, 0.1), reference.Quantify(q, 0.1),
                         ids);
    }
  }
  dynamic.WaitForMaintenance();
  EXPECT_GT(readds, 50u);
  EXPECT_EQ(dynamic.live_size(), model.size());
}

TEST(DynamicDifferential, LivenessMatchesModelInline) { RunLivenessModel(4011, nullptr); }

TEST(DynamicDifferential, LivenessMatchesModelWithPool) {
  exec::ThreadPool pool(3);
  RunLivenessModel(4013, &pool);
}

TEST(DynamicDifferential, AnswersIndependentOfThreadCount) {
  // The same op sequence, executed with and without a pool, must produce
  // identical query answers: the bucket layout may differ in time but the
  // answers decompose over it exactly.
  for (Family family : {Family::kDiscrete, Family::kContinuous}) {
    auto run = [&](exec::ThreadPool* pool) {
      Rng rng(555);
      Options dopt;
      dopt.engine.mc_rounds_override = 32;
      dopt.tail_limit = 8;
      dopt.pool = pool;
      DynamicEngine dynamic(dopt);
      std::vector<Id> live;
      std::vector<std::vector<Quantification>> answers;
      for (int op = 0; op < 300; ++op) {
        int r = static_cast<int>(rng.UniformInt(0, 9));
        if (r < 5 || live.empty()) {
          live.push_back(dynamic.Insert(RandomPoint(family, &rng)));
        } else if (r < 7) {
          size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
          dynamic.Erase(live[pick]);
          live.erase(live.begin() + static_cast<long>(pick));
        } else {
          Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
          answers.push_back(dynamic.View()->Quantify(q, 0.15));
        }
      }
      dynamic.WaitForMaintenance();
      return answers;
    };
    exec::ThreadPool pool(4);
    auto sequential = run(nullptr);
    auto pooled = run(&pool);
    ASSERT_EQ(sequential.size(), pooled.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
      ASSERT_EQ(sequential[i].size(), pooled[i].size());
      for (size_t j = 0; j < sequential[i].size(); ++j) {
        EXPECT_EQ(sequential[i][j].index, pooled[i][j].index);
        EXPECT_EQ(sequential[i][j].probability, pooled[i][j].probability);
      }
    }
  }
}


// A point for the aggregate runs: discrete with k in 1..4 (equal weights
// 1/k, or spread ones that are distinct across points), or, with
// probability `continuous_share`, a disk.
UncertainPoint AggregatePoint(Rng* rng, bool equal_weights, double continuous_share) {
  if (rng->Bernoulli(continuous_share)) return RandomContinuousPoint(rng);
  if (!equal_weights) return RandomDiscretePoint(rng);
  int k = static_cast<int>(rng->UniformInt(1, 4));
  std::vector<Point2> locs(k);
  for (Point2& l : locs) l = {rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  return UncertainPoint::Discrete(std::move(locs), std::vector<double>(k, 1.0 / k));
}

// The aggregates a snapshot publishes against a fresh scan of `live`,
// field by field and bit for bit: they decide the plan and the round
// count, so any drift changes answers.
void ExpectAggregatesMatchScan(const SetAggregates& got, const UncertainSet& live,
                               const std::string& when) {
  SetAggregates scan;
  for (const UncertainPoint& p : live) scan.Add(p);
  EXPECT_EQ(got.live_count, scan.live_count) << when;
  EXPECT_EQ(got.discrete_count, scan.discrete_count) << when;
  EXPECT_EQ(got.continuous_count, scan.continuous_count) << when;
  EXPECT_EQ(got.total_complexity, scan.total_complexity) << when;
  EXPECT_EQ(got.max_k, scan.max_k) << when;
  EXPECT_EQ(got.wmin, scan.wmin) << when;
  EXPECT_EQ(got.wmax, scan.wmax) << when;
}

void ExpectEngineAggregatesMatchScan(const DynamicEngine& engine,
                                     const std::string& when) {
  ExpectAggregatesMatchScan(*engine.snapshot(), engine.LiveSet(), when);
}

// The live ids ordered so that erasing them front to back always removes
// a current extreme: ascending by each discrete point's own minimum
// weight (wmin), or descending by its maximum (wmax). Continuous points
// go last.
std::vector<Id> ExtremeFirstOrder(const UncertainSet& live, const std::vector<Id>& ids,
                                  bool by_min_weight) {
  std::vector<std::pair<double, Id>> keyed;
  for (size_t i = 0; i < live.size(); ++i) {
    double key = 2.0;  // Above every weight.
    if (live[i].is_discrete()) {
      const std::vector<double>& w = live[i].discrete().weights;
      key = by_min_weight ? *std::min_element(w.begin(), w.end())
                          : -*std::max_element(w.begin(), w.end());
    }
    keyed.push_back({key, ids[i]});
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<Id> order;
  for (const auto& k : keyed) order.push_back(k.second);
  return order;
}

// Random churn with a small tail_limit (merges and compactions run
// inline, or on `pool`), then the live set erased extreme-first; the
// aggregates are checked after every update and every maintenance drain.
void RunAggregateChurn(bool equal_weights, double continuous_share, uint64_t seed,
                       exec::ThreadPool* pool) {
  Rng rng(seed);
  Options dopt;
  dopt.engine.seed = 5;
  dopt.tail_limit = 6;
  dopt.max_dead_fraction = 0.3;
  dopt.pool = pool;
  DynamicEngine dynamic(dopt);
  const std::string tag = std::string(equal_weights ? "equal" : "distinct") +
                          " weights, continuous share " +
                          std::to_string(continuous_share) + ", op ";
  std::vector<Id> live;
  for (int op = 0; op < 300; ++op) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      live.push_back(
          dynamic.Insert(AggregatePoint(&rng, equal_weights, continuous_share)));
    } else {
      size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      ASSERT_TRUE(dynamic.Erase(live[pick]));
      live.erase(live.begin() + static_cast<long>(pick));
    }
    ExpectEngineAggregatesMatchScan(dynamic, tag + std::to_string(op));
    if (op % 50 == 49) {
      dynamic.WaitForMaintenance();
      ExpectEngineAggregatesMatchScan(dynamic, tag + std::to_string(op) + " drained");
    }
  }
  std::vector<Id> ids;
  UncertainSet live_set = dynamic.LiveSet(&ids);
  for (Id id : ExtremeFirstOrder(live_set, ids, /*by_min_weight=*/!equal_weights)) {
    ASSERT_TRUE(dynamic.Erase(id));
    ExpectEngineAggregatesMatchScan(dynamic, tag + "extreme-first erase of " +
                                                 std::to_string(id));
  }
  dynamic.WaitForMaintenance();
  EXPECT_EQ(dynamic.live_size(), 0u);
  ExpectEngineAggregatesMatchScan(dynamic, tag + "emptied");
}

void ExpectStoreAggregatesMatchScan(const store::ShardedStore& store,
                                    const std::string& when) {
  UncertainSet live = store.engine().LiveSet();
  ExpectAggregatesMatchScan(*store.engine().ShardSnapshot(0), live, when);
  ExpectAggregatesMatchScan(*store.engine().View()->combined, live, when + " (view)");
}

TEST(DynamicAggregates, MatchFreshScanUnderErase) {
  for (bool equal_weights : {true, false}) {
    for (double continuous_share : {0.0, 0.3}) {
      RunAggregateChurn(equal_weights, continuous_share, 4021, nullptr);
    }
  }
  exec::ThreadPool pool(2);
  RunAggregateChurn(false, 0.2, 4023, &pool);

  // Through the durable store: the reopened engine's aggregates come from
  // the recovery constructor's bulk build over the segments, then from
  // the log replay; both must match, and erasing every point in ascending
  // order of its minimum weight afterwards must track each new extreme.
  std::string dir = testing::TempDir() + "/dyn_aggregates_store";
  std::filesystem::remove_all(dir);
  store::ShardedStore::Options sopt;
  sopt.sharded.num_shards = 1;
  sopt.sharded.shard.engine.seed = 5;
  sopt.sharded.shard.tail_limit = 6;  // Merges write segments.
  sopt.fsync = false;
  Rng rng(4025);
  {
    auto st = store::ShardedStore::Open(dir, sopt);
    std::vector<Id> live;
    for (int op = 0; op < 200; ++op) {
      if (live.empty() || rng.Bernoulli(0.65)) {
        live.push_back(st->Insert(AggregatePoint(&rng, false, 0.2)).value());
      } else {
        size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
        ASSERT_TRUE(st->Erase(live[pick]).value());
        live.erase(live.begin() + static_cast<long>(pick));
      }
      ExpectStoreAggregatesMatchScan(*st, "store op " + std::to_string(op));
    }
  }
  auto reopened = store::ShardedStore::Open(dir, sopt);
  ExpectStoreAggregatesMatchScan(*reopened, "reopened");
  std::vector<Id> ids;
  UncertainSet live_set = reopened->engine().LiveSet(&ids);
  ASSERT_GT(live_set.size(), 30u);
  for (Id id : ExtremeFirstOrder(live_set, ids, /*by_min_weight=*/true)) {
    ASSERT_TRUE(reopened->Erase(id).value());
    ExpectStoreAggregatesMatchScan(*reopened,
                                   "reopened, erase of " + std::to_string(id));
  }
  reopened.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dyn
}  // namespace pnn
