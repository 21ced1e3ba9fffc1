// Randomized differential tests for pnn::dyn::DynamicEngine: after any
// interleaving of inserts and erases, every query mode must answer exactly
// like a freshly built static Engine over the live set (bit-identical
// probabilities for NonzeroNN / Quantify / ThresholdNN, near-exact for the
// survival-profile QuantifyExact recombination), for discrete, continuous
// and mixed point families, with and without a background-maintenance
// thread pool.

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/dyn/dynamic_engine.h"
#include "src/exec/thread_pool.h"

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

    std::vector<Id> got_nn = dynamic.NonzeroNN(q);
    std::vector<int> want_nn_rank = reference.NonzeroNN(q);
    std::vector<Id> want_nn;
    for (int i : want_nn_rank) want_nn.push_back(ids[i]);
    EXPECT_EQ(got_nn, want_nn);

    if (++quantify_step % 4 == 0) {
      double eps = 0.1;
      EXPECT_EQ(dynamic.PlanForQuantify(eps), reference.PlanForQuantify(eps));
      ExpectBitIdentical(dynamic.Quantify(q, eps), reference.Quantify(q, eps), ids);
      ExpectBitIdentical(dynamic.ThresholdNN(q, 0.2, eps),
                         reference.ThresholdNN(q, 0.2, eps), ids);
      Id got_ml = dynamic.MostLikelyNN(q, eps);
      int want_ml = reference.MostLikelyNN(q, eps);
      EXPECT_EQ(got_ml, want_ml < 0 ? -1 : ids[want_ml]);
    }

    if (family != Family::kMixed && quantify_step % 10 == 0) {
      std::vector<Quantification> got = dynamic.QuantifyExact(q);
      std::vector<Quantification> want = reference.QuantifyExact(q);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].index, ids[want[i].index]);
        EXPECT_NEAR(got[i].probability, want[i].probability, 1e-9);
      }
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
      EXPECT_EQ(dynamic.NonzeroNN(q), want_nn);
      ExpectBitIdentical(dynamic.Quantify(q, 0.1), reference.Quantify(q, 0.1), ids);
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
          answers.push_back(dynamic.Quantify(q, 0.15));
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

}  // namespace
}  // namespace dyn
}  // namespace pnn
