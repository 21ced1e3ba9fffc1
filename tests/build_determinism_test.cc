// Determinism of the parallel structure builds: a kd-tree (or a whole
// Engine, or a dynamic engine's pooled maintenance) built with any pool
// size or parallel cutoff must equal the serial build — node-for-node for
// the kd trees, answer-for-answer for every query mode.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pnn.h"
#include "src/dyn/dynamic_engine.h"
#include "src/exec/thread_pool.h"
#include "src/spatial/kdtree.h"
#include "src/util/rng.h"

namespace pnn {
namespace {

std::vector<Point2> RandomPoints(int n, Rng* rng) {
  std::vector<Point2> pts(n);
  for (auto& p : pts) p = {rng->Uniform(-100, 100), rng->Uniform(-100, 100)};
  return pts;
}

TEST(BuildDeterminism, KdTreeParallelBuildIsBitIdentical) {
  Rng rng(411);
  auto pts = RandomPoints(3000, &rng);
  std::vector<double> weights(pts.size());
  for (auto& w : weights) w = rng.Uniform(0.0, 5.0);
  KdTree serial(pts, weights);

  for (size_t pool_size : {1u, 2u, 8u}) {
    exec::ThreadPool pool(pool_size);
    for (int cutoff : {0, 64, 1 << 30}) {
      KdTree::BuildOptions build;
      build.pool = &pool;
      build.parallel_cutoff = cutoff;
      KdTree parallel(pts, weights, Metric::kEuclidean, build);
      EXPECT_TRUE(serial.SameStructure(parallel))
          << "pool=" << pool_size << " cutoff=" << cutoff;
      // Node equality implies query equality; spot-check one mode anyway.
      for (int t = 0; t < 20; ++t) {
        Point2 q{rng.Uniform(-120, 120), rng.Uniform(-120, 120)};
        EXPECT_EQ(serial.Nearest(q), parallel.Nearest(q));
        EXPECT_EQ(serial.ReportSubtractiveLess(q, 10.0),
                  parallel.ReportSubtractiveLess(q, 10.0));
      }
    }
  }
}

TEST(BuildDeterminism, KdTreeChebyshevAndDuplicatesStayIdentical) {
  Rng rng(413);
  // Duplicates and collinear runs exercise nth_element tie handling.
  std::vector<Point2> pts;
  for (int i = 0; i < 500; ++i) {
    Point2 p{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    pts.push_back(p);
    pts.push_back(p);
    pts.push_back({p.x, 0.0});
  }
  KdTree serial(pts, {}, Metric::kChebyshev);
  exec::ThreadPool pool(4);
  KdTree::BuildOptions build;
  build.pool = &pool;
  build.parallel_cutoff = 0;
  KdTree parallel(pts, {}, Metric::kChebyshev, build);
  EXPECT_TRUE(serial.SameStructure(parallel));
}

UncertainPoint RandomDiscrete(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 4));
  std::vector<Point2> locs(k);
  std::vector<double> w(k);
  double total = 0;
  for (int s = 0; s < k; ++s) {
    locs[s] = {rng->Uniform(-50, 50), rng->Uniform(-50, 50)};
    w[s] = rng->Uniform(0.1, 1.0);
    total += w[s];
  }
  for (int s = 0; s < k; ++s) w[s] /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

void ExpectSameQuantifications(const std::vector<Quantification>& a,
                               const std::vector<Quantification>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].probability, b[i].probability);  // Bit-identical.
  }
}

// All five query modes must coincide exactly between two engines over the
// same points.
void ExpectSameAnswers(const Engine& a, const Engine& b, Rng* rng, int queries) {
  for (int t = 0; t < queries; ++t) {
    Point2 q{rng->Uniform(-60, 60), rng->Uniform(-60, 60)};
    EXPECT_EQ(a.NonzeroNN(q), b.NonzeroNN(q));
    ExpectSameQuantifications(a.Quantify(q, 0.1), b.Quantify(q, 0.1));
    ExpectSameQuantifications(a.QuantifyExact(q), b.QuantifyExact(q));
    ExpectSameQuantifications(a.ThresholdNN(q, 0.2, 0.1), b.ThresholdNN(q, 0.2, 0.1));
    EXPECT_EQ(a.MostLikelyNN(q, 0.1), b.MostLikelyNN(q, 0.1));
  }
}

TEST(BuildDeterminism, DiscreteEngineParallelBuildMatchesSerial) {
  Rng rng(421);
  UncertainSet points;
  for (int i = 0; i < 400; ++i) points.push_back(RandomDiscrete(&rng));
  Engine serial(points);
  for (size_t pool_size : {1u, 2u, 8u}) {
    exec::ThreadPool pool(pool_size);
    for (int cutoff : {16, 1 << 30}) {
      Engine::Options opts;
      opts.build_pool = &pool;
      opts.build_parallel_cutoff = cutoff;
      Engine parallel(points, opts);
      ExpectSameAnswers(serial, parallel, &rng, 10);
    }
  }
}

TEST(BuildDeterminism, MonteCarloParallelBuildMatchesSerial) {
  Rng rng(423);
  UncertainSet points;
  for (int i = 0; i < 120; ++i) {
    points.push_back(UncertainPoint::UniformDisk(
        {rng.Uniform(-40, 40), rng.Uniform(-40, 40)}, rng.Uniform(0.5, 3.0)));
  }
  Engine::Options serial_opts;
  serial_opts.mc_rounds_override = 64;
  Engine serial(points, serial_opts);
  exec::ThreadPool pool(8);
  Engine::Options par_opts = serial_opts;
  par_opts.build_pool = &pool;
  Engine parallel(points, par_opts);
  // Continuous inputs quantify through the Monte-Carlo structure, whose
  // rounds were built in parallel on one side.
  serial.Prewarm(0.1);
  parallel.Prewarm(0.1);
  for (int t = 0; t < 10; ++t) {
    Point2 q{rng.Uniform(-50, 50), rng.Uniform(-50, 50)};
    EXPECT_EQ(serial.NonzeroNN(q), parallel.NonzeroNN(q));
    ExpectSameQuantifications(serial.Quantify(q, 0.1), parallel.Quantify(q, 0.1));
    EXPECT_EQ(serial.ExpectedDistanceNN(q), parallel.ExpectedDistanceNN(q));
  }
}

dyn::Options MaintenanceDynOptions(exec::ThreadPool* pool) {
  dyn::Options opt;
  opt.engine.seed = 77;
  opt.tail_limit = 24;
  opt.max_dead_fraction = 0.2;
  opt.pool = pool;
  return opt;
}

// Interleaved inserts/erases drive merges and at least one compaction
// through the pooled background path; after every maintenance quiescence
// the engine must answer exactly like a fresh static Engine over its live
// set (and hence like inline maintenance, which satisfies the same
// contract).
TEST(BuildDeterminism, PooledCompactionAnswersMatchReferenceEngine) {
  for (size_t pool_size : {1u, 4u}) {
    exec::ThreadPool pool(pool_size);
    dyn::DynamicEngine engine(MaintenanceDynOptions(&pool));
    Rng rng(431);
    std::vector<dyn::Id> live;
    for (int op = 0; op < 600; ++op) {
      if (live.size() < 60 || rng.Bernoulli(0.55)) {
        live.push_back(engine.Insert(RandomDiscrete(&rng)));
      } else {
        size_t pick = static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
        EXPECT_TRUE(engine.Erase(live[pick]));
        live.erase(live.begin() + static_cast<long>(pick));
      }
      if (op % 150 == 149) {
        engine.WaitForMaintenance();
        std::vector<dyn::Id> ids;
        UncertainSet live_set = engine.LiveSet(&ids);
        Engine reference(live_set, engine.ReferenceEngineOptions());
        for (int t = 0; t < 5; ++t) {
          Point2 q{rng.Uniform(-60, 60), rng.Uniform(-60, 60)};
          std::vector<int> ref_nn = reference.NonzeroNN(q);
          for (auto& i : ref_nn) i = ids[i];
          EXPECT_EQ(engine.View()->NonzeroNN(q), ref_nn);
          std::vector<Quantification> ref_quant = reference.Quantify(q, 0.1);
          for (auto& e : ref_quant) e.index = ids[e.index];
          ExpectSameQuantifications(engine.View()->Quantify(q, 0.1), ref_quant);
        }
      }
    }
    engine.WaitForMaintenance();
    EXPECT_GT(engine.num_buckets(), 0u);
  }
}

// Pooled background maintenance must also match inline maintenance in its
// observable answers after the same op sequence, bit for bit in every mode.
TEST(BuildDeterminism, PooledAndInlineMaintenanceAgree) {
  exec::ThreadPool pool(2);
  dyn::DynamicEngine pooled(MaintenanceDynOptions(&pool));
  dyn::DynamicEngine inline_engine(MaintenanceDynOptions(nullptr));
  Rng rng_a(433), rng_q(434);
  std::vector<dyn::Id> live;
  for (int op = 0; op < 400; ++op) {
    if (live.size() < 50 || rng_a.Bernoulli(0.6)) {
      UncertainPoint p = RandomDiscrete(&rng_a);
      dyn::Id id = pooled.Insert(p);
      inline_engine.InsertWithId(id, p);
      live.push_back(id);
    } else {
      size_t pick = static_cast<size_t>(rng_a.UniformInt(0, live.size() - 1));
      EXPECT_TRUE(pooled.Erase(live[pick]));
      EXPECT_TRUE(inline_engine.Erase(live[pick]));
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  pooled.WaitForMaintenance();
  inline_engine.WaitForMaintenance();
  ASSERT_EQ(pooled.live_size(), inline_engine.live_size());
  for (int t = 0; t < 20; ++t) {
    Point2 q{rng_q.Uniform(-60, 60), rng_q.Uniform(-60, 60)};
    EXPECT_EQ(pooled.View()->NonzeroNN(q), inline_engine.View()->NonzeroNN(q));
    ExpectSameQuantifications(pooled.View()->Quantify(q, 0.1),
                              inline_engine.View()->Quantify(q, 0.1));
    // Background scheduling legitimately yields a different bucket
    // partition than inline maintenance (plans see different tails), but
    // QuantifyExact evaluates the NN!=0 candidates gathered across the
    // partition in ascending-id order, so it too is bit-identical.
    ExpectSameQuantifications(pooled.View()->QuantifyExact(q),
                              inline_engine.View()->QuantifyExact(q));
  }
}

}  // namespace
}  // namespace pnn
