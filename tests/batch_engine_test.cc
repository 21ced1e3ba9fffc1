// Tests for exec::BatchEngine: the parallel batch results must be
// bit-identical to sequential execution at a fixed seed, for every plan
// (spiral / Monte Carlo) and input family (discrete / continuous).

#include "src/exec/batch_engine.h"

#include <thread>

#include <gtest/gtest.h>

#include "src/workload/generators.h"
#include "src/workload/streaming.h"

namespace pnn {
namespace exec {
namespace {

std::vector<Point2> RandomQueries(int count, double span, Rng* rng) {
  std::vector<Point2> out(count);
  for (auto& q : out) q = {rng->Uniform(-span, span), rng->Uniform(-span, span)};
  return out;
}

// Request vectors for RequestBatch: one request per query point.
std::vector<api::QueryRequest> NonzeroRequests(const std::vector<Point2>& queries) {
  std::vector<api::QueryRequest> out;
  for (Point2 q : queries) out.push_back(api::QueryRequest::NonzeroNN(q));
  return out;
}

std::vector<api::QueryRequest> QuantifyRequests(const std::vector<Point2>& queries,
                                                double eps) {
  std::vector<api::QueryRequest> out;
  for (Point2 q : queries) out.push_back(api::QueryRequest::Quantify(q, eps));
  return out;
}

void ExpectIdentical(const std::vector<Quantification>& a,
                     const std::vector<Quantification>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    // Bit-identical, not approximately equal: same structure, same path.
    EXPECT_EQ(a[i].probability, b[i].probability);
  }
}

TEST(BatchEngine, DiscreteBatchMatchesSequential) {
  Rng rng(2001);
  auto pts = ToUniformUncertain(RandomDiscreteLocations(40, 3, 25, 4, &rng));
  Engine engine(pts);
  auto queries = RandomQueries(200, 30, &rng);
  ASSERT_EQ(engine.PlanForQuantify(0.05), QuantifyPlan::kSpiral);

  for (size_t threads : {1u, 2u, 4u}) {
    BatchOptions opt;
    opt.num_threads = threads;
    opt.min_parallel_batch = 1;
    BatchEngine batch(api::EngineRef(&engine), opt);
    EXPECT_EQ(batch.num_threads(), threads);

    auto nn = batch.RequestBatch(NonzeroRequests(queries));
    auto quant = batch.RequestBatch(QuantifyRequests(queries, 0.05));
    ASSERT_EQ(nn.values.size(), queries.size());
    ASSERT_EQ(quant.values.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(nn.values[i].ids, engine.NonzeroNN(queries[i]));
      ExpectIdentical(quant.values[i].quants, engine.Quantify(queries[i], 0.05));
    }
    EXPECT_EQ(quant.stats.spiral_plans, queries.size());
    EXPECT_EQ(quant.stats.monte_carlo_plans, 0u);
  }
}

TEST(BatchEngine, MonteCarloBatchMatchesSequentialAcrossEngines) {
  // Continuous inputs route through the Monte-Carlo structure. A separate
  // engine with the same seed must produce the same batch answers: the
  // structure depends only on (points, seed, rounds), and every sample
  // comes from its own (round, id) stream, not a shared sequential one.
  Rng rng(2003);
  UncertainSet pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back(UncertainPoint::UniformDisk(
        {rng.Uniform(-12, 12), rng.Uniform(-12, 12)}, rng.Uniform(0.5, 2.0)));
  }
  Engine::Options eopt;
  eopt.seed = 77;
  eopt.mc_rounds_override = 300;
  Engine sequential(pts, eopt);
  Engine shared(pts, eopt);
  auto queries = RandomQueries(120, 15, &rng);
  ASSERT_EQ(shared.PlanForQuantify(0.1), QuantifyPlan::kMonteCarlo);

  BatchOptions opt;
  opt.num_threads = 4;
  opt.min_parallel_batch = 1;
  BatchEngine batch(api::EngineRef(&shared), opt);
  auto result = batch.RequestBatch(QuantifyRequests(queries, 0.1));
  EXPECT_EQ(result.stats.monte_carlo_plans, queries.size());
  EXPECT_EQ(shared.MonteCarloRounds(), 300u);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectIdentical(result.values[i].quants, sequential.Quantify(queries[i], 0.1));
  }
}

TEST(BatchEngine, ThresholdBatchMatchesSequential) {
  Rng rng(2005);
  auto pts = ToUniformUncertain(RandomDiscreteLocations(20, 2, 18, 3, &rng));
  Engine engine(pts);
  auto queries = RandomQueries(90, 22, &rng);
  BatchOptions opt;
  opt.num_threads = 3;
  opt.min_parallel_batch = 1;
  BatchEngine batch(api::EngineRef(&engine), opt);
  std::vector<api::QueryRequest> requests;
  for (Point2 q : queries) requests.push_back(api::QueryRequest::ThresholdNN(q, 0.25, 0.02));
  auto result = batch.RequestBatch(requests);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectIdentical(result.values[i].quants, engine.ThresholdNN(queries[i], 0.25, 0.02));
    for (const auto& e : result.values[i].quants) EXPECT_GT(e.probability, 0.25);
  }
}

TEST(BatchEngine, StatsAreConsistent) {
  Rng rng(2007);
  auto pts = ToUniformUncertain(RandomDiscreteLocations(15, 2, 10, 2, &rng));
  Engine engine(pts);
  BatchEngine batch(api::EngineRef(&engine), BatchOptions{2, 1});
  auto queries = RandomQueries(64, 12, &rng);
  auto result = batch.RequestBatch(NonzeroRequests(queries));
  const BatchStats& s = result.stats;
  EXPECT_EQ(s.num_queries, queries.size());
  EXPECT_EQ(s.threads, 2u);
  EXPECT_GT(s.wall_seconds, 0.0);
  EXPECT_GT(s.queries_per_sec, 0.0);
  EXPECT_GE(s.p99_micros, s.p50_micros);
  EXPECT_GT(s.p50_micros, 0.0);
  EXPECT_EQ(s.spiral_plans + s.monte_carlo_plans, 0u);  // Not a quantify batch.
}

TEST(BatchEngine, SmallBatchRunsInline) {
  Rng rng(2009);
  auto pts = ToUniformUncertain(RandomDiscreteLocations(10, 2, 10, 2, &rng));
  Engine engine(pts);
  BatchOptions opt;
  opt.num_threads = 4;
  opt.min_parallel_batch = 1000;  // Forces the inline path.
  BatchEngine batch(api::EngineRef(&engine), opt);
  auto queries = RandomQueries(10, 12, &rng);
  auto result = batch.RequestBatch(NonzeroRequests(queries));
  ASSERT_EQ(result.values.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(result.values[i].ids, engine.NonzeroNN(queries[i]));
  }
}

TEST(BatchEngine, MixedEpsRebuildIsThreadSafe) {
  // Two successive batches at tightening eps: the second must rebuild the
  // Monte-Carlo structure (outside the fan-out) and stay deterministic.
  Rng rng(2011);
  UncertainSet pts;
  for (int i = 0; i < 8; ++i) {
    pts.push_back(UncertainPoint::UniformDisk(
        {rng.Uniform(-8, 8), rng.Uniform(-8, 8)}, rng.Uniform(0.5, 1.5)));
  }
  Engine::Options eopt;
  eopt.seed = 5;
  eopt.mc_rounds_override = 200;
  Engine shared(pts, eopt);
  Engine sequential(pts, eopt);
  BatchOptions opt;
  opt.num_threads = 4;
  opt.min_parallel_batch = 1;
  BatchEngine batch(api::EngineRef(&shared), opt);
  auto queries = RandomQueries(60, 10, &rng);
  auto loose = batch.RequestBatch(QuantifyRequests(queries, 0.2));
  auto tight = batch.RequestBatch(QuantifyRequests(queries, 0.05));
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectIdentical(loose.values[i].quants, sequential.Quantify(queries[i], 0.2));
    ExpectIdentical(tight.values[i].quants, sequential.Quantify(queries[i], 0.05));
  }
}

TEST(BatchEngine, DynamicBackendMatchesStaticReference) {
  // Query batches against a DynamicEngine backend must agree with both
  // per-query dynamic calls and a static reference engine over the live
  // set, at several thread counts.
  Rng rng(2101);
  dyn::Options dopt;
  dopt.engine.seed = 9;
  dopt.engine.mc_rounds_override = 120;
  dopt.tail_limit = 8;
  dyn::DynamicEngine dynamic(dopt);
  std::vector<dyn::Id> live;
  for (int i = 0; i < 40; ++i) {
    live.push_back(dynamic.Insert(UncertainPoint::UniformDisk(
        {rng.Uniform(-12, 12), rng.Uniform(-12, 12)}, rng.Uniform(0.5, 2.0))));
  }
  for (int i = 0; i < 10; ++i) dynamic.Erase(live[static_cast<size_t>(i) * 3]);
  dynamic.WaitForMaintenance();

  std::vector<dyn::Id> ids;
  Engine reference(dynamic.LiveSet(&ids), dynamic.ReferenceEngineOptions());
  auto queries = RandomQueries(80, 15, &rng);
  for (size_t threads : {1u, 3u}) {
    BatchOptions opt;
    opt.num_threads = threads;
    opt.min_parallel_batch = 1;
    BatchEngine batch(api::EngineRef(&dynamic), opt);
    auto nn = batch.RequestBatch(NonzeroRequests(queries));
    auto quant = batch.RequestBatch(QuantifyRequests(queries, 0.1));
    EXPECT_EQ(quant.stats.monte_carlo_plans, queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(nn.values[i].ids, dynamic.View()->NonzeroNN(queries[i]));
      std::vector<dyn::Id> want_nn;
      for (int r : reference.NonzeroNN(queries[i])) want_nn.push_back(ids[r]);
      EXPECT_EQ(nn.values[i].ids, want_nn);
      auto want_q = reference.Quantify(queries[i], 0.1);
      const std::vector<Quantification>& got_q = quant.values[i].quants;
      ASSERT_EQ(got_q.size(), want_q.size());
      for (size_t j = 0; j < want_q.size(); ++j) {
        EXPECT_EQ(got_q[j].index, ids[want_q[j].index]);
        EXPECT_EQ(got_q[j].probability, want_q[j].probability);
      }
    }
  }
}

TEST(BatchEngine, MonteCarloExactTiesAreDeterministic) {
  // Discrete points that share exact locations, some of them symmetric
  // about the origin, so nearly every round has exact distance ties —
  // between copies of one location and between distinct equidistant
  // locations. Every round answers through KdTree::NearestSquared (lowest
  // tied index), so batches are bit-identical at any thread count and a
  // static Engine with per-point stream ids matches a DynamicEngine.
  Rng rng(2015);
  const std::vector<Point2> shared = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {3, 2}, {-2, 3}};
  UncertainSet pts;
  for (int i = 0; i < 48; ++i) {
    std::vector<Point2> locs(3);
    for (auto& l : locs) {
      l = rng.Bernoulli(0.8) ? shared[rng.UniformInt(0, shared.size() - 1)]
                             : Point2{rng.Uniform(-4, 4), rng.Uniform(-4, 4)};
    }
    pts.push_back(UncertainPoint::Discrete(std::move(locs), {0.2, 0.3, 0.5}));
  }
  std::vector<Point2> queries = RandomQueries(60, 5, &rng);
  queries.push_back({0, 0});  // Equidistant from four shared locations.
  queries.push_back(shared[4]);

  Engine::Options eopt;
  eopt.seed = 21;
  eopt.mc_rounds_override = 200;
  eopt.spiral_budget_fraction = 1e-9;  // Force the Monte-Carlo plan.
  Engine engine(pts, eopt);
  ASSERT_EQ(engine.PlanForQuantify(0.1), QuantifyPlan::kMonteCarlo);
  std::vector<std::vector<Quantification>> by_threads[2];
  for (size_t threads : {1u, 4u}) {
    BatchOptions opt;
    opt.num_threads = threads;
    opt.min_parallel_batch = 1;
    BatchEngine batch(api::EngineRef(&engine), opt);
    auto result = batch.RequestBatch(QuantifyRequests(queries, 0.1));
    EXPECT_EQ(result.stats.monte_carlo_plans, queries.size());
    for (api::QueryResponse& r : result.values) {
      by_threads[threads == 1 ? 0 : 1].push_back(std::move(r.quants));
    }
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectIdentical(by_threads[1][i], by_threads[0][i]);
  }

  // Dynamic and sharded backends against a static reference over the live
  // set. Small tails mean several buckets per engine, and the shard
  // router's union snapshot concatenates per-shard tails out of id order.
  auto expect_matches_reference = [&](auto* backend) {
    std::vector<dyn::Id> inserted;
    for (const auto& p : pts) inserted.push_back(backend->Insert(p));
    for (int i = 0; i < 6; ++i) backend->Erase(inserted[static_cast<size_t>(i) * 7]);
    std::vector<dyn::Id> ids;
    Engine reference(backend->LiveSet(&ids), backend->ReferenceEngineOptions());
    ASSERT_EQ(backend->View()->PlanForQuantify(0.1), QuantifyPlan::kMonteCarlo);
    BatchOptions opt;
    opt.num_threads = 4;
    opt.min_parallel_batch = 1;
    BatchEngine batch(api::EngineRef(backend), opt);
    auto got = batch.RequestBatch(QuantifyRequests(queries, 0.1));
    for (size_t i = 0; i < queries.size(); ++i) {
      auto want = reference.Quantify(queries[i], 0.1);
      const std::vector<Quantification>& got_q = got.values[i].quants;
      ASSERT_EQ(got_q.size(), want.size());
      for (size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got_q[j].index, ids[want[j].index]);
        EXPECT_EQ(got_q[j].probability, want[j].probability);
      }
    }
  };
  dyn::Options dopt;
  dopt.engine = eopt;
  dopt.tail_limit = 8;
  dyn::DynamicEngine dynamic(dopt);
  expect_matches_reference(&dynamic);
  shard::Options sopt;
  sopt.num_shards = 3;
  sopt.shard = dopt;
  shard::ShardedEngine sharded(sopt);
  expect_matches_reference(&sharded);
}

TEST(BatchEngine, MixedBatchMatchesSequentialReplay) {
  // The same streaming-churn op stream, applied (a) via RequestBatch with a
  // pool and (b) op-by-op against a second engine, must produce identical
  // results — updates are ordered and queries snapshot-deterministic.
  Rng gen_rng(2103);
  StreamingChurnOptions sopt;
  sopt.initial = 48;
  sopt.ops = 300;
  sopt.churn = 0.3;
  sopt.drift_weight = 1.0;
  sopt.quantify_fraction = 0.4;
  auto ops = GenerateStreamingChurn(sopt, &gen_rng);

  dyn::Options dopt;
  dopt.engine.mc_rounds_override = 48;
  dopt.tail_limit = 16;
  dyn::DynamicEngine batched(dopt);
  dyn::DynamicEngine sequential(dopt);

  BatchOptions bopt;
  bopt.num_threads = 4;
  bopt.min_parallel_batch = 2;
  BatchEngine batch(api::EngineRef(&batched), bopt);
  auto result = batch.RequestBatch(ToRequests(ops, 0.1));
  ASSERT_EQ(result.values.size(), ops.size());

  size_t queries = 0, updates = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const MixedOp& op = ops[i];
    const api::QueryResponse& got = result.values[i];
    switch (op.kind) {
      case MixedOp::Kind::kInsert:
        EXPECT_EQ(got.id, sequential.Insert(*op.point));
        ++updates;
        break;
      case MixedOp::Kind::kErase:
        EXPECT_EQ(got.id, sequential.Erase(op.id) ? op.id : -1);
        ++updates;
        break;
      case MixedOp::Kind::kNonzeroNN:
        EXPECT_EQ(got.ids, sequential.View()->NonzeroNN(op.q));
        ++queries;
        break;
      case MixedOp::Kind::kQuantify:
      case MixedOp::Kind::kThresholdNN: {
        auto want = op.kind == MixedOp::Kind::kQuantify
                        ? sequential.View()->Quantify(op.q, 0.1)
                        : sequential.View()->ThresholdNN(op.q, op.tau, 0.1);
        ASSERT_EQ(got.quants.size(), want.size());
        for (size_t j = 0; j < want.size(); ++j) {
          EXPECT_EQ(got.quants[j].index, want[j].index);
          EXPECT_EQ(got.quants[j].probability, want[j].probability);
        }
        ++queries;
        break;
      }
    }
  }
  const BatchStats& s = result.stats;
  EXPECT_EQ(s.num_queries, queries);
  EXPECT_EQ(s.num_updates, updates);
  EXPECT_GT(s.num_updates, 0u);
  EXPECT_GT(s.update_p50_micros, 0.0);
  EXPECT_GE(s.update_p99_micros, s.update_p50_micros);
  EXPECT_GT(s.queries_per_sec, 0.0);
}

TEST(BatchEngine, ConcurrentEpsTighteningIsSafe) {
  // Regression: a Quantify at a tighter eps rebuilds the Monte-Carlo
  // structure; concurrent queries holding the old structure must keep it
  // alive (this used to be a use-after-free, caught by TSan/ASan).
  Rng rng(2013);
  UncertainSet pts;
  for (int i = 0; i < 6; ++i) {
    pts.push_back(UncertainPoint::UniformDisk(
        {rng.Uniform(-6, 6), rng.Uniform(-6, 6)}, rng.Uniform(0.5, 1.5)));
  }
  Engine::Options eopt;
  eopt.mc_rounds_override = 100;
  Engine engine(pts, eopt);
  const double epses[] = {0.4, 0.2, 0.1, 0.05};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng trng(100 + t);
      for (int i = 0; i < 40; ++i) {
        Point2 q{trng.Uniform(-8, 8), trng.Uniform(-8, 8)};
        auto result = engine.Quantify(q, epses[(t + i) % 4]);
        for (const auto& e : result) {
          EXPECT_GE(e.probability, 0.0);
          EXPECT_LE(e.probability, 1.0);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace exec
}  // namespace pnn
