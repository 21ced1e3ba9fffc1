// dyn::AnswerCache: the cross-query memoization layer hung off published
// snapshots (and the shard router's combined views). Covered here:
//   * unit behavior — hit/miss, kind separation, LRU overwrite, stats;
//   * engine-level hits with bit-identical answers, and equality against
//     an engine running with the cache disabled (semantic invisibility);
//   * invalidation: a publish (insert/erase) starts a fresh cache, so a
//     repeated query reflects the update;
//   * the zero-alloc warm path on HITS and on steady-state MISSES (LRU
//     slots donate their vector capacity to the overwriting answer);
//   * per-batch dedup surfaced in exec::BatchStats;
//   * a TSan-exercised race of concurrent queriers against publishers
//     (suite names start with Dynamic/Shard so the CI tsan job runs them).

#include <algorithm>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/dyn/answer_cache.h"
#include "src/dyn/dynamic_engine.h"
#include "src/exec/batch_engine.h"
#include "src/shard/sharded_engine.h"
#include "src/util/alloc_hook.h"
#include "src/util/rng.h"

namespace pnn {
namespace {

UncertainPoint SmallDiscrete(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 3));
  std::vector<Point2> locs(k);
  std::vector<double> w(k);
  double total = 0;
  for (int s = 0; s < k; ++s) {
    locs[s] = {rng->Uniform(-40, 40), rng->Uniform(-40, 40)};
    w[s] = rng->Uniform(0.2, 1.0);
    total += w[s];
  }
  for (int s = 0; s < k; ++s) w[s] /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

template <typename EngineT>
void Churn(EngineT* engine, Rng* rng, int n) {
  for (int i = 0; i < n; ++i) engine->Insert(SmallDiscrete(rng));
  for (int i = 0; i < n / 4; ++i) {
    engine->Erase(static_cast<dyn::Id>(i * 3 % n));
    engine->Insert(SmallDiscrete(rng));
  }
}

std::vector<Point2> TestQueries(Rng* rng, int count) {
  std::vector<Point2> qs(count);
  for (auto& q : qs) q = {rng->Uniform(-45, 45), rng->Uniform(-45, 45)};
  return qs;
}

TEST(DynamicAnswerCache, UnitHitMissKindsAndStats) {
  dyn::AnswerCache cache;
  dyn::AnswerCache::Key nn_key{dyn::AnswerCache::Kind::kNonzeroNN, {1.5, -2.5}, 0.0};
  std::vector<dyn::Id> ids_out{99};  // Pre-filled: a hit must assign over it.

  EXPECT_FALSE(cache.LookupIds(nn_key, &ids_out));
  cache.InsertIds(nn_key, {3, 7, 11});
  ASSERT_TRUE(cache.LookupIds(nn_key, &ids_out));
  EXPECT_EQ(ids_out, (std::vector<dyn::Id>{3, 7, 11}));

  // Same point, different kind: its own entry, no cross-talk.
  dyn::AnswerCache::Key q_key{dyn::AnswerCache::Kind::kQuantify, {1.5, -2.5}, 0.1};
  std::vector<Quantification> quants_out;
  EXPECT_FALSE(cache.LookupQuants(q_key, &quants_out));
  cache.InsertQuants(q_key, {{4, 0.75}});
  ASSERT_TRUE(cache.LookupQuants(q_key, &quants_out));
  ASSERT_EQ(quants_out.size(), 1u);
  EXPECT_EQ(quants_out[0].index, 4);
  EXPECT_EQ(quants_out[0].probability, 0.75);
  // Different eps = different key.
  dyn::AnswerCache::Key other_eps = q_key;
  other_eps.eps = 0.2;
  EXPECT_FALSE(cache.LookupQuants(other_eps, &quants_out));

  // Overwriting an existing key replaces its answer in place.
  cache.InsertIds(nn_key, {5});
  ASSERT_TRUE(cache.LookupIds(nn_key, &ids_out));
  EXPECT_EQ(ids_out, (std::vector<dyn::Id>{5}));

  dyn::AnswerCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(DynamicAnswerCache, LruEvictsColdKeysNotHotOnes) {
  dyn::AnswerCache cache;
  dyn::AnswerCache::Key hot{dyn::AnswerCache::Kind::kNonzeroNN, {0.25, 0.25}, 0.0};
  cache.InsertIds(hot, {1});
  std::vector<dyn::Id> out;
  // Flood with several capacities of distinct keys, touching the hot key
  // between each — its tick stays fresh, so it must survive every
  // eviction in its shard.
  for (size_t i = 1; i <= 4 * dyn::AnswerCache::Capacity(); ++i) {
    dyn::AnswerCache::Key k{dyn::AnswerCache::Kind::kNonzeroNN,
                            {static_cast<double>(i), -1.0}, 0.0};
    cache.InsertIds(k, {static_cast<dyn::Id>(i)});
    ASSERT_TRUE(cache.LookupIds(hot, &out)) << "after insert " << i;
  }
  // The earliest flood keys were evicted (bounded capacity).
  dyn::AnswerCache::Key first{dyn::AnswerCache::Kind::kNonzeroNN, {1.0, -1.0}, 0.0};
  EXPECT_FALSE(cache.LookupIds(first, &out));
}

TEST(DynamicAnswerCache, EngineHitsAndAnswersMatchUncached) {
  Rng rng(601);
  dyn::Options cached_opt;
  cached_opt.engine.seed = 99;
  dyn::Options uncached_opt = cached_opt;
  uncached_opt.answer_cache = false;
  dyn::DynamicEngine cached(cached_opt);
  dyn::DynamicEngine uncached(uncached_opt);
  {
    Rng a(77), b(77);
    Churn(&cached, &a, 200);
    Churn(&uncached, &b, 200);
  }
  ASSERT_NE(cached.snapshot()->answers, nullptr);
  EXPECT_EQ(uncached.snapshot()->answers, nullptr);

  std::vector<Point2> queries = TestQueries(&rng, 12);
  auto snap = cached.snapshot();
  dyn::AnswerCache::Stats s0 = snap->answers->stats();
  std::vector<dyn::Id> first_ids, second_ids, plain_ids;
  std::vector<Quantification> first_q, second_q, plain_q;
  for (Point2 q : queries) {
    cached.View()->NonzeroNNInto(q, &first_ids);
    uncached.View()->NonzeroNNInto(q, &plain_ids);
    EXPECT_EQ(first_ids, plain_ids);  // Miss path == uncached evaluation.
    cached.View()->NonzeroNNInto(q, &second_ids);
    EXPECT_EQ(second_ids, first_ids);  // Hit path == miss path.

    cached.View()->QuantifyInto(q, 0.1, &first_q);
    uncached.View()->QuantifyInto(q, 0.1, &plain_q);
    ASSERT_EQ(first_q.size(), plain_q.size());
    cached.View()->QuantifyInto(q, 0.1, &second_q);
    ASSERT_EQ(second_q.size(), first_q.size());
    for (size_t i = 0; i < first_q.size(); ++i) {
      EXPECT_EQ(first_q[i].index, plain_q[i].index);
      EXPECT_EQ(first_q[i].probability, plain_q[i].probability);
      EXPECT_EQ(second_q[i].index, first_q[i].index);
      EXPECT_EQ(second_q[i].probability, first_q[i].probability);
    }
  }
  dyn::AnswerCache::Stats s1 = snap->answers->stats();
  // Each query ran one miss + one hit per kind.
  EXPECT_EQ(s1.hits - s0.hits, 2 * queries.size());
  EXPECT_EQ(s1.misses - s0.misses, 2 * queries.size());
}

TEST(DynamicAnswerCache, PublishInvalidates) {
  Rng rng(603);
  dyn::DynamicEngine engine{dyn::Options{}};
  Churn(&engine, &rng, 100);
  Point2 q{0.5, 0.5};
  std::vector<dyn::Id> before_ids;
  engine.View()->NonzeroNNInto(q, &before_ids);
  engine.View()->NonzeroNNInto(q, &before_ids);  // Now cached.
  auto old_snap = engine.snapshot();

  // A point with a location AT the query (delta = 0) and one far away
  // (so its OWN max-distance doesn't collapse the Lemma 2.1 bound to 0):
  // it must appear in the next answer — a stale cache hit could not
  // produce it.
  dyn::Id new_id = engine.Insert(
      UncertainPoint::Discrete({{0.5, 0.5}, {100.0, 100.0}}, {0.5, 0.5}));
  auto new_snap = engine.snapshot();
  EXPECT_NE(new_snap, old_snap);
  EXPECT_NE(new_snap->answers, old_snap->answers);  // Fresh cache.

  std::vector<dyn::Id> after_ids;
  engine.View()->NonzeroNNInto(q, &after_ids);
  EXPECT_NE(std::find(after_ids.begin(), after_ids.end(), new_id),
            after_ids.end());
}

TEST(DynamicAnswerCache, WarmHitsAllocateNothing) {
  Rng rng(605);
  dyn::Options opt;
  opt.engine.spiral_budget_fraction = 1e-9;  // MC plan: the expensive path.
  opt.engine.mc_rounds_override = 24;
  dyn::DynamicEngine engine(opt);
  Churn(&engine, &rng, 300);
  std::vector<Point2> queries = TestQueries(&rng, 8);
  std::vector<Quantification> out;
  std::vector<dyn::Id> ids;
  for (int pass = 0; pass < 2; ++pass) {
    for (Point2 q : queries) {
      engine.View()->QuantifyInto(q, 0.1, &out);
      engine.View()->NonzeroNNInto(q, &ids);
    }
  }
  auto snap = engine.snapshot();
  dyn::AnswerCache::Stats s0 = snap->answers->stats();
  for (Point2 q : queries) {
    int64_t before = util::AllocationCount();
    engine.View()->QuantifyInto(q, 0.1, &out);
    engine.View()->NonzeroNNInto(q, &ids);
    EXPECT_EQ(util::AllocationCount() - before, 0)
        << "allocations in a warm cache hit at (" << q.x << ", " << q.y << ")";
  }
  dyn::AnswerCache::Stats s1 = snap->answers->stats();
  EXPECT_EQ(s1.hits - s0.hits, 2 * queries.size());  // All hits.
  EXPECT_EQ(s1.misses, s0.misses);
}

TEST(DynamicAnswerCache, WarmMissesAllocateNothing) {
  // More distinct keys than the cache holds, cycled repeatedly: lookups
  // mostly miss (LRU churn) and every miss-insert overwrites a victim
  // slot, which donates its vector capacity to the overwriting answer.
  // Uniform answer sizes make this deterministic — after two warm cycles
  // every slot's capacity has settled no matter how the LRU rotates keys
  // across slots, so the steady-state miss cycle allocates nothing.
  // (Engine-level: a warm miss is this insert path plus the evaluation
  // that alloc_hotpath_test already certifies allocation-free.)
  dyn::AnswerCache cache;
  const size_t kKeys = 2 * dyn::AnswerCache::Capacity();
  const std::vector<dyn::Id> answer{1, 2, 3, 4, 5, 6, 7, 8};
  auto key_at = [](size_t i) {
    return dyn::AnswerCache::Key{dyn::AnswerCache::Kind::kNonzeroNN,
                                 {static_cast<double>(i), 0.5}, 0.0};
  };
  std::vector<dyn::Id> out;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < kKeys; ++i) {
      if (!cache.LookupIds(key_at(i), &out)) cache.InsertIds(key_at(i), answer);
    }
  }
  dyn::AnswerCache::Stats s0 = cache.stats();
  int64_t before = util::AllocationCount();
  for (size_t i = 0; i < kKeys; ++i) {
    if (!cache.LookupIds(key_at(i), &out)) cache.InsertIds(key_at(i), answer);
  }
  EXPECT_EQ(util::AllocationCount() - before, 0)
      << "allocations in steady-state cache misses";
  dyn::AnswerCache::Stats s1 = cache.stats();
  EXPECT_EQ(s1.hits + s1.misses - s0.hits - s0.misses, kKeys);
  // With 2x capacity cycling through the shards, the bulk of the steady
  // state is misses (a shard only hits if it saw fewer keys than slots).
  EXPECT_GT(s1.misses - s0.misses, (s1.hits - s0.hits) * 4);
}

TEST(DynamicAnswerCache, BatchStatsSeeTheDedup) {
  Rng rng(609);
  dyn::DynamicEngine engine{dyn::Options{}};
  Churn(&engine, &rng, 200);
  // 10 unique queries, each issued 4 times. Single-threaded batch: the
  // first issue misses, the other three hit — deterministically.
  std::vector<Point2> unique = TestQueries(&rng, 10);
  std::vector<Point2> queries;
  for (int rep = 0; rep < 4; ++rep) {
    queries.insert(queries.end(), unique.begin(), unique.end());
  }
  exec::BatchOptions bopt;
  bopt.num_threads = 1;
  exec::BatchEngine batch(api::EngineRef(&engine), bopt);
  std::vector<api::QueryRequest> requests;
  for (Point2 q : queries) requests.push_back(api::QueryRequest::NonzeroNN(q));
  auto result = batch.RequestBatch(requests);
  EXPECT_EQ(result.stats.answer_cache_misses, unique.size());
  EXPECT_EQ(result.stats.answer_cache_hits, 3 * unique.size());
  for (size_t i = 0; i < unique.size(); ++i) {
    for (int rep = 1; rep < 4; ++rep) {
      EXPECT_EQ(result.values[i + rep * unique.size()].ids, result.values[i].ids);
    }
  }
}

TEST(ShardAnswerCache, ViewCacheHitsAndPublishInvalidates) {
  Rng rng(611);
  shard::Options sopt;
  sopt.num_shards = 3;
  shard::ShardedEngine engine(sopt);
  Churn(&engine, &rng, 200);

  auto view = engine.View();
  ASSERT_NE(view->combined->answers, nullptr);
  std::vector<Point2> queries = TestQueries(&rng, 8);
  std::vector<dyn::Id> ids, again;
  for (Point2 q : queries) engine.View()->NonzeroNNInto(q, &ids);
  dyn::AnswerCache::Stats s0 = view->combined->answers->stats();
  for (Point2 q : queries) {
    view->NonzeroNNInto(q, &ids);
    view->NonzeroNNInto(q, &again);
    EXPECT_EQ(again, ids);
  }
  dyn::AnswerCache::Stats s1 = view->combined->answers->stats();
  EXPECT_EQ(s1.hits - s0.hits, 2 * queries.size());  // Pre-warmed above.

  // Any shard publish rebuilds the view with a fresh cache.
  engine.Insert(SmallDiscrete(&rng));
  auto new_view = engine.View();
  EXPECT_NE(new_view, view);
  EXPECT_NE(new_view->combined->answers, view->combined->answers);
}

TEST(DynamicAnswerCacheRace, QueriersVsPublishers) {
  Rng rng(613);
  dyn::Options opt;
  opt.tail_limit = 8;  // Frequent merges: publishes churn snapshots hard.
  dyn::DynamicEngine engine(opt);
  for (int i = 0; i < 100; ++i) engine.Insert(SmallDiscrete(&rng));

  std::vector<std::thread> queriers;
  for (int t = 0; t < 4; ++t) {
    queriers.emplace_back([&engine, t] {
      Rng qrng(1000 + t);
      std::vector<dyn::Id> ids;
      std::vector<Quantification> quants;
      // Half the threads share a query set (cross-thread hits), half roam.
      std::vector<Point2> shared{{1, 1}, {-2, 3}, {4, -4}, {0, 0}};
      for (int i = 0; i < 300; ++i) {
        Point2 q = (t < 2) ? shared[i % shared.size()]
                           : Point2{qrng.Uniform(-45, 45), qrng.Uniform(-45, 45)};
        engine.View()->NonzeroNNInto(q, &ids);
        if (i % 3 == 0) engine.View()->QuantifyInto(q, 0.15, &quants);
      }
    });
  }
  std::vector<dyn::Id> live;
  for (int i = 0; i < 100; ++i) live.push_back(i);
  for (int i = 0; i < 200; ++i) {
    if (i % 3 == 0 && !live.empty()) {
      engine.Erase(live.back());
      live.pop_back();
    } else {
      live.push_back(engine.Insert(SmallDiscrete(&rng)));
    }
  }
  for (auto& th : queriers) th.join();
  engine.WaitForMaintenance();
  EXPECT_EQ(engine.live_size(), live.size());
}

}  // namespace
}  // namespace pnn
