// The Monte-Carlo evaluator over the NN!=0 candidates' sample rows
// (pnn::McQuantifyRowsInto) against the structure of Theorem 4.3 itself:
// MonteCarloPNN, one kd tree per round over the same McSample draws,
// queried with KdTree::NearestSquared. Every backend — the static Engine
// (directly and through its one-part view), a DynamicEngine with
// tombstones and a live tail, and a 3-shard router — must answer bit for
// bit as the oracle over the backend's live set under its ids does, on
// random disks, heavily overlapping disks, tie-heavy discrete sets with
// shared locations and duplicate points, the Lemma 4.1 and Theorem 2.7
// lower-bound instances, and a mixed set.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pnn.h"
#include "src/dyn/dynamic_engine.h"
#include "src/dyn/merge.h"
#include "src/shard/sharded_engine.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"

namespace pnn {
namespace {

constexpr size_t kRounds = 96;
constexpr uint64_t kSeed = 17;

UncertainSet Disks(const std::vector<Circle>& circles) {
  UncertainSet out;
  for (const Circle& c : circles) {
    out.push_back(UncertainPoint::UniformDisk(c.center, c.radius));
  }
  return out;
}

// Two locations per point, most of them drawn from six shared spots, and
// every fourth point a duplicate of the one before it: exact sample ties
// across ids in most rounds.
UncertainSet TieHeavyDiscrete(int n, Rng* rng) {
  std::vector<Point2> shared(6);
  for (auto& p : shared) p = {rng->Uniform(-5, 5), rng->Uniform(-5, 5)};
  UncertainSet out;
  for (int i = 0; i < n; ++i) {
    if (i % 4 == 3) {
      out.push_back(out.back());
      continue;
    }
    std::vector<Point2> locs(2);
    for (auto& l : locs) {
      l = rng->Bernoulli(0.7) ? shared[rng->UniformInt(0, shared.size() - 1)]
                              : Point2{rng->Uniform(-6, 6), rng->Uniform(-6, 6)};
    }
    out.push_back(UncertainPoint::Discrete(std::move(locs), {0.5, 0.5}));
  }
  return out;
}

UncertainSet Mixed(Rng* rng) {
  UncertainSet out = Disks(RandomDisks(50, 10, 0.5, 3, rng));
  for (int i = 0; i < 50; ++i) {
    Point2 c{rng->Uniform(-10, 10), rng->Uniform(-10, 10)};
    out.push_back(UncertainPoint::Discrete(
        {c, c + Point2{rng->Uniform(-2, 2), rng->Uniform(-2, 2)}}, {0.25, 0.75}));
  }
  return out;
}

// Random queries over the points' extent, plus every discrete location of
// the first points (distance-0 ties wherever a location is shared).
std::vector<Point2> Queries(const UncertainSet& points, Rng* rng) {
  double lo_x = 1e300, hi_x = -1e300, lo_y = 1e300, hi_y = -1e300;
  std::vector<Point2> out;
  for (const UncertainPoint& p : points) {
    Circle box =
        p.is_discrete() ? Circle{p.discrete().locations[0], 0} : p.disk().support;
    lo_x = std::min(lo_x, box.center.x - box.radius);
    hi_x = std::max(hi_x, box.center.x + box.radius);
    lo_y = std::min(lo_y, box.center.y - box.radius);
    hi_y = std::max(hi_y, box.center.y + box.radius);
    if (p.is_discrete() && out.size() < 12) {
      for (Point2 l : p.discrete().locations) out.push_back(l);
    }
  }
  for (int i = 0; i < 24; ++i) {
    out.push_back({rng->Uniform(lo_x, hi_x), rng->Uniform(lo_y, hi_y)});
  }
  return out;
}

Engine::Options McOptions() {
  Engine::Options o;
  o.seed = kSeed;
  o.mc_rounds_override = kRounds;
  o.spiral_budget_fraction = 1e-9;  // Monte Carlo for discrete sets too.
  return o;
}

// MonteCarloPNN over `live` under `ids` (ascending), named by id.
class Oracle {
 public:
  Oracle(const UncertainSet& live, const std::vector<dyn::Id>& ids)
      : ids_(ids), mc_(live, Options(ids)) {}

  std::vector<Quantification> Query(Point2 q) const {
    std::vector<Quantification> out = mc_.Query(q);
    for (Quantification& e : out) e.index = ids_[e.index];
    return out;
  }

 private:
  static MonteCarloPNN::Options Options(const std::vector<dyn::Id>& ids) {
    MonteCarloPNN::Options o;
    o.seed = kSeed;
    o.rounds_override = kRounds;
    o.stream_ids.assign(ids.begin(), ids.end());
    return o;
  }

  std::vector<dyn::Id> ids_;
  MonteCarloPNN mc_;
};

void ExpectSameAnswer(const std::vector<Quantification>& got,
                      const std::vector<Quantification>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << what << " entry " << i;
    EXPECT_EQ(got[i].probability, want[i].probability) << what << " entry " << i;
  }
}

// Every query of `queries` against the pinned view and the oracle over
// the view's own live set.
void ExpectViewMatchesOracle(const dyn::CombinedView& view,
                             const std::vector<Point2>& queries,
                             const std::string& what) {
  ASSERT_EQ(view.PlanForQuantify(), QuantifyPlan::kMonteCarlo) << what;
  std::vector<dyn::Id> ids;
  UncertainSet live = dyn::SnapshotLiveSet(*view.combined, &ids);
  Oracle oracle(live, ids);
  for (Point2 q : queries) {
    ExpectSameAnswer(view.Quantify(q), oracle.Query(q), what);
  }
}

// Inserts every point one by one (buckets plus a small live tail), then
// erases every fifth id (tombstones in buckets and tail) and inserts the
// first few points again (live tail entries after the erasures).
template <typename EngineT>
void Churn(EngineT* engine, const UncertainSet& points) {
  std::vector<dyn::Id> ids;
  for (const UncertainPoint& p : points) ids.push_back(engine->Insert(p));
  for (size_t i = 0; i < ids.size(); i += 5) ASSERT_TRUE(engine->Erase(ids[i]));
  for (size_t i = 0; i < 3 && i < points.size(); ++i) engine->Insert(points[i]);
}

TEST(MonteCarloCandidates, MatchRoundTreeOracle) {
  Rng rng(3001);
  struct Instance {
    std::string name;
    UncertainSet points;
  };
  std::vector<Instance> instances = {
      {"disks r0.5-2", Disks(RandomDisks(160, 22.4, 0.5, 2, &rng))},
      {"disks r10-20", Disks(RandomDisks(160, 22.4, 10, 20, &rng))},
      {"tie-heavy discrete", TieHeavyDiscrete(120, &rng)},
      {"Lemma41Instance", Lemma41Instance(60, &rng)},
      {"LowerBoundCubic", Disks(LowerBoundCubic(8))},
      {"mixed", Mixed(&rng)},
  };
  for (const Instance& inst : instances) {
    SCOPED_TRACE(inst.name);
    std::vector<Point2> queries = Queries(inst.points, &rng);

    Engine engine(inst.points, McOptions());
    std::vector<dyn::Id> index_ids(inst.points.size());
    for (size_t i = 0; i < index_ids.size(); ++i) index_ids[i] = static_cast<dyn::Id>(i);
    Oracle oracle(inst.points, index_ids);
    for (Point2 q : queries) {
      ExpectSameAnswer(engine.Quantify(q), oracle.Query(q), "static Engine");
    }
    ExpectViewMatchesOracle(*dyn::EngineView(&engine), queries, "static view");

    dyn::Options dopt;
    dopt.engine = McOptions();
    dopt.tail_limit = 8;
    dyn::DynamicEngine dynamic(dopt);
    Churn(&dynamic, inst.points);
    ASSERT_GT(dynamic.tail_size(), 0u);
    ASSERT_GE(dynamic.num_buckets(), 1u);
    ExpectViewMatchesOracle(*dynamic.View(), queries, "dynamic");

    shard::Options sopt;
    sopt.num_shards = 3;
    sopt.shard = dopt;
    shard::ShardedEngine sharded(sopt);
    Churn(&sharded, inst.points);
    ExpectViewMatchesOracle(*sharded.View(), queries, "3 shards");
  }
}

}  // namespace
}  // namespace pnn
