// Chaos harness for the pnn::store failure model: seeded randomized fault
// schedules at EVERY registered IO failpoint during insert/erase churn.
//
// The invariants checked, continuously and at the end (exit 1 + a line on
// stderr for any violation — CI runs this plain and under ASan/UBSan):
//   * the process never dies, however the "disk" misbehaves;
//   * an op is either acked (OK) or refused (non-OK status) — refused
//     inserts never surface an id;
//   * at every probe point, the engine's live set is EXACTLY the acked
//     set, and answers bit-match a fresh static Engine built from it
//     (degraded or not — queries don't notice the disk);
//   * after disarming and healing, a reopen recovers exactly the acked
//     live set, again bit-identical.
//
// Every arm/disarm/heal event is logged (the chaos log); a failing seed
// reproduces the exact schedule:   bench_chaos --seed=N
//
// Usage: bench_chaos [--seed=1] [--ops=3000] [--sharded]
// (a one-shard store::ShardedStore — the single-engine store — by
// default; --sharded runs two shards)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/store/sharded_store.h"
#include "src/uncertain/uncertain_point.h"
#include "src/util/rng.h"

namespace pnn {
namespace {

namespace fs = std::filesystem;

int g_violations = 0;

#define CHAOS_CHECK(cond, ...)                               \
  do {                                                       \
    if (!(cond)) {                                           \
      std::fprintf(stderr, "VIOLATION: " __VA_ARGS__);       \
      std::fprintf(stderr, " [%s:%d]\n", __FILE__, __LINE__); \
      ++g_violations;                                        \
    }                                                        \
  } while (0)

UncertainPoint ChaosPoint(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 3));
  std::vector<Point2> locs(k);
  std::vector<double> w(k, 1.0 / k);
  for (int s = 0; s < k; ++s) {
    locs[s] = {rng->Uniform(-25, 25), rng->Uniform(-25, 25)};
  }
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

/// Arms a random subset of sites with random schedules. Logged so a
/// failure reproduces from the seed alone.
void ShuffleFaults(const std::vector<std::string>& sites, Rng* rng, long op) {
  fault::DisarmAll();
  for (const std::string& site : sites) {
    double roll = rng->Uniform(0, 1);
    if (roll < 0.6) continue;  // Leave most sites healthy each round.
    fault::Schedule schedule;
    const char* what;
    if (roll < 0.75) {
      schedule = fault::FireWithProbability(rng->Uniform(0.05, 0.5),
                                            rng->UniformInt(1, 1u << 30));
      what = "probability";
    } else if (roll < 0.9) {
      schedule = fault::FireTimesThenHeal(rng->UniformInt(1, 6));
      what = "times";
    } else {
      schedule = fault::FireOnNth(rng->UniformInt(1, 10));
      what = "nth";
    }
    fault::Arm(site, schedule);
    std::printf("chaos: op %ld arm %s (%s)\n", op, site.c_str(), what);
  }
}

/// The live set must be exactly `acked` and answer bit-identically to a
/// fresh static Engine built from it.
void CheckServing(const shard::ShardedEngine& engine, std::vector<dyn::Id> acked,
                  uint64_t query_seed, int queries) {
  std::sort(acked.begin(), acked.end());
  std::vector<dyn::Id> ids;
  UncertainSet live = engine.LiveSet(&ids);
  CHAOS_CHECK(ids == acked, "live set != acked set (%zu vs %zu ids)",
              ids.size(), acked.size());
  if (live.empty() || ids != acked) return;
  Engine reference(live, engine.ReferenceEngineOptions());
  Rng rng(query_seed);
  for (int t = 0; t < queries; ++t) {
    Point2 q{rng.Uniform(-30, 30), rng.Uniform(-30, 30)};
    std::vector<dyn::Id> want_nn;
    for (int i : reference.NonzeroNN(q)) want_nn.push_back(ids[i]);
    CHAOS_CHECK(engine.NonzeroNN(q) == want_nn, "NonzeroNN diverged");
    std::vector<Quantification> got = engine.Quantify(q, 0.1);
    std::vector<Quantification> want = reference.Quantify(q, 0.1);
    CHAOS_CHECK(got.size() == want.size(), "Quantify size diverged");
    for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
      CHAOS_CHECK(got[i].index == ids[want[i].index] &&
                      got[i].probability == want[i].probability,
                  "Quantify diverged at rank %zu", i);
    }
  }
}

/// One churn op; true if acked.
bool ChurnOp(store::ShardedStore* store, Rng* rng, std::vector<dyn::Id>* acked,
             long* refused) {
  if (acked->empty() || rng->Bernoulli(0.7)) {
    util::StatusOr<dyn::Id> id = store->Insert(ChaosPoint(rng));
    if (!id.ok()) {
      ++*refused;
      return false;
    }
    CHAOS_CHECK(*id >= 0, "acked insert returned negative id");
    acked->push_back(*id);
    return true;
  }
  size_t pick = static_cast<size_t>(rng->UniformInt(0, acked->size() - 1));
  util::StatusOr<bool> erased = store->Erase((*acked)[pick]);
  if (!erased.ok()) {
    ++*refused;
    return false;
  }
  CHAOS_CHECK(*erased, "acked id was not live");
  acked->erase(acked->begin() + static_cast<long>(pick));
  return true;
}

int RunChaos(const std::string& dir, const store::ShardedStore::Options& options,
             uint64_t seed, long ops) {
  std::vector<std::string> sites;
  for (const std::string& s : fault::ListFailpoints()) {
    if (s.rfind("store.", 0) == 0) sites.push_back(s);
  }
  std::printf("chaos: seed %llu, %ld ops, %zu failpoints\n",
              static_cast<unsigned long long>(seed), ops, sites.size());

  Rng rng(seed);
  std::vector<dyn::Id> acked;
  long refused = 0;
  uint64_t degraded_probes = 0;
  {
    auto store = store::ShardedStore::Open(dir, options);
    for (long op = 0; op < ops; ++op) {
      if (op % 100 == 0) ShuffleFaults(sites, &rng, op);
      if (op % 100 == 60) {
        fault::DisarmAll();  // A healing window inside every round.
        std::printf("chaos: op %ld disarm all\n", op);
      }
      ChurnOp(store.get(), &rng, &acked, &refused);
      if (op % 250 == 249) {
        if (!store->healthy()) ++degraded_probes;
        CheckServing(store->engine(), acked, seed + static_cast<uint64_t>(op),
                     2);
      }
    }

    // Quiesce: disarm everything and mutate until the store heals. The
    // first healthy mutation proves recovery from whatever state the
    // last schedule left behind.
    fault::DisarmAll();
    std::printf("chaos: quiesce + heal\n");
    for (int i = 0; i < 100 && !(store->healthy() && !acked.empty()); ++i) {
      ChurnOp(store.get(), &rng, &acked, &refused);
    }
    CHAOS_CHECK(store->healthy(), "store failed to heal after disarming");
    CheckServing(store->engine(), acked, seed + 7777, 4);
  }

  // Reopen: the acked history must recover exactly, bit-identically.
  auto reopened = store::ShardedStore::Open(dir, options);
  CheckServing(reopened->engine(), acked, seed + 8888, 6);

  std::printf(
      "chaos: done — %zu live, %ld refused, %llu degraded probes, "
      "%d violations\n",
      acked.size(), refused, static_cast<unsigned long long>(degraded_probes),
      g_violations);
  return g_violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pnn

int main(int argc, char** argv) {
  uint64_t seed = 1;
  long ops = 3000;
  bool sharded = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      ops = std::strtol(argv[i] + 6, nullptr, 10);
    } else if (std::strcmp(argv[i], "--sharded") == 0) {
      sharded = true;
    } else {
      std::fprintf(stderr, "usage: %s [--seed=N] [--ops=N] [--sharded]\n",
                   argv[0]);
      return 2;
    }
  }

  std::string dir = (std::filesystem::temp_directory_path() /
                     ("pnn_chaos_" + std::to_string(seed) +
                      (sharded ? "_sharded" : "")))
                        .string();
  std::filesystem::remove_all(dir);

  // The plain leg runs the single-engine store (one shard).
  pnn::store::ShardedStore::Options options;
  options.sharded.num_shards = sharded ? 2 : 1;
  options.sharded.shard.engine.seed = 77;
  options.sharded.shard.engine.mc_rounds_override = 48;
  options.sharded.shard.tail_limit = 8;
  int rc = pnn::RunChaos(dir, options, seed, ops);
  if (rc == 0) std::filesystem::remove_all(dir);
  return rc;
}
