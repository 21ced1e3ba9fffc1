// bench_suite — the repository's benchmark: four workloads over the served
// and the embedded query paths. An untraced run reports the bounded
// end-to-end metrics (set-up time, memory); a traced run (--trace 1) reruns
// the timed phase with spans on, replays a fresh sample of requests through
// each layer's public entry points, and reports throughput, latency and the
// per-layer metrics. Every run checks its answers against a reference and
// exits nonzero on any mismatch. See README.md in this directory for the
// workloads, the metrics and how to compare runs.
//
//   bench_suite [--workload NAME|all] [--seed N] [--seconds T] [--trace 0|1]
//               [--smoke] [--json OUT] [--trace-out OUT] [--label L]
//               [--scratch DIR]
//
// The last line of standard output is the result: one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_suite/suite/loadgen.h"
#include "bench_suite/suite/report.h"
#include "bench_suite/suite/trace.h"
#include "bench_suite/suite/verify.h"
#include "src/api/engine_ref.h"
#include "src/api/query.h"
#include "src/core/pnn.h"
#include "src/dyn/answer_cache.h"
#include "src/dyn/merge.h"
#include "src/exec/batch_engine.h"
#include "src/exec/thread_pool.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/store_server.h"
#include "src/shard/sharded_engine.h"
#include "src/store/sharded_store.h"
#include "src/util/rng.h"
#include "src/util/simd.h"
#include "src/workload/generators.h"
#include "src/workload/streaming.h"

namespace pnn {
namespace suite {
namespace {

namespace fs = std::filesystem;

constexpr double kEps = 0.1;
constexpr uint64_t kEngineSeed = 7;
constexpr size_t kWarmup = 1000;
// Requests per replay sample. 1000 rather than more keeps a traced
// serve_mc_hot run, whose static reference answers ~3 ms per query, near
// half a minute.
constexpr size_t kReplay = 1000;
constexpr size_t kEmbeddedBatch = 128;
constexpr size_t kDurableRecheck = 256;  // Queries asked of the reopened store.
constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 1.5;  // Cheap set-ups repeat until this much.
// Share of --seconds given to the open-loop phase; the closed loop gets the
// rest (at the seed commit's speed).
constexpr double kOpenShare = 0.6;

enum class Family { kServedReadOnly, kDurable, kEmbedded };

struct Spec;

struct Inputs {
  UncertainSet points;
  std::vector<api::QueryRequest> stream;
};

/// One workload's constants. The rates and the closed-loop qps were fixed
/// once from runs of the commit that introduced this benchmark (see
/// baseline.json) and must never be derived at run time: a fixed request
/// count per phase keeps the state each phase starts from independent of
/// how fast the code is.
struct Spec {
  const char* name;
  Family family;
  int points;
  size_t mc_rounds;  // Engine::Options::mc_rounds_override; 0 = the default.
  /// Open-loop send rate, req/s: about a quarter of the seed commit's
  /// closed-loop qps, to two significant digits. The open loop coalesces
  /// ~2-3 requests per batch where the closed loop coalesces up to 32; at
  /// half the closed-loop qps it ran near its own capacity and its tail was
  /// set by backlog bursts. Unused by the embedded workload.
  double open_rate;
  /// Seed-commit closed-loop qps; sizes the closed-loop request count.
  double closed_qps;
  /// The points and `total` requests for a seed.
  Inputs (*make_inputs)(const Spec& spec, uint64_t seed, size_t total);
};

struct Config {
  std::string workload = "all";
  uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  bool smoke = false;
  std::string json_path;
  std::string trace_path;
  std::string label;
  std::string scratch = ".bench_build/suite_tmp";
};

/// A half-open range of a workload's request stream.
struct Region {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// How a workload's request stream is cut into phases. Traced runs add a
/// traced rerun of the timed phase at a quarter of its count, and the two
/// replay samples.
struct Layout {
  Region warmup, timed, traced, closed, replay_calls, replay_batches;
  size_t total = 0;
};

Layout MakeLayout(const Spec& spec, const Config& cfg) {
  double scale = cfg.smoke ? 1.0 / 20.0 : 1.0;
  auto count = [&](double n) { return std::max<size_t>(1, std::lround(n * scale)); };
  size_t timed, closed = 0;
  if (spec.family == Family::kEmbedded) {
    size_t batches = count(spec.closed_qps * cfg.seconds / kEmbeddedBatch);
    timed = batches * kEmbeddedBatch;
  } else {
    timed = count(spec.open_rate * kOpenShare * cfg.seconds);
    closed = count(spec.closed_qps * (1.0 - kOpenShare) * cfg.seconds);
  }
  size_t replay = cfg.trace ? count(kReplay) : 0;
  Layout l;
  size_t at = 0;
  auto take = [&](size_t n) {
    Region r{at, at + n};
    at += n;
    return r;
  };
  l.warmup = take(count(kWarmup));
  l.timed = take(timed);
  l.traced = take(cfg.trace ? std::max<size_t>(1, timed / 4) : 0);
  l.closed = take(closed);
  l.replay_calls = take(replay);
  l.replay_batches = take(replay);
  l.total = at;
  return l;
}

/// serve_spiral: equal-weight discrete points (k = 3), so Quantify routes to
/// the spiral plan; a fixed mix of four query kinds at unique points. The
/// mix is exact in every block of 100 requests (shuffled within the block),
/// so no seed draws more of one kind than another. QuantifyExact is left
/// out: one costs ~5 ms at this size, ~300x the other kinds, and at even
/// 0.3% of the mix it halved closed-loop qps and set p99 to its own
/// head-of-line stall — the workload would measure QuantifyExact instead of
/// the serving path.
Inputs SpiralInputs(const Spec& spec, uint64_t seed, size_t total) {
  constexpr double kSpan = 100.0;
  const std::pair<api::QueryKind, int> kMix[] = {
      {api::QueryKind::kNonzeroNN, 40},
      {api::QueryKind::kQuantify, 38},
      {api::QueryKind::kThresholdNN, 12},
      {api::QueryKind::kMostLikelyNN, 10},
  };
  Rng rng(SplitSeed(seed, 1));
  Inputs in;
  in.points = ToUniformUncertain(RandomDiscreteLocations(spec.points, 3, kSpan, 1.0, &rng));
  std::vector<api::QueryKind> block;
  for (const auto& [kind, count] : kMix) block.insert(block.end(), count, kind);
  in.stream.reserve(total);
  while (in.stream.size() < total) {
    std::shuffle(block.begin(), block.end(), rng.engine());
    for (size_t i = 0; i < block.size() && in.stream.size() < total; ++i) {
      Point2 q{rng.Uniform(-kSpan, kSpan), rng.Uniform(-kSpan, kSpan)};
      switch (block[i]) {
        case api::QueryKind::kNonzeroNN:
          in.stream.push_back(api::QueryRequest::NonzeroNN(q));
          break;
        case api::QueryKind::kQuantify:
          in.stream.push_back(api::QueryRequest::Quantify(q, kEps));
          break;
        case api::QueryKind::kThresholdNN:
          in.stream.push_back(api::QueryRequest::ThresholdNN(q, 0.2, kEps));
          break;
        default:
          in.stream.push_back(api::QueryRequest::MostLikelyNN(q, kEps));
          break;
      }
    }
  }
  return in;
}

/// The other workloads draw points and requests from one streaming-churn
/// stream: its first `points` ops are the initial inserts. Points per unit
/// area stay at the generator's default density (10,000 over a span of 50).
Inputs ChurnInputs(StreamingChurnOptions o, const Spec& spec, uint64_t seed,
                   size_t total) {
  o.initial = spec.points;
  o.ops = static_cast<int>(total);
  o.span = 50.0 * std::sqrt(spec.points / 10000.0);
  Rng rng(SplitSeed(seed, 2));
  std::vector<exec::MixedOp> ops = GenerateStreamingChurn(o, &rng);
  Inputs in;
  in.points.reserve(spec.points);
  for (int i = 0; i < spec.points; ++i) in.points.push_back(*ops[i].point);
  for (size_t i = spec.points; i < ops.size() && in.stream.size() < total; ++i) {
    in.stream.push_back(ops[i].ToRequest(kEps));
  }
  return in;
}

/// serve_mc_hot: uniform disks; 80% Quantify, 20% NonzeroNN, half the
/// requests verbatim repeats of earlier ones.
Inputs McHotInputs(const Spec& spec, uint64_t seed, size_t total) {
  StreamingChurnOptions o;
  o.churn = 0.0;
  o.quantify_fraction = 0.8;
  o.repeat_fraction = 0.5;
  return ChurnInputs(o, spec, seed, total);
}

/// durable_churn: discrete points (k = 3); half the ops are arrivals,
/// departures and drifts in equal parts, half of the arrivals at an
/// orbiting hotspot; queries are half NonzeroNN, half Quantify.
Inputs DurableInputs(const Spec& spec, uint64_t seed, size_t total) {
  StreamingChurnOptions o;
  o.churn = 0.5;
  o.arrival_weight = o.departure_weight = o.drift_weight = 1.0;
  o.hotspot_fraction = 0.5;
  o.quantify_fraction = 0.5;
  o.discrete = true;
  o.k = 3;
  return ChurnInputs(o, spec, seed, total);
}

/// embedded_static: uniform disks; 75% Quantify. Quantify, the Monte-Carlo
/// path, costs ~20x NonzeroNN here, so at 50% the median request would sit
/// on the boundary between the two.
Inputs EmbeddedInputs(const Spec& spec, uint64_t seed, size_t total) {
  StreamingChurnOptions o;
  o.churn = 0.0;
  o.quantify_fraction = 0.75;
  return ChurnInputs(o, spec, seed, total);
}

// The two Monte-Carlo workloads are small because a static Engine builds
// its 256 rounds as Delaunay triangulations, ~1 ms of build per point on
// four threads: embedded_static pays that in every set-up, serve_mc_hot in
// the reference it is verified against.
const Spec kSpecs[] = {
    {"serve_spiral", Family::kServedReadOnly, 20000, 0, 13000, 53000, SpiralInputs},
    {"serve_mc_hot", Family::kServedReadOnly, 2000, 256, 660, 2600, McHotInputs},
    {"durable_churn", Family::kDurable, 10000, 0, 2700, 11000, DurableInputs},
    {"embedded_static", Family::kEmbedded, 2000, 256, 0, 5000, EmbeddedInputs},
};

// ---------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------

// The sharded engines run without an engine pool. With the 2-thread pool
// every NonzeroNN fanned out across the shards and every Monte-Carlo query
// across its rounds, and on a 4-core host the fork-join waits on preempted
// workers made latency irreproducible: the same seed gave p50 from 38 to
// 58 us and p99 from 0.1 to 5 ms on serve_spiral, and closed-loop qps fell
// from ~55k to ~50k. Without it maintenance runs inline in the update that
// triggers it.
shard::Options ShardOptions(size_t mc_rounds) {
  shard::Options o;
  o.num_shards = 4;
  o.placement = shard::PlacementKind::kHashById;
  o.shard.engine.seed = kEngineSeed;
  o.shard.engine.mc_rounds_override = mc_rounds;
  return o;
}

// The server executes each coalesced batch on its worker thread alone. With
// a second batch thread, a batch fanned out only once its size reached
// min_parallel_batch, and the loop's timing settled into one of two
// patterns per run: at the default threshold of 32 the closed loop's 32
// requests in flight split serve_mc_hot's qps between ~1450 and ~2050; at a
// threshold of 2 the open loop split serve_spiral's p50 between 36 and
// 55 us. One thread was as fast on serve_spiral and faster on serve_mc_hot.
serve::ServerOptions ServerOpts() {
  serve::ServerOptions o;
  o.batch.num_threads = 1;
  return o;
}

store::ShardedStore::Options StoreOptions(bool fsync) {
  store::ShardedStore::Options o;
  o.sharded = ShardOptions(0);
  o.fsync = fsync;
  return o;
}

/// The served stack: a sharded engine with a server over it, or a durable
/// store server. Members are destroyed in reverse order, so the server stops
/// before the engine it serves goes away.
struct ServedStack {
  std::unique_ptr<shard::ShardedEngine> engine;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::StoreServer> store_server;

  serve::Server& srv() { return store_server ? store_server->server() : *server; }
  const shard::ShardedEngine& router() const {
    return store_server ? store_server->sharded_store()->engine() : *engine;
  }
  api::EngineRef ref() const {
    return store_server ? api::EngineRef(store_server->sharded_store())
                        : api::EngineRef(engine.get());
  }
};

std::unique_ptr<ServedStack> SetupReadOnly(const UncertainSet& points, size_t mc_rounds) {
  auto s = std::make_unique<ServedStack>();
  s->engine = std::make_unique<shard::ShardedEngine>(points, ShardOptions(mc_rounds));
  s->engine->Prewarm(kEps);
  s->server = std::make_unique<serve::Server>(api::EngineRef(s->engine.get()), ServerOpts());
  if (!s->server->Start()) return nullptr;
  return s;
}

/// Loads the initial set without fsync, checkpoints it, then reopens the
/// directory with fsync on and serves it.
std::unique_ptr<ServedStack> SetupDurable(const UncertainSet& points, const std::string& dir) {
  fs::remove_all(dir);
  auto s = std::make_unique<ServedStack>();
  {
    auto load = store::ShardedStore::Open(dir, StoreOptions(false));
    for (const UncertainPoint& p : points) {
      if (!load->Insert(p).ok()) return nullptr;
    }
    if (!load->Checkpoint().ok()) return nullptr;
  }
  serve::StoreServer::Options o;
  o.num_shards = 4;
  o.sharded = StoreOptions(true);
  o.server = ServerOpts();
  s->store_server = serve::StoreServer::Open(dir, std::move(o));
  s->store_server->sharded_store()->engine().Prewarm(kEps);
  if (!s->store_server->Start()) return nullptr;
  return s;
}

struct EmbeddedStack {
  std::unique_ptr<exec::ThreadPool> build_pool;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<exec::BatchEngine> batch;
};

std::unique_ptr<EmbeddedStack> SetupEmbedded(const UncertainSet& points, size_t mc_rounds) {
  auto s = std::make_unique<EmbeddedStack>();
  s->build_pool = std::make_unique<exec::ThreadPool>(4);
  Engine::Options o;
  o.seed = kEngineSeed;
  o.mc_rounds_override = mc_rounds;
  o.build_pool = s->build_pool.get();
  s->engine = std::make_unique<Engine>(points, o);
  s->engine->Prewarm(kEps);
  exec::BatchOptions bo;
  bo.num_threads = 4;
  s->batch = std::make_unique<exec::BatchEngine>(api::EngineRef(s->engine.get()), bo);
  return s;
}

/// Runs make() `min_reps` times, then again while less than `min_seconds`
/// of set-up has been timed (up to kMaxSetupReps), tearing each stack down
/// before building the next: cheap set-ups get more repetitions. Keeps the
/// last; *median_s is the median set-up time.
template <typename Make>
auto TimedSetups(int min_reps, double min_seconds, const Make& make, double* median_s)
    -> decltype(make()) {
  constexpr int kMaxSetupReps = 9;
  std::vector<double> seconds;
  double total = 0.0;
  decltype(make()) kept;
  for (int r = 0; r < kMaxSetupReps && (r < min_reps || total < min_seconds); ++r) {
    kept.reset();
    Clock::time_point t = Clock::now();
    kept = make();
    seconds.push_back(MicrosBetween(t, Clock::now()) * 1e-6);
    total += seconds.back();
    if (!kept) break;
  }
  *median_s = Pct(seconds, 50.0);
  return kept;
}

// ---------------------------------------------------------------------
// Helpers shared by the workloads
// ---------------------------------------------------------------------

Clock::time_point g_origin = Clock::now();  // Trace time zero.

double SinceOrigin(Clock::time_point t) { return MicrosBetween(g_origin, t); }

const char* KindKey(api::QueryKind kind) {
  switch (kind) {
    case api::QueryKind::kNonzeroNN:
      return "nonzero";
    case api::QueryKind::kQuantify:
      return "quantify";
    case api::QueryKind::kQuantifyExact:
      return "exact";
    case api::QueryKind::kThresholdNN:
      return "threshold";
    case api::QueryKind::kMostLikelyNN:
      return "mostlikely";
    case api::QueryKind::kInsert:
      return "insert";
    case api::QueryKind::kErase:
      return "erase";
  }
  return "unknown";
}

/// Latencies of one phase's answered requests, split into queries and
/// updates, measured from each request's start (its due time when open).
struct Latencies {
  std::vector<double> query, update, late;
};

Latencies PhaseLatencies(const PhaseResult& p, const std::vector<api::QueryRequest>& stream,
                         Region r) {
  Latencies l;
  for (size_t i = 0; i < p.outcomes.size(); ++i) {
    const Outcome& o = p.outcomes[i];
    l.late.push_back(o.late_us);
    if (o.end_us < 0 || o.status != api::StatusCode::kOk) continue;
    (stream[r.begin + i].is_update() ? l.update : l.query).push_back(o.end_us - o.start_us);
  }
  return l;
}

/// Adds an "e2e" span per answered request with a "serve.exec" child whose
/// length is the server-reported execution time, anchored at receipt.
void AddServedSpans(const PhaseResult& p, Region r, SpanLog* log) {
  double base = SinceOrigin(p.t0);
  for (size_t i = 0; i < p.outcomes.size(); ++i) {
    const Outcome& o = p.outcomes[i];
    if (o.end_us < 0) continue;
    int64_t e2e = log->Add("e2e", base + o.start_us, o.end_us - o.start_us, r.begin + i);
    log->Add("serve.exec", base + o.end_us - o.server_us, o.server_us, r.begin + i, e2e);
  }
}

struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  void Add(const PhaseResult& p) {
    attempted += p.sent;
    failed += p.failed();
  }
};

PhaseResult Serve(uint16_t port, const std::vector<api::QueryRequest>& stream, Region r,
                  double rate, Tally* tally) {
  PhaseResult p = RunPhase(port, stream, r.begin, r.end, rate);
  tally->Add(p);
  return p;
}

/// Answers `request` through the static engine's own methods — the core
/// layer the replay times — packaged as an api response.
api::QueryResponse CoreCall(const Engine& engine, const api::QueryRequest& request) {
  api::QueryResponse r;
  r.kind = request.kind;
  switch (request.kind) {
    case api::QueryKind::kNonzeroNN:
      r.ids = engine.NonzeroNN(request.q);
      break;
    case api::QueryKind::kQuantify:
      r.quants = engine.Quantify(request.q, request.eps);
      break;
    case api::QueryKind::kQuantifyExact:
      r.quants = engine.QuantifyExact(request.q);
      break;
    case api::QueryKind::kThresholdNN:
      r.quants = engine.ThresholdNN(request.q, request.tau, request.eps);
      break;
    case api::QueryKind::kMostLikelyNN:
      r.id = engine.MostLikelyNN(request.q, request.eps);
      break;
    default:
      r.status = api::StatusCode::kUnimplemented;
      break;
  }
  return r;
}

/// The reference a sharded backend's answers are checked against, built
/// (Monte-Carlo rounds included) on a pool of its own.
struct Reference {
  std::vector<int> ids;
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<Engine> engine;
};

Reference BuildReference(const shard::ShardedEngine& router) {
  Reference ref;
  UncertainSet live = router.LiveSet(&ref.ids);
  ref.pool = std::make_unique<exec::ThreadPool>(4);
  Engine::Options o = router.ReferenceEngineOptions();
  o.build_pool = ref.pool.get();
  ref.engine = std::make_unique<Engine>(std::move(live), o);
  ref.engine->Prewarm(kEps);
  return ref;
}

/// Acked live set of the durable workload, rebuilt from the responses.
struct DurableModel {
  std::map<int, UncertainPoint> live;

  void Apply(const api::QueryRequest& req, const api::QueryResponse& resp, Verifier* v) {
    if (!req.is_update() || !resp.ok()) return;
    if (req.kind == api::QueryKind::kInsert) {
      live.emplace(resp.id, *req.point);
    } else if (resp.id < 0) {
      v->Fail("erase of an id the stream believed live was reported unknown");
    } else {
      live.erase(resp.id);
    }
  }
  void ApplyPhase(const PhaseResult& p, const std::vector<api::QueryRequest>& stream,
                  Region r, Verifier* v) {
    std::vector<std::pair<size_t, const api::QueryResponse*>> kept;
    for (const auto& [i, resp] : p.kept) kept.emplace_back(i, &resp);
    std::sort(kept.begin(), kept.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [i, resp] : kept) Apply(stream[r.begin + i], *resp, v);
  }
};

bool SamePoint(const UncertainPoint& a, const UncertainPoint& b) {
  if (a.is_discrete() != b.is_discrete()) return false;
  if (!a.is_discrete()) {
    return a.disk().support.center.x == b.disk().support.center.x &&
           a.disk().support.center.y == b.disk().support.center.y &&
           a.disk().support.radius == b.disk().support.radius;
  }
  const DiscreteDistribution& da = a.discrete();
  const DiscreteDistribution& db = b.discrete();
  if (da.locations.size() != db.locations.size()) return false;
  for (size_t s = 0; s < da.locations.size(); ++s) {
    if (da.locations[s].x != db.locations[s].x || da.locations[s].y != db.locations[s].y ||
        std::fabs(da.weights[s] - db.weights[s]) > 1e-12) {
      return false;
    }
  }
  return true;
}

/// Structure counts over the parts of the router's current view.
void AddViewCounts(const shard::ShardedEngine& router, WorkloadReport* out) {
  std::shared_ptr<const shard::CombinedView> view = router.View();
  size_t buckets = 0, tail = 0, dead = 0;
  for (const auto& part : view->parts) {
    buckets += part->buckets.size();
    for (const auto& b : part->buckets) dead += b.bucket->size() - b.live_count;
    if (part->tail != nullptr) {
      for (size_t i = 0; i < part->tail->size(); ++i) {
        (part->TailAlive(i) ? tail : dead) += 1;
      }
    }
  }
  out->Add(MetricKind::kLayer, "shard.parts", static_cast<double>(view->parts.size()),
           "count");
  out->Add(MetricKind::kLayer, "dyn.buckets", static_cast<double>(buckets), "count");
  out->Add(MetricKind::kLayer, "dyn.tail", static_cast<double>(tail), "count");
  out->Add(MetricKind::kLayer, "dyn.dead", static_cast<double>(dead), "count");
}

// ---------------------------------------------------------------------
// Layer replay (traced runs)
// ---------------------------------------------------------------------

struct ReplayTarget {
  api::EngineRef ref;                         // The backend under test.
  const shard::ShardedEngine* router = nullptr;  // Null for the static backend.
  const Engine* core = nullptr;               // Static engine timed as the core layer.
  const std::vector<int>* ids = nullptr;      // core's point index -> backend id.
  size_t batch_size = 1;                      // RequestBatch size.
  size_t batch_threads = 2;
};

/// Replays region `calls` request by request through the public entry
/// points of every layer (one sibling span each under a "replay" span), then
/// region `batches` through exec::BatchEngine::RequestBatch. The batches get
/// their own requests because the pinned calls fill the answer cache.
void Replay(const ReplayTarget& t, const std::vector<api::QueryRequest>& stream,
            Region calls, Region batches, SpanLog* log, Verifier* verify,
            DurableModel* model, WorkloadReport* out) {
  std::vector<double> enc_req, dec_req, enc_resp, dec_resp, resp_bytes, capture;
  std::map<std::string, std::vector<double>> call, merged;
  std::vector<double> view_miss, core_nonzero, core_quantify, ids_per_query;
  uint64_t cache_hits = 0, cache_misses = 0;

  for (size_t i = calls.begin; i < calls.end; ++i) {
    const api::QueryRequest& req = stream[i];
    Clock::time_point begin = Clock::now();
    int64_t root = log->Add("replay", SinceOrigin(begin), 0.0, i);
    auto timed = [&](const char* name, std::vector<double>* sink, const auto& fn) {
      Clock::time_point a = Clock::now();
      fn();
      double us = MicrosBetween(a, Clock::now());
      log->Add(name, SinceOrigin(a), us, i, root);
      sink->push_back(us);
      return us;
    };

    std::string frame;
    serve::RequestFrame decoded;
    timed("protocol.encode_req", &enc_req,
          [&] { serve::AppendRequestFrame(i, req, &frame); });
    timed("protocol.decode_req", &dec_req, [&] {
      serve::DecodeRequestPayload(frame.data() + serve::kFramePrefixBytes,
                                  frame.size() - serve::kFramePrefixBytes, &decoded);
    });

    // The shard layer first: after an update this View() rebuilds the
    // combined view, so a miss is timed here and the Capture below hits.
    std::shared_ptr<const shard::CombinedView> view;
    if (!req.is_update() && t.router != nullptr) {
      uint64_t misses = t.router->snapshot_cache_stats().misses;
      std::vector<double> view_us;
      double us = timed("shard.View", &view_us, [&] { view = t.router->View(); });
      if (t.router->snapshot_cache_stats().misses != misses) view_miss.push_back(us);
    }

    api::EngineRef::Pin pin;  // Updates apply to the live backend, unpinned.
    if (!req.is_update()) timed("api.Capture", &capture, [&] { pin = t.ref.Capture(); });
    const dyn::AnswerCache* cache =
        pin.view != nullptr ? pin.view->combined->answers.get() : nullptr;
    dyn::AnswerCache::Stats before = cache ? cache->stats() : dyn::AnswerCache::Stats{};
    api::QueryResponse resp;
    std::string call_name = std::string("api.call_") + KindKey(req.kind);
    timed("api.Call", &call[call_name],
          [&] { resp = req.is_update() ? t.ref.Call(req) : t.ref.Call(req, pin); });
    if (cache != nullptr) {
      dyn::AnswerCache::Stats after = cache->stats();
      cache_hits += after.hits - before.hits;
      cache_misses += after.misses - before.misses;
    }
    if (model != nullptr) model->Apply(req, resp, verify);

    std::string rframe;
    serve::ResponseFrame rdecoded;
    timed("protocol.encode_resp", &enc_resp,
          [&] { serve::AppendResponseFrame(i, resp, &rframe); });
    timed("protocol.decode_resp", &dec_resp, [&] {
      serve::DecodeResponsePayload(rframe.data() + serve::kFramePrefixBytes,
                                   rframe.size() - serve::kFramePrefixBytes, &rdecoded);
    });
    resp_bytes.push_back(static_cast<double>(rframe.size()));

    if (view != nullptr) {
      const dyn::Snapshot& snap = *view->combined;
      const Engine::Options& eo = t.router->options().shard.engine;
      double eps = req.eps.value_or(eo.default_eps);
      if (req.kind == api::QueryKind::kNonzeroNN) {
        timed("dyn.MergedNonzeroNN", &merged["dyn.merged_nonzero_us"],
              [&] { dyn::MergedNonzeroNN(snap, req.q); });
      } else if (dyn::PlanForSnapshot(snap, eo, eps) == QuantifyPlan::kSpiral) {
        timed("dyn.MergedSpiralQuantify", &merged["dyn.merged_spiral_us"],
              [&] { dyn::MergedSpiralQuantify(snap, req.q, eps); });
      } else {
        size_t rounds = dyn::McRoundsForSnapshot(snap, eo, eps);
        timed("dyn.MergedMonteCarloQuantify", &merged["dyn.merged_mc_us"], [&] {
          dyn::MergedMonteCarloQuantify(snap, req.q, rounds, eo.seed,
                                        t.router->options().pool);
        });
      }
    }

    if (!req.is_update()) {
      api::QueryResponse want;
      bool nonzero = req.kind == api::QueryKind::kNonzeroNN;
      timed(nonzero ? "core.NonzeroNN" : "core.Quantify",
            nonzero ? &core_nonzero : &core_quantify,
            [&] { want = CoreCall(*t.core, req); });
      if (nonzero) ids_per_query.push_back(static_cast<double>(want.ids.size()));
      if (model == nullptr) verify->Compare(req, resp, want, t.ids);
    }
    log->End(root, SinceOrigin(Clock::now()));
  }

  // RequestBatch at the observed coalescing size. Updates in the region
  // apply exactly once, here.
  exec::BatchOptions bo;
  bo.num_threads = t.batch_threads;
  exec::BatchEngine engine(t.ref, bo);
  double batch_us = 0.0;
  size_t batched = 0, spiral = 0, mc = 0;
  for (size_t b = batches.begin; b < batches.end; b += t.batch_size) {
    size_t e = std::min(batches.end, b + t.batch_size);
    std::vector<api::QueryRequest> chunk(stream.begin() + b, stream.begin() + e);
    Clock::time_point a = Clock::now();
    exec::BatchResult<api::QueryResponse> res = engine.RequestBatch(chunk);
    Clock::time_point z = Clock::now();
    log->Add("exec.RequestBatch", SinceOrigin(a), MicrosBetween(a, z), b);
    batch_us += MicrosBetween(a, z);
    batched += chunk.size();
    spiral += res.stats.spiral_plans;
    mc += res.stats.monte_carlo_plans;
    for (size_t k = 0; k < chunk.size(); ++k) {
      if (model != nullptr) {
        model->Apply(chunk[k], res.values[k], verify);
      } else {
        verify->Compare(chunk[k], res.values[k], CoreCall(*t.core, chunk[k]), t.ids);
      }
    }
  }

  // Names ending in _p50_us are medians; the other times are means, which
  // keep every digit of sub-microsecond steps a nanosecond clock quantizes.
  auto p50 = [](const std::vector<double>& v) { return Pct(v, 50.0); };
  out->Add(MetricKind::kLayer, "protocol.encode_req_us", Mean(enc_req), "us");
  out->Add(MetricKind::kLayer, "protocol.decode_req_us", Mean(dec_req), "us");
  out->Add(MetricKind::kLayer, "protocol.encode_resp_us", Mean(enc_resp), "us");
  out->Add(MetricKind::kLayer, "protocol.decode_resp_us", Mean(dec_resp), "us");
  out->Add(MetricKind::kLayer, "protocol.resp_bytes", Mean(resp_bytes), "bytes");
  out->Add(MetricKind::kLayer, "exec.us_per_req",
           batched > 0 ? batch_us / static_cast<double>(batched) : 0.0, "us");
  out->Add(MetricKind::kLayer, "exec.spiral_plans", static_cast<double>(spiral), "count");
  out->Add(MetricKind::kLayer, "exec.mc_plans", static_cast<double>(mc), "count");
  out->Add(MetricKind::kLayer, "api.capture_us", Mean(capture), "us");
  for (const char* kind : {"nonzero", "quantify"}) {
    std::string name = std::string("api.call_") + kind;
    out->Add(MetricKind::kLayer, name + "_p50_us", p50(call[name]), "us");
  }
  for (const auto& [name, v] : call) {
    if (name == "api.call_nonzero" || name == "api.call_quantify") continue;
    out->Add(MetricKind::kLayerExtra, name + "_p50_us", p50(v), "us");
  }
  out->Add(MetricKind::kLayer, "dyn.answer_hits", static_cast<double>(cache_hits), "count");
  out->Add(MetricKind::kLayer, "dyn.answer_misses", static_cast<double>(cache_misses),
           "count");
  out->Add(MetricKind::kLayer, "dyn.answer_hit_rate",
           cache_hits + cache_misses > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(cache_hits + cache_misses)
               : 0.0,
           "fraction", true);
  for (const auto& [name, v] : merged) out->Add(MetricKind::kLayerExtra, name, Mean(v), "us");
  if (!view_miss.empty()) {
    out->Add(MetricKind::kLayerExtra, "shard.view_miss_us", Mean(view_miss), "us");
  }
  out->Add(MetricKind::kLayer, "core.nonzero_us", Mean(core_nonzero), "us");
  out->Add(MetricKind::kLayer, "core.quantify_us", Mean(core_quantify), "us");
  out->Add(MetricKind::kLayer, "core.mc_rounds",
           static_cast<double>(t.core->MonteCarloRounds()), "count");
  out->Add(MetricKind::kLayer, "core.ids_per_query", Mean(ids_per_query), "count");
}

/// serve.* per-layer metrics from the served spans recorded in `log`.
void AddServeLayer(const SpanLog& log, const serve::ServerStats& stats,
                   WorkloadReport* out) {
  std::vector<double> overhead = log.SelfTimes("e2e");
  std::vector<double> exec;
  for (const Span& s : log.spans()) {
    if (std::strcmp(s.name, "serve.exec") == 0) exec.push_back(s.dur_us);
  }
  out->Add(MetricKind::kLayer, "serve.overhead_p50_us", Pct(overhead, 50.0), "us");
  out->Add(MetricKind::kLayer, "serve.overhead_p99_us", Pct(overhead, 99.0), "us");
  out->Add(MetricKind::kLayer, "serve.exec_p50_us", Pct(exec, 50.0), "us");
  out->Add(MetricKind::kLayer, "serve.coalescing", stats.coalescing_factor(), "req/batch");
  out->Add(MetricKind::kLayer, "serve.shed", static_cast<double>(stats.shed_overloaded),
           "count");
  out->Add(MetricKind::kLayer, "serve.deadline_exceeded",
           static_cast<double>(stats.deadline_exceeded), "count");
}

void AddStoreLayer(const std::vector<store::Stats>& before,
                   const std::vector<store::Stats>& after, size_t updates,
                   double disk_bytes_per_point, WorkloadReport* out) {
  uint64_t syncs = 0, checkpoints = 0, segments = 0;
  for (size_t s = 0; s < after.size(); ++s) {
    syncs += after[s].log_syncs - (s < before.size() ? before[s].log_syncs : 0);
    checkpoints += after[s].checkpoints - (s < before.size() ? before[s].checkpoints : 0);
    segments +=
        after[s].segments_written - (s < before.size() ? before[s].segments_written : 0);
  }
  out->Add(MetricKind::kLayer, "store.log_syncs", static_cast<double>(syncs), "count");
  out->Add(MetricKind::kLayer, "store.syncs_per_update",
           updates > 0 ? static_cast<double>(syncs) / static_cast<double>(updates) : 0.0,
           "ratio");
  out->Add(MetricKind::kLayer, "store.checkpoints", static_cast<double>(checkpoints),
           "count");
  out->Add(MetricKind::kLayer, "store.segments_written", static_cast<double>(segments),
           "count");
  out->Add(MetricKind::kLayer, "store.disk_bytes_per_point", disk_bytes_per_point, "bytes");
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0.0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += static_cast<double>(entry.file_size(ec));
  }
  return bytes;
}

/// The end-to-end metrics every workload reports, each over a whole phase.
/// Only set-up time and memory are bounded (kEndToEnd). The speed metrics
/// are reported with the per-layer ones: on a shared virtual machine two
/// sets of runs of the same code differed by more than any bound the
/// benchmark may set (README.md, "Measurement on a shared host").
void AddEndToEnd(WorkloadReport* out, double setup_s, double heap_mb, double qps,
                 const std::vector<double>& query_us, double cpu_us_per_req) {
  out->Add(MetricKind::kEndToEnd, "setup_s", setup_s, "s");
  out->Add(MetricKind::kEndToEnd, "heap_mb", heap_mb, "MiB");
  out->Add(MetricKind::kLayer, "qps", qps, "req/s", true);
  out->Add(MetricKind::kLayer, "query_p50_us", Pct(query_us, 50.0), "us");
  out->Add(MetricKind::kLayer, "cpu_us_per_req", cpu_us_per_req, "us");
  out->Add(MetricKind::kEndToEndExtra, "query_p99_us", Pct(query_us, 99.0), "us");
}

void AddLoadgenLayer(WorkloadReport* out, const std::vector<double>& late,
                     size_t query_n, size_t update_n, double overhead) {
  out->Add(MetricKind::kLayer, "loadgen.late_p99_us", Pct(late, 99.0), "us");
  out->Add(MetricKind::kLayer, "loadgen.query_n", static_cast<double>(query_n), "count");
  out->Add(MetricKind::kLayer, "loadgen.update_n", static_cast<double>(update_n), "count");
  out->Add(MetricKind::kLayer, "trace.overhead", overhead, "ratio");
}

// ---------------------------------------------------------------------
// Served workloads: serve_spiral, serve_mc_hot, durable_churn
// ---------------------------------------------------------------------

WorkloadReport RunServed(const Spec& spec, const Config& cfg, SpanLog* log) {
  const bool durable = spec.family == Family::kDurable;
  Layout layout = MakeLayout(spec, cfg);
  Inputs in = spec.make_inputs(spec, cfg.seed, layout.total);
  const std::vector<api::QueryRequest>& stream = in.stream;
  std::string dir = cfg.scratch + "/" + spec.name + "-" + std::to_string(cfg.seed);
  WorkloadReport out;
  out.workload = spec.name;
  Verifier verify;

  double setup_s = 0.0;
  int reps = cfg.trace || cfg.smoke ? 1 : kSetupReps;
  const double heap_before = LiveHeapMiB();
  std::unique_ptr<ServedStack> stack = TimedSetups(
      reps, reps > 1 ? kSetupSeconds : 0.0,
      [&] {
        return durable ? SetupDurable(in.points, dir)
                       : SetupReadOnly(in.points, spec.mc_rounds);
      },
      &setup_s);
  if (!stack) {
    std::fprintf(stderr, "%s: set-up failed\n", spec.name);
    verify.Fail("set-up failed");
    out.verify_checked = verify.checked();
    out.verify_mismatches = verify.mismatches();
    return out;
  }
  const uint16_t port = stack->srv().port();
  const shard::ShardedEngine& router = stack->router();
  const shard::SnapshotCacheStats views_before = router.snapshot_cache_stats();
  std::vector<store::Stats> store_before;
  if (durable) store_before = stack->store_server->sharded_store()->stats();

  // Timed phases. Every phase is a fixed request count.
  Tally tally;
  PhaseResult warm = Serve(port, stream, layout.warmup, 0.0, &tally);
  const double heap_mb = LiveHeapMiB() - heap_before;
  PhaseResult open = Serve(port, stream, layout.timed, spec.open_rate, &tally);
  std::optional<PhaseResult> traced;
  if (cfg.trace) {
    traced = Serve(port, stream, layout.traced, spec.open_rate, &tally);
    AddServedSpans(*traced, layout.traced, log);
  }
  PhaseResult closed = Serve(port, stream, layout.closed, 0.0, &tally);
  serve::ServerStats server_stats = stack->srv().stats();

  Latencies lat = PhaseLatencies(open, stream, layout.timed);
  AddEndToEnd(&out, setup_s, heap_mb, PerSecond(closed.ok, closed.WallMicros()), lat.query,
              closed.cpu_s * 1e6 / static_cast<double>(std::max<size_t>(1, closed.ok)));
  out.Add(MetricKind::kEndToEndExtra, "error_rate",
          tally.attempted > 0
              ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
              : 0.0,
          "fraction");
  if (durable) {
    out.Add(MetricKind::kEndToEndExtra, "update_p50_us", Pct(lat.update, 50.0), "us");
    out.Add(MetricKind::kEndToEndExtra, "update_p99_us", Pct(lat.update, 99.0), "us");
  }

  // Verification and the durable model, outside the timed phases.
  DurableModel model;
  std::vector<std::pair<const PhaseResult*, Region>> phases = {
      {&warm, layout.warmup}, {&open, layout.timed}, {&closed, layout.closed}};
  if (traced) phases.insert(phases.begin() + 2, {&*traced, layout.traced});
  std::optional<Reference> reference;
  if (durable) {
    for (size_t i = 0; i < in.points.size(); ++i) {
      model.live.emplace(static_cast<int>(i), in.points[i]);
    }
    for (const auto& [phase, region] : phases) model.ApplyPhase(*phase, stream, region, &verify);
  } else {
    reference = BuildReference(router);
    api::EngineRef ref(reference->engine.get());
    for (const auto& [phase, region] : phases) {
      for (const auto& [i, resp] : phase->kept) {
        verify.Check(stream[region.begin + i], resp, ref, &reference->ids);
      }
    }
  }

  if (cfg.trace) {
    Latencies tl = PhaseLatencies(*traced, stream, layout.traced);
    AddLoadgenLayer(&out, tl.late, tl.query.size(), tl.update.size(),
                    Pct(tl.query, 50.0) / std::max(1e-9, Pct(lat.query, 50.0)));
    AddServeLayer(*log, server_stats, &out);
    shard::SnapshotCacheStats views = router.snapshot_cache_stats();
    double hits = static_cast<double>(views.hits - views_before.hits);
    double misses = static_cast<double>(views.misses - views_before.misses);
    out.Add(MetricKind::kLayer, "shard.view_hit_rate",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction", true);
    if (durable) reference = BuildReference(router);
    ReplayTarget target;
    target.ref = stack->ref();
    target.router = &router;
    target.core = reference->engine.get();
    target.ids = &reference->ids;
    target.batch_size =
        std::max<size_t>(1, std::lround(server_stats.coalescing_factor()));
    target.batch_threads = ServerOpts().batch.num_threads;
    Replay(target, stream, layout.replay_calls, layout.replay_batches, log, &verify,
           durable ? &model : nullptr, &out);
    AddViewCounts(router, &out);
    if (durable) {
      store::ShardedStore* st = stack->store_server->sharded_store();
      Clock::time_point a = Clock::now();
      if (!st->Checkpoint().ok()) verify.Fail("checkpoint failed");
      out.Add(MetricKind::kLayerExtra, "store.checkpoint_s",
              MicrosBetween(a, Clock::now()) * 1e-6, "s");
      size_t updates = 0;
      for (size_t i = layout.warmup.begin; i < layout.replay_batches.end; ++i) {
        updates += stream[i].is_update() ? 1 : 0;
      }
      AddStoreLayer(store_before, st->stats(), updates,
                    DirectoryBytes(dir) / std::max<size_t>(1, router.live_size()), &out);
    } else {
      AddStoreLayer({}, {}, 0, 0.0, &out);
    }
  }

  if (durable) {
    // Close, reopen (recovery), and check the reopened live set against
    // the acked model and its answers against a fresh reference.
    stack.reset();
    std::vector<double> recovery;
    std::unique_ptr<store::ShardedStore> reopened;
    for (int r = 0; r < reps; ++r) {
      reopened.reset();
      Clock::time_point a = Clock::now();
      reopened = store::ShardedStore::Open(dir, StoreOptions(true));
      recovery.push_back(MicrosBetween(a, Clock::now()) * 1e-6);
    }
    out.Add(MetricKind::kEndToEndExtra, "recovery_s", Pct(recovery, 50.0), "s");
    const shard::ShardedEngine& engine = reopened->engine();
    std::vector<int> ids;
    UncertainSet live = engine.LiveSet(&ids);
    bool same = ids.size() == model.live.size();
    size_t k = 0;
    for (auto it = model.live.begin(); same && it != model.live.end(); ++it, ++k) {
      same = it->first == ids[k] && SamePoint(it->second, live[k]);
    }
    if (same) {
      verify.Pass();
    } else {
      verify.Fail("reopened live set differs from the acked model");
    }
    Reference ref = BuildReference(engine);
    api::EngineRef reopened_ref(reopened.get());
    api::EngineRef want_ref(ref.engine.get());
    size_t asked = 0;
    for (size_t i = 0; i < stream.size() && asked < kDurableRecheck; ++i) {
      if (stream[i].is_update()) continue;
      verify.Check(stream[i], reopened_ref.Call(stream[i]), want_ref, &ref.ids);
      ++asked;
    }
    reopened.reset();
    fs::remove_all(dir);
  }

  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.verify_checked = verify.checked();
  out.verify_mismatches = verify.mismatches();
  return out;
}

// ---------------------------------------------------------------------
// embedded_static
// ---------------------------------------------------------------------

struct BatchRun {
  std::vector<double> latency_us;  // Per request: its call time in the batch.
  std::vector<double> gap_us;      // Between one batch's return and the next call.
  double wall_us = 0.0;            // From the first call to the last return.
  double cpu_s = 0.0;              // Process CPU seconds over the same span.
  size_t failed = 0;               // Non-kOk responses.
  std::vector<std::pair<size_t, api::QueryResponse>> kept;
};

BatchRun RunBatches(const exec::BatchEngine& engine,
                    const std::vector<api::QueryRequest>& stream, Region r, SpanLog* log) {
  BatchRun run;
  Clock::time_point start = Clock::now(), prev = start;
  const double cpu0 = ProcessCpuSeconds();
  for (size_t b = r.begin; b < r.end; b += kEmbeddedBatch) {
    size_t e = std::min(r.end, b + kEmbeddedBatch);
    std::vector<api::QueryRequest> chunk(stream.begin() + b, stream.begin() + e);
    Clock::time_point a = Clock::now();
    if (b != r.begin) run.gap_us.push_back(MicrosBetween(prev, a));
    exec::BatchResult<api::QueryResponse> res = engine.RequestBatch(chunk);
    prev = Clock::now();
    run.cpu_s = ProcessCpuSeconds() - cpu0;
    run.wall_us = MicrosBetween(start, prev);
    if (log != nullptr) log->Add("exec.RequestBatch", SinceOrigin(a), MicrosBetween(a, prev), b);
    for (size_t k = 0; k < chunk.size(); ++k) {
      if (!res.values[k].ok()) ++run.failed;
      run.latency_us.push_back(res.values[k].server_micros);
      if ((b + k - r.begin) % kSampleEvery == 0) {
        run.kept.emplace_back(b + k, std::move(res.values[k]));
      }
    }
  }
  return run;
}

WorkloadReport RunEmbedded(const Spec& spec, const Config& cfg, SpanLog* log) {
  Layout layout = MakeLayout(spec, cfg);
  Inputs in = spec.make_inputs(spec, cfg.seed, layout.total);
  const std::vector<api::QueryRequest>& stream = in.stream;
  WorkloadReport out;
  out.workload = spec.name;
  Verifier verify;

  double setup_s = 0.0;
  int reps = cfg.trace || cfg.smoke ? 1 : kSetupReps;
  const double heap_before = LiveHeapMiB();
  std::unique_ptr<EmbeddedStack> stack =
      TimedSetups(reps, reps > 1 ? kSetupSeconds : 0.0,
                  [&] { return SetupEmbedded(in.points, spec.mc_rounds); }, &setup_s);
  const exec::BatchEngine& engine = *stack->batch;

  BatchRun warm = RunBatches(engine, stream, layout.warmup, nullptr);
  const double heap_mb = LiveHeapMiB() - heap_before;
  BatchRun timed = RunBatches(engine, stream, layout.timed, nullptr);
  std::optional<BatchRun> traced;
  if (cfg.trace) traced = RunBatches(engine, stream, layout.traced, log);
  size_t attempted = layout.warmup.size() + layout.timed.size() + layout.traced.size();
  out.failed = warm.failed + timed.failed + (traced ? traced->failed : 0);
  AddEndToEnd(&out, setup_s, heap_mb, PerSecond(layout.timed.size(), timed.wall_us),
              timed.latency_us, timed.cpu_s * 1e6 / static_cast<double>(layout.timed.size()));
  out.Add(MetricKind::kEndToEndExtra, "error_rate",
          static_cast<double>(out.failed) / static_cast<double>(attempted), "fraction");

  // Batched answers must equal direct single-threaded calls.
  for (const BatchRun* run : {&timed, traced ? &*traced : nullptr}) {
    if (run == nullptr) continue;
    for (const auto& [i, resp] : run->kept) {
      verify.Compare(stream[i], resp, CoreCall(*stack->engine, stream[i]), nullptr);
    }
  }

  if (cfg.trace) {
    AddLoadgenLayer(&out, traced->gap_us, traced->latency_us.size(), 0,
                    Pct(traced->latency_us, 50.0) /
                        std::max(1e-9, Pct(timed.latency_us, 50.0)));
    // The embedded path bypasses serve and shard.
    AddServeLayer(SpanLog(), serve::ServerStats(), &out);
    out.Add(MetricKind::kLayer, "shard.view_hit_rate", 0.0, "fraction", true);
    // The core layer is timed on a second engine: a Delaunay walk starts
    // from the last point located, so asking the engine that has just
    // answered a query the same query again would time a walk of length 0.
    std::unique_ptr<EmbeddedStack> core = SetupEmbedded(in.points, spec.mc_rounds);
    ReplayTarget target;
    target.ref = api::EngineRef(stack->engine.get());
    target.core = core->engine.get();
    target.batch_size = kEmbeddedBatch;
    target.batch_threads = 4;
    Replay(target, stream, layout.replay_calls, layout.replay_batches, log, &verify,
           nullptr, &out);
    out.Add(MetricKind::kLayer, "shard.parts", 0.0, "count");
    out.Add(MetricKind::kLayer, "dyn.buckets", 0.0, "count");
    out.Add(MetricKind::kLayer, "dyn.tail", 0.0, "count");
    out.Add(MetricKind::kLayer, "dyn.dead", 0.0, "count");
    AddStoreLayer({}, {}, 0, 0.0, &out);
  }

  out.attempted = attempted;
  out.verify_checked = verify.checked();
  out.verify_mismatches = verify.mismatches();
  return out;
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: bench_suite [--workload NAME|all] [--seed N] [--seconds T]\n"
               "                   [--trace 0|1] [--smoke] [--json OUT] [--trace-out OUT]\n"
               "                   [--label L] [--scratch DIR]\n"
               "workloads:");
  for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--smoke") {
      cfg.smoke = true;
      cfg.trace = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage();
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atoi(v);
    } else if (a == "--trace") {
      cfg.trace = std::string(v) == "1";
    } else if (a == "--json") {
      cfg.json_path = v;
    } else if (a == "--trace-out") {
      cfg.trace_path = v;
    } else if (a == "--label") {
      cfg.label = v;
    } else if (a == "--scratch") {
      cfg.scratch = v;
    } else {
      return Usage();
    }
  }
  if (cfg.seconds < 1) return Usage();
  std::vector<const Spec*> selected;
  for (const Spec& s : kSpecs) {
    if (cfg.workload == "all" || cfg.workload == s.name) selected.push_back(&s);
  }
  if (selected.empty()) return Usage();
  fs::create_directories(cfg.scratch);

  std::vector<WorkloadReport> reports;
  std::vector<SpanLog> logs(selected.size());
  for (size_t w = 0; w < selected.size(); ++w) {
    const Spec& spec = *selected[w];
    std::fprintf(stderr, "bench_suite: %s (seed %llu, %d s%s)\n", spec.name,
                 static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                 cfg.smoke ? ", smoke" : cfg.trace ? ", traced" : "");
    reports.push_back(spec.family == Family::kEmbedded ? RunEmbedded(spec, cfg, &logs[w])
                                                       : RunServed(spec, cfg, &logs[w]));
    PrintReport(reports.back());
  }

  RunInfo info;
  info.label = cfg.label;
  info.seed = cfg.seed;
  info.seconds = cfg.seconds;
  info.trace = cfg.trace;
  info.host_cores = std::thread::hardware_concurrency();
  info.simd_isa = simd::ActiveName();
  bool ok = true;
  for (const WorkloadReport& r : reports) ok = ok && r.correct();
  if (!cfg.json_path.empty() && !cfg.smoke && !WriteSuiteJson(cfg.json_path, info, reports)) {
    std::fprintf(stderr, "bench_suite: cannot write %s\n", cfg.json_path.c_str());
    ok = false;
  }
  if (!cfg.trace_path.empty()) {
    std::vector<std::pair<std::string, const SpanLog*>> named;
    for (size_t w = 0; w < selected.size(); ++w) named.emplace_back(selected[w]->name, &logs[w]);
    if (!WriteChromeTrace(cfg.trace_path, named)) {
      std::fprintf(stderr, "bench_suite: cannot write %s\n", cfg.trace_path.c_str());
      ok = false;
    }
  }
  std::printf("host_cores %u, simd_isa %s%s\n", info.host_cores, info.simd_isa.c_str(),
              cfg.smoke ? " (smoke: harness check only, numbers not comparable)" : "");
  std::printf("%s\n", ResultLine(reports, cfg.trace ? MetricKind::kLayer
                                                    : MetricKind::kEndToEnd)
                          .c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace suite
}  // namespace pnn

int main(int argc, char** argv) { return pnn::suite::Main(argc, argv); }
