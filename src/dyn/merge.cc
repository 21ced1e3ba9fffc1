#include "src/dyn/merge.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "src/dyn/tail_cache.h"
#include "src/util/arena.h"
#include "src/util/check.h"

namespace pnn {
namespace dyn {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double SnapshotNonzeroDelta(const Snapshot& snap, Point2 q) {
  // Each part computes the exact same per-point values a monolithic index
  // would, so the min over the partition equals the monolithic min.
  double bound = kInf;
  for (const auto& bref : snap.buckets) {
    if (bref.live_count == 0) continue;
    bound = std::min(bound, bref.bucket->engine().NonzeroDelta(q, bref.dead.get()));
  }
  if (snap.tail != nullptr) {
    const std::vector<TailEntry>& tail = *snap.tail;
    for (size_t i = 0; i < tail.size(); ++i) {
      if (snap.TailAlive(i)) bound = std::min(bound, tail[i].point.MaxDistance(q));
    }
  }
  return bound;
}

void AppendNonzeroNNWithin(const Snapshot& snap, Point2 q, double bound, bool mixed,
                           std::vector<Id>* out) {
  util::ScratchVec<int> locals_lease;
  std::vector<int>& locals = *locals_lease;
  for (const auto& bref : snap.buckets) {
    if (bref.live_count == 0) continue;
    const Bucket& b = *bref.bucket;
    b.engine().NonzeroNNWithinInto(q, bound, bref.dead.get(), &locals);
    for (int local : locals) {
      // A mixed live set's reference engine compares the clamped
      // MinDistance (brute-force path), which only differs from the disk
      // index's unclamped d - r when both are negative — re-filter to
      // match exactly.
      if (mixed && !(b.points()[local].MinDistance(q) < bound)) continue;
      out->push_back(b.id(local));
    }
  }
  if (snap.tail != nullptr) {
    const std::vector<TailEntry>& tail = *snap.tail;
    for (size_t i = 0; i < tail.size(); ++i) {
      if (snap.TailAlive(i) && tail[i].point.MinDistance(q) < bound) {
        out->push_back(tail[i].id);
      }
    }
  }
}

std::vector<Id> MergedNonzeroNN(const Snapshot& snap, Point2 q) {
  std::vector<Id> out;
  MergedNonzeroNNInto(snap, q, &out);
  return out;
}

const Bucket* WholeBucket(const Snapshot& snap) {
  if (snap.buckets.size() != 1) return nullptr;
  const Bucket* b = snap.buckets[0].bucket.get();
  bool whole = snap.buckets[0].live_count == b->size() && snap.live_count == b->size();
  return whole ? b : nullptr;
}

void MergedNonzeroNNInto(const Snapshot& snap, Point2 q, std::vector<Id>* out) {
  out->clear();
  if (snap.live_count == 0) return;
  if (const Bucket* whole = WholeBucket(snap)) {
    const Engine& e = whole->engine();
    e.NonzeroNNWithinInto(q, e.NonzeroDelta(q), nullptr, out);  // Ascending locals.
    for (Id& id : *out) id = whole->id(id);
    return;
  }
  double bound = SnapshotNonzeroDelta(snap, q);
  bool mixed = snap.discrete_count > 0 && snap.continuous_count > 0;
  AppendNonzeroNNWithin(snap, q, bound, mixed, out);
  std::sort(out->begin(), out->end());
}

std::vector<LiveMember> GatherLive(const std::vector<Snapshot::BucketRef>& buckets,
                                   const std::vector<TailEntry>* tail,
                                   const std::vector<char>* tail_dead) {
  std::vector<LiveMember> live;
  for (const auto& bref : buckets) {
    const Bucket& b = *bref.bucket;
    for (size_t j = 0; bref.live_count > 0 && j < b.size(); ++j) {
      if (bref.dead == nullptr || !(*bref.dead)[j]) {
        live.push_back({b.id(j), &b.points()[j]});
      }
    }
  }
  for (size_t i = 0; tail != nullptr && i < tail->size(); ++i) {
    if (tail_dead == nullptr || !(*tail_dead)[i]) {
      live.push_back({(*tail)[i].id, &(*tail)[i].point});
    }
  }
  std::sort(live.begin(), live.end(),
            [](const LiveMember& a, const LiveMember& b) { return a.id < b.id; });
  return live;
}

UncertainSet SnapshotLiveSet(const Snapshot& snap, std::vector<Id>* ids) {
  std::vector<LiveMember> live =
      GatherLive(snap.buckets, snap.tail.get(), snap.tail_dead.get());
  UncertainSet out;
  out.reserve(live.size());
  if (ids != nullptr) {
    ids->clear();
    ids->reserve(live.size());
  }
  for (const LiveMember& m : live) {
    out.push_back(*m.point);
    if (ids != nullptr) ids->push_back(m.id);
  }
  return out;
}

Engine::Options SnapshotReferenceOptions(const Snapshot& snap, Engine::Options engine) {
  engine.mc_stream_ids.clear();
  for (const LiveMember& m :
       GatherLive(snap.buckets, snap.tail.get(), snap.tail_dead.get())) {
    engine.mc_stream_ids.push_back(static_cast<uint64_t>(m.id));
  }
  return engine;
}

namespace {

// One element of the merged location stream, carrying everything the
// sweep's bookkeeping needs about its owner.
struct SourceLoc {
  double dist;
  Id id;
  double weight;
  int k;  // Owner's total location count.
};

// A distance-ascending location source: either a bucket's best-first
// spiral stream or a range of a pre-sorted shared scratch vector (mixed
// buckets' live members and the tail, merged into one sorted source).
struct Source {
  const Bucket* bucket = nullptr;  // Set for stream sources.
  std::optional<SpiralSearchPNN::Stream> stream;
  const SourceLoc* sorted = nullptr;
  size_t sorted_n = 0;
  size_t pos = 0;
  SourceLoc cur{};
  bool has = false;

  void Advance() {
    if (stream.has_value()) {
      double d, w;
      int o;
      if (stream->Next(&d, &o, &w)) {
        const SpiralSearchPNN* sp = bucket->engine().spiral();
        cur = {d, bucket->id(o), w, sp->count(o)};
        has = true;
      } else {
        has = false;
      }
    } else if (pos < sorted_n) {
      cur = sorted[pos++];
      has = true;
    } else {
      has = false;
    }
  }
};

void AppendDiscreteLocations(const UncertainPoint& p, Id id, Point2 q,
                             std::vector<SourceLoc>* out) {
  const auto& d = p.discrete();
  int k = static_cast<int>(d.locations.size());
  for (size_t s = 0; s < d.locations.size(); ++s) {
    out->push_back({Distance(q, d.locations[s]), id, d.weights[s], k});
  }
}

}  // namespace

std::vector<Quantification> MergedSpiralQuantify(const Snapshot& snap, Point2 q,
                                                 double eps) {
  std::vector<Quantification> out;
  MergedSpiralQuantifyInto(snap, q, eps, &out);
  return out;
}

void MergedSpiralQuantifyInto(const Snapshot& snap, Point2 q, double eps,
                              std::vector<Quantification>* out) {
  out->clear();
  if (snap.live_count == 0) return;  // Every part dead (or none): no stream.
  PNN_CHECK_MSG(snap.all_discrete(), "spiral merge needs an all-discrete live set");
  size_t m = SpiralSearchPNN::RetrievalBoundFor(snap.rho(), snap.max_k, eps);
  m = std::min(m, snap.total_complexity);

  // Everything without a location tree — mixed buckets' live members (all
  // discrete here, since the live set is) and the live tail — merges into
  // one shared sorted source.
  util::ScratchVec<SourceLoc> extra_lease;
  std::vector<SourceLoc>& extra = *extra_lease;
  extra.clear();
  util::ScratchVec<Source> sources_lease;
  std::vector<Source>& sources = *sources_lease;
  sources.clear();
  for (const auto& bref : snap.buckets) {
    if (bref.live_count == 0) continue;
    if (const SpiralSearchPNN* sp = bref.bucket->engine().spiral()) {
      Source s;
      s.bucket = bref.bucket.get();
      s.stream.emplace(*sp, q, bref.dead ? bref.dead.get() : nullptr);
      sources.push_back(std::move(s));
    } else {
      const auto& pts = bref.bucket->points();
      for (size_t j = 0; j < pts.size(); ++j) {
        if (bref.dead && (*bref.dead)[j]) continue;
        AppendDiscreteLocations(pts[j], bref.bucket->id(j), q, &extra);
      }
    }
  }
  if (snap.tail != nullptr) {
    const std::vector<TailEntry>& entries = *snap.tail;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (snap.TailAlive(i)) {
        AppendDiscreteLocations(entries[i].point, entries[i].id, q, &extra);
      }
    }
  }
  if (!extra.empty()) {
    std::sort(extra.begin(), extra.end(),
              [](const SourceLoc& a, const SourceLoc& b) { return a.dist < b.dist; });
    Source s;
    s.sorted = extra.data();
    s.sorted_n = extra.size();
    sources.push_back(std::move(s));
  }

  // K-way merge of the sources reproduces the global ascending-distance
  // retrieval order of a monolithic location tree (heap ties between
  // sources are the usual measure-zero distance-tie caveat).
  using HeapEntry = std::pair<double, size_t>;  // (dist, source index).
  util::ScratchVec<HeapEntry> heap_lease;
  std::vector<HeapEntry>& heap = *heap_lease;
  heap.clear();
  for (size_t i = 0; i < sources.size(); ++i) {
    sources[i].Advance();
    if (sources[i].has) {
      heap.push_back({sources[i].cur.dist, i});
      std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
    }
  }

  util::ScratchVec<SourceLoc> raw_lease;
  std::vector<SourceLoc>& raw = *raw_lease;
  raw.clear();
  raw.reserve(m);
  while (raw.size() < m && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
    size_t si = heap.back().second;
    heap.pop_back();
    Source& s = sources[si];
    raw.push_back(s.cur);
    s.Advance();
    if (s.has) {
      heap.push_back({s.cur.dist, si});
      std::push_heap(heap.begin(), heap.end(), std::greater<HeapEntry>());
    }
  }

  // Dense owner labels by id rank (any labeling yields the same per-owner
  // probabilities; ascending labels make the sweep output id-sorted).
  util::ScratchVec<Id> ids_lease;
  std::vector<Id>& ids = *ids_lease;
  ids.clear();
  for (const SourceLoc& l : raw) ids.push_back(l.id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  util::ScratchVec<WeightedLocation> locs_lease;
  std::vector<WeightedLocation>& locs = *locs_lease;
  locs.clear();
  locs.reserve(raw.size());
  util::ScratchVec<int> counts_lease;
  std::vector<int>& counts = *counts_lease;
  counts.assign(ids.size(), 0);
  for (const SourceLoc& l : raw) {
    int label = static_cast<int>(std::lower_bound(ids.begin(), ids.end(), l.id) -
                                 ids.begin());
    locs.push_back({l.dist, label, l.weight});
    counts[label] = l.k;
  }

  QuantifyPrefixSweepInto(locs, counts, out);
  for (auto& e : *out) e.index = ids[e.index];  // Monotone: stays sorted.
  // Destroy the streams now so their heap leases return to the arena
  // before the sources vector itself is pooled.
  sources.clear();
}

std::vector<Quantification> MergedMonteCarloQuantify(const Snapshot& snap, Point2 q,
                                                     size_t rounds, uint64_t seed,
                                                     exec::ThreadPool* pool) {
  std::vector<Quantification> out;
  MergedMonteCarloQuantifyInto(snap, q, rounds, seed, pool, &out);
  return out;
}

void MergedMonteCarloQuantifyInto(const Snapshot& snap, Point2 q, size_t rounds,
                                  uint64_t seed, exec::ThreadPool* pool,
                                  std::vector<Quantification>* out) {
  out->clear();
  if (snap.live_count == 0) return;  // Every part dead: nothing to sample.
  PNN_CHECK(rounds > 0);
  // Only a point of NN!=0(q) over the whole live set can win a round, so
  // the candidates are every part's report against the global bound,
  // widened to keep exact ties (a superset is always safe).
  const double bound = McCandidateBound(SnapshotNonzeroDelta(snap, q));
  // The blocks stay held while their rows are scanned: an extension may
  // swap a bucket's cache meanwhile.
  util::ScratchVec<std::shared_ptr<const McSamples>> blocks_lease;
  std::vector<std::shared_ptr<const McSamples>>& blocks = *blocks_lease;
  blocks.assign(snap.buckets.size(), nullptr);
  util::ScratchVec<McRow> rows_lease;
  std::vector<McRow>& rows = *rows_lease;
  rows.clear();
  util::ScratchVec<int> locals_lease;
  std::vector<int>& locals = *locals_lease;
  for (size_t b = 0; b < snap.buckets.size(); ++b) {
    const auto& bref = snap.buckets[b];
    if (bref.live_count == 0) continue;
    const Engine& e = bref.bucket->engine();
    blocks[b] = e.EnsureRounds(rounds, pool);
    e.NonzeroNNWithinInto(q, bound, bref.dead.get(), &locals);
    for (int j : locals) {
      rows.push_back({bref.bucket->id(j), blocks[b]->row_x(j), blocks[b]->row_y(j)});
    }
  }
  // Tail samples come from the snapshot's cache (drawn once per snapshot,
  // shared by every query). Both publishers attach one whenever the tail
  // has a live entry; a hand-built snapshot may not, and samples through a
  // query-local cache instead, so every tail sample is drawn by
  // TailMcCache::Ensure either way.
  std::shared_ptr<const TailSamples> tail_samples;
  if (snap.tail != nullptr) {
    const std::vector<TailEntry>& tail = *snap.tail;
    for (size_t i = 0; i < tail.size() && tail_samples == nullptr; ++i) {
      if (!snap.TailAlive(i)) continue;
      tail_samples = snap.tail_mc != nullptr ? snap.tail_mc->Ensure(snap, rounds, seed)
                                             : TailMcCache().Ensure(snap, rounds, seed);
    }
    const TailSamples* ts = tail_samples.get();
    for (size_t j = 0; ts != nullptr && j < ts->tail_index.size(); ++j) {
      const TailEntry& e = tail[ts->tail_index[j]];
      if (e.point.MinDistance(q) < bound) {
        rows.push_back({e.id, ts->samples.row_x(j), ts->samples.row_y(j)});
      }
    }
  }
  // Ascending ids make the evaluator's first-row tie rule the lowest-id
  // rule of a static reference, whose index order is ascending id.
  std::sort(rows.begin(), rows.end(),
            [](const McRow& a, const McRow& b) { return a.id < b.id; });
  McQuantifyRowsInto(rows, rounds, q, out);
  // Drop the block refs before the lease returns to the arena: a pooled
  // buffer must not pin retired buckets' samples on an idle thread.
  blocks.clear();
}

std::vector<Quantification> MergedQuantifyExact(const Snapshot& snap, Point2 q) {
  if (snap.live_count == 0) return {};  // Every part dead: empty product.
  PNN_CHECK_MSG(snap.all_discrete(), "exact merge needs an all-discrete live set");
  std::vector<PartialQuantify> parts;
  std::vector<std::vector<Id>> part_ids;  // part_ids[p][member] = id.
  for (const auto& bref : snap.buckets) {
    if (bref.live_count == 0) continue;
    std::vector<int> members;
    std::vector<Id> ids;
    for (size_t j = 0; j < bref.bucket->size(); ++j) {
      if (bref.dead && (*bref.dead)[j]) continue;
      members.push_back(static_cast<int>(j));
      ids.push_back(bref.bucket->id(j));
    }
    parts.push_back(QuantifyPartDiscrete(bref.bucket->points(), members, q));
    part_ids.push_back(std::move(ids));
  }
  if (snap.tail != nullptr) {
    UncertainSet tpts;
    std::vector<Id> ids;
    const std::vector<TailEntry>& entries = *snap.tail;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!snap.TailAlive(i)) continue;
      tpts.push_back(entries[i].point);
      ids.push_back(entries[i].id);
    }
    if (!tpts.empty()) {
      std::vector<int> members(tpts.size());
      for (size_t j = 0; j < members.size(); ++j) members[j] = static_cast<int>(j);
      parts.push_back(QuantifyPartDiscrete(tpts, members, q));
      part_ids.push_back(std::move(ids));
    }
  }

  // pi_i factorizes over the partition: within-part partial times the
  // product of the other parts' survival profiles at i's location radius.
  std::map<Id, double> pi;
  for (size_t p = 0; p < parts.size(); ++p) {
    for (const PartialQuantify::Term& t : parts[p].terms) {
      double f = t.partial;
      for (size_t p2 = 0; p2 < parts.size() && f != 0.0; ++p2) {
        if (p2 != p) f *= parts[p2].profile.Value(t.dist);
      }
      if (f != 0.0) pi[part_ids[p][t.member]] += f;
    }
  }
  std::vector<Quantification> out;
  for (const auto& [id, v] : pi) {
    if (v > 0) out.push_back({id, v});
  }
  return out;
}

}  // namespace dyn
}  // namespace pnn
