#include "src/dyn/merge.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "src/util/arena.h"
#include "src/util/check.h"

namespace pnn {
namespace dyn {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double SnapshotNonzeroDelta(const Snapshot& snap, Point2 q) {
  // Each bucket computes the exact same per-point values a monolithic index
  // would, so the min over the partition equals the monolithic min.
  PNN_DCHECK(snap.tail_bucket == nullptr);  // A union, not an engine's snapshot.
  double bound = kInf;
  for (const auto& bref : snap.buckets) {
    if (bref.live_count == 0) continue;
    bound = std::min(bound, bref.bucket->engine().NonzeroDelta(q, bref.dead.get()));
  }
  return bound;
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
  // Stage 1: the global Lemma 2.1 bound; stage 2: every bucket reports
  // against it.
  double bound = SnapshotNonzeroDelta(snap, q);
  bool mixed = snap.discrete_count > 0 && snap.continuous_count > 0;
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
  std::sort(out->begin(), out->end());
}

std::vector<LiveMember> GatherLive(const std::vector<Snapshot::BucketRef>& buckets,
                                   const Bucket* tail) {
  std::vector<LiveMember> live;
  for (const auto& bref : buckets) {
    const Bucket& b = *bref.bucket;
    for (size_t j = 0; bref.live_count > 0 && j < b.size(); ++j) {
      if (bref.dead == nullptr || !(*bref.dead)[j]) {
        live.push_back({b.id(j), &b.points()[j]});
      }
    }
  }
  for (size_t j = 0; tail != nullptr && j < tail->size(); ++j) {
    live.push_back({tail->id(j), &tail->points()[j]});
  }
  std::sort(live.begin(), live.end(),
            [](const LiveMember& a, const LiveMember& b) { return a.id < b.id; });
  return live;
}

UncertainSet SnapshotLiveSet(const Snapshot& snap, std::vector<Id>* ids) {
  std::vector<LiveMember> live = GatherLive(snap.buckets, snap.tail_bucket.get());
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
  for (const LiveMember& m : GatherLive(snap.buckets, snap.tail_bucket.get())) {
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
// spiral stream or a range of a pre-sorted shared scratch vector (the live
// members of the buckets without a spiral, merged into one sorted source).
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
  if (snap.live_count == 0) return;  // Every bucket dead (or none): no stream.
  PNN_CHECK_MSG(snap.all_discrete(), "spiral merge needs an all-discrete live set");
  PNN_DCHECK(snap.tail_bucket == nullptr);  // A union, not an engine's snapshot.
  size_t m = SpiralSearchPNN::RetrievalBoundFor(snap.rho(), snap.max_k, eps);
  m = std::min(m, snap.total_complexity);

  // Every bucket without a location tree — a mixed bucket (its live
  // members all discrete here, since the live set is) or a tail — merges
  // into one shared sorted source.
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
                                                     size_t rounds, uint64_t /*seed*/,
                                                     exec::ThreadPool* pool) {
  std::vector<Quantification> out;
  MergedMonteCarloQuantifyInto(snap, q, rounds, pool, &out);
  return out;
}

void GatherCandidatesInto(const Snapshot& snap, Point2 q, std::vector<Candidate>* out) {
  out->clear();
  if (snap.live_count == 0) return;
  // Every bucket reports against the global bound, widened to keep exact
  // ties (a superset is always safe).
  const double bound = McCandidateBound(SnapshotNonzeroDelta(snap, q));
  util::ScratchVec<int> locals_lease;
  std::vector<int>& locals = *locals_lease;
  for (size_t b = 0; b < snap.buckets.size(); ++b) {
    const auto& bref = snap.buckets[b];
    if (bref.live_count == 0) continue;
    const Bucket& bucket = *bref.bucket;
    bucket.engine().NonzeroNNWithinInto(q, bound, bref.dead.get(), &locals);
    for (int j : locals) {
      out->push_back({bucket.id(j), static_cast<int>(b), static_cast<uint32_t>(j),
                      &bucket.points()[j]});
    }
  }
  std::sort(out->begin(), out->end(),
            [](const Candidate& a, const Candidate& b) { return a.id < b.id; });
}

void MergedMonteCarloQuantifyInto(const Snapshot& snap, Point2 q, size_t rounds,
                                  exec::ThreadPool* pool,
                                  std::vector<Quantification>* out) {
  out->clear();
  if (snap.live_count == 0) return;  // Every bucket dead: nothing to sample.
  PNN_CHECK(rounds > 0);
  // The blocks stay held while their rows are scanned: an extension may
  // swap a bucket's cache meanwhile.
  util::ScratchVec<std::shared_ptr<const McSamples>> blocks_lease;
  std::vector<std::shared_ptr<const McSamples>>& blocks = *blocks_lease;
  blocks.assign(snap.buckets.size(), nullptr);
  for (size_t b = 0; b < snap.buckets.size(); ++b) {
    if (snap.buckets[b].live_count > 0) {
      blocks[b] = snap.buckets[b].bucket->engine().EnsureRounds(rounds, pool);
    }
  }
  // Only a point of NN!=0(q) over the whole live set can win a round.
  // Ascending ids make the evaluator's first-row tie rule the lowest-id
  // rule of a static reference, whose index order is ascending id.
  util::ScratchVec<Candidate> candidates_lease;
  std::vector<Candidate>& candidates = *candidates_lease;
  GatherCandidatesInto(snap, q, &candidates);
  util::ScratchVec<McRow> rows_lease;
  std::vector<McRow>& rows = *rows_lease;
  rows.clear();
  for (const Candidate& c : candidates) {
    const McSamples& s = *blocks[c.part];
    rows.push_back({c.id, s.row_x(c.local), s.row_y(c.local)});
  }
  McQuantifyRowsInto(rows, rounds, q, out);
  // Drop the block refs before the lease returns to the arena: a pooled
  // buffer must not pin retired buckets' samples on an idle thread.
  blocks.clear();
}

std::vector<Quantification> MergedQuantifyExact(const Snapshot& snap, Point2 q) {
  if (snap.live_count == 0) return {};  // Every bucket dead: empty product.
  PNN_CHECK_MSG(snap.all_discrete() || snap.all_continuous(),
                "QuantifyExact supports all-discrete or all-continuous inputs");
  util::ScratchVec<Candidate> candidates_lease;
  std::vector<Candidate>& candidates = *candidates_lease;
  GatherCandidatesInto(snap, q, &candidates);
  util::ScratchVec<const UncertainPoint*> points_lease;
  std::vector<const UncertainPoint*>& points = *points_lease;
  points.clear();
  for (const Candidate& c : candidates) points.push_back(c.point);
  std::vector<Quantification> out = QuantifyExactOver(points, q);
  for (Quantification& e : out) e.index = candidates[e.index].id;
  return out;
}

}  // namespace dyn
}  // namespace pnn
