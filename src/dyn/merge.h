// Cross-bucket query recombination for the dynamic engine: each function
// answers one query mode over a Snapshot by decomposing it across its
// buckets and recombining exactly (see the equivalence contract in
// dynamic_engine.h). The queries read a view's union (UnionSnapshot, the
// union of one engine's snapshot or of many shards'), where each live tail
// is one more bucket whose engine scans instead of indexing, so every
// query body is one loop over buckets — the decompositions never assume
// the buckets came from one engine, or what index a bucket has. A
// DynamicEngine's own snapshot keeps its tail bucket apart
// (Snapshot::tail_bucket), so the query functions here take a union
// (CombinedView::combined), never an engine's snapshot.
//
// Degenerate snapshots are handled uniformly: an empty snapshot (no
// buckets, or every bucket tombstoned, live_count == 0) yields empty
// results from every function here rather than tripping the all-discrete
// checks or streaming from dead buckets.

#ifndef PNN_DYN_MERGE_H_
#define PNN_DYN_MERGE_H_

#include <cstdint>
#include <vector>

#include "src/dyn/dynamic_engine.h"

namespace pnn {
namespace dyn {

/// The snapshot's one bucket when it holds the whole live set (no
/// tombstone, no other bucket), else null: a static engine's view, or
/// a fully compacted dynamic engine. Its engine is then the reference
/// engine over the live set, so NonzeroNN asks it directly and names its
/// answers by id.
const Bucket* WholeBucket(const Snapshot& snap);

/// NN!=0(q): global Delta(q) = min over buckets, then per-bucket threshold
/// reporting. Ascending ids.
std::vector<Id> MergedNonzeroNN(const Snapshot& snap, Point2 q);

/// MergedNonzeroNN writing into `out` (cleared first). Per-bucket reports
/// land in scratch-arena buffers (Engine::NonzeroNNWithinInto; a
/// WholeBucket's engine reports straight into `out`), so with a warm
/// arena and a warm output buffer this allocates nothing.
void MergedNonzeroNNInto(const Snapshot& snap, Point2 q, std::vector<Id>* out);

/// Stage 1 of MergedNonzeroNN on its own: the Lemma 2.1 pruning bound,
/// min over the live buckets (+inf when every bucket is dead).
double SnapshotNonzeroDelta(const Snapshot& snap, Point2 q);

/// A live member: its id and its point, borrowed from the bucket that
/// holds it.
struct LiveMember {
  Id id;
  const UncertainPoint* point;
};

/// The live members of `buckets` and of `tail` (a snapshot's tail_bucket,
/// or null), ascending by id. The one gather of a live set: the snapshot
/// functions below, maintenance builds and recovery use it.
std::vector<LiveMember> GatherLive(const std::vector<Snapshot::BucketRef>& buckets,
                                   const Bucket* tail = nullptr);

/// The snapshot's live set in ascending-id order (with the ids when `ids`
/// is non-null), its buckets' and its tail bucket's: the input a reference
/// static Engine is built over, and both engines' LiveSet.
UncertainSet SnapshotLiveSet(const Snapshot& snap, std::vector<Id>* ids);

/// `engine` with mc_stream_ids = the snapshot's live ids, ascending: the
/// options of a static Engine over SnapshotLiveSet(snap) that answers
/// bit-identically. Copies no point; both engines' ReferenceEngineOptions.
Engine::Options SnapshotReferenceOptions(const Snapshot& snap, Engine::Options engine);

/// Spiral-search quantification: k-way merges the per-bucket best-first
/// location streams (plus the sorted locations of the buckets without a
/// spiral structure: mixed buckets and tails) into the global distance
/// order and runs the shared truncated sweep. Requires an all-discrete
/// live set. Quantification indices are ids, ascending.
std::vector<Quantification> MergedSpiralQuantify(const Snapshot& snap, Point2 q,
                                                 double eps);

/// MergedSpiralQuantify writing into `out` (cleared first). All merge
/// bookkeeping (stream heaps, the retrieved prefix, owner labels) comes
/// from the per-thread scratch arena: with warm pools this allocates
/// nothing.
void MergedSpiralQuantifyInto(const Snapshot& snap, Point2 q, double eps,
                              std::vector<Quantification>* out);

/// One NN!=0 candidate: its id, its `part` (an index into
/// Snapshot::buckets), its bucket-local index there (its sample row) and
/// its point, borrowed from that bucket.
struct Candidate {
  Id id;
  int part;
  uint32_t local;
  const UncertainPoint* point;
};

/// The candidates of both Monte-Carlo and exact quantification: the live
/// points with delta_i(q) < McCandidateBound(SnapshotNonzeroDelta(snap, q)),
/// each bucket's report under its tombstone mask, ascending by id (cleared
/// first; empty for an empty snapshot). This holds every point of NN!=0(q) and its exact ties, in the index
/// order of a static reference over the live set. Scratch comes from the
/// per-thread arena.
void GatherCandidatesInto(const Snapshot& snap, Point2 q, std::vector<Candidate>* out);

/// Monte-Carlo quantification over `rounds` id-keyed instantiations
/// (Theorem 4.3). The candidates (GatherCandidatesInto) read their rows
/// from their bucket engine's sample block (Engine::EnsureRounds, drawn on
/// `pool` when missing; a tail bucket's too). Their rows, ascending by
/// id, go through McQuantifyRowsInto, the static Engine's evaluator, so
/// the answer is the static one bit for bit. `seed` is not read: each
/// bucket engine samples under its own options' seed, which every
/// publisher sets to its view's.
std::vector<Quantification> MergedMonteCarloQuantify(const Snapshot& snap, Point2 q,
                                                     size_t rounds, uint64_t seed,
                                                     exec::ThreadPool* pool);

/// MergedMonteCarloQuantify writing into `out` (cleared first); candidates
/// and evaluator scratch come from the per-thread arena. With warm sample
/// blocks this allocates nothing.
void MergedMonteCarloQuantifyInto(const Snapshot& snap, Point2 q, size_t rounds,
                                  exec::ThreadPool* pool,
                                  std::vector<Quantification>* out);

/// Exact quantification: QuantifyExactOver, the static Engine's evaluator,
/// run over the candidates' points (GatherCandidatesInto) and named by id.
/// Over any list that holds NN!=0(q) ascending by id, the evaluator answers
/// what it answers over the whole live set, so this is a static reference's
/// answer bit for bit, for an all-discrete (Eq. (2) sweep) or an
/// all-continuous (Eq. (1) quadrature) live set; a mixed one aborts.
std::vector<Quantification> MergedQuantifyExact(const Snapshot& snap, Point2 q);

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_MERGE_H_
