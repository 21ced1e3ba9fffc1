// Cross-bucket query recombination for the dynamic engine: each function
// answers one query mode over a Snapshot by decomposing it across the
// buckets + tail partition and recombining exactly (see the equivalence
// contract in dynamic_engine.h). The shard router feeds these the union of
// many engines' snapshots — the decompositions never assume the partition
// came from one engine.
//
// Degenerate snapshots are handled uniformly: an empty snapshot (no parts,
// or every bucket and tail entry tombstoned, live_count == 0) yields empty
// results from every function here rather than tripping the all-discrete
// checks or streaming from dead parts.

#ifndef PNN_DYN_MERGE_H_
#define PNN_DYN_MERGE_H_

#include <cstdint>
#include <vector>

#include "src/dyn/dynamic_engine.h"

namespace pnn {
namespace dyn {

/// The snapshot's one bucket when it holds the whole live set (no
/// tombstone, no live tail entry), else null: a static engine's view, or
/// a fully compacted dynamic engine. Its engine is then the reference
/// engine over the live set, so NonzeroNN and pool-less Monte Carlo ask
/// it directly and name its answers by id.
const Bucket* WholeBucket(const Snapshot& snap);

/// NN!=0(q): global Delta(q) = min over parts, then per-part threshold
/// reporting. Ascending ids.
std::vector<Id> MergedNonzeroNN(const Snapshot& snap, Point2 q);

/// MergedNonzeroNN writing into `out` (cleared first). Per-part reports
/// land in scratch-arena buffers (Engine::NonzeroNNWithinInto; a
/// WholeBucket's engine reports straight into `out`), so with a warm
/// arena and a warm output buffer this allocates nothing.
void MergedNonzeroNNInto(const Snapshot& snap, Point2 q, std::vector<Id>* out);

/// Stage 1 of MergedNonzeroNN on its own: this snapshot's contribution to
/// the Lemma 2.1 pruning bound, min over its live parts (+inf when every
/// part is dead). The shard router min-reduces this across shards.
double SnapshotNonzeroDelta(const Snapshot& snap, Point2 q);

/// Stage 2 of MergedNonzeroNN on its own: appends (unsorted) the ids of
/// this snapshot's live members with delta_i(q) < bound. `mixed` selects
/// the clamped-MinDistance re-filter a mixed discrete/continuous reference
/// engine applies — pass the UNION's mixedness, not this snapshot's, when
/// recombining across shards.
void AppendNonzeroNNWithin(const Snapshot& snap, Point2 q, double bound, bool mixed,
                           std::vector<Id>* out);

/// A live member: its id and its point, borrowed from the bucket or tail
/// entry that holds it (buckets and tails are the live set's only copy).
struct LiveMember {
  Id id;
  const UncertainPoint* point;
};

/// The live members of `buckets` and of `tail` (`tail_dead` parallels it;
/// either may be null), ascending by id. The one gather of a live set: the
/// snapshot functions below, maintenance builds and recovery use it.
std::vector<LiveMember> GatherLive(const std::vector<Snapshot::BucketRef>& buckets,
                                   const std::vector<TailEntry>* tail,
                                   const std::vector<char>* tail_dead);

/// The snapshot's live set in ascending-id order (with the ids when `ids`
/// is non-null): the input a reference static Engine is built over, and
/// both engines' LiveSet.
UncertainSet SnapshotLiveSet(const Snapshot& snap, std::vector<Id>* ids);

/// `engine` with mc_stream_ids = the snapshot's live ids, ascending: the
/// options of a static Engine over SnapshotLiveSet(snap) that answers
/// bit-identically. Copies no point; both engines' ReferenceEngineOptions.
Engine::Options SnapshotReferenceOptions(const Snapshot& snap, Engine::Options engine);

/// Spiral-search quantification: k-way merges the per-bucket best-first
/// location streams (plus sorted tail locations) into the global distance
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

/// Monte-Carlo quantification over `rounds` id-keyed instantiations: per
/// round, the global nearest sample is the argmin over per-bucket nearest
/// samples and the snapshot's cached tail samples (drawn directly when the
/// snapshot carries no cache). Rounds fan out on `pool` when provided
/// (results are round-indexed, so scheduling cannot change them). Without
/// a pool, a WholeBucket is counted by McQuantifyInto over its engine's
/// rounds, the same answer.
std::vector<Quantification> MergedMonteCarloQuantify(const Snapshot& snap, Point2 q,
                                                     size_t rounds, uint64_t seed,
                                                     exec::ThreadPool* pool);

/// MergedMonteCarloQuantify writing into `out` (cleared first); winners
/// and histogram scratch come from the per-thread arena. With warm bucket
/// rounds and a warm tail cache (and a null pool) this allocates nothing.
void MergedMonteCarloQuantifyInto(const Snapshot& snap, Point2 q, size_t rounds,
                                  uint64_t seed, exec::ThreadPool* pool,
                                  std::vector<Quantification>* out);

/// Exact discrete quantification by survival-profile recombination:
///   pi_i = sum over i's locations of
///          (within-part partial) * prod_{other parts} profile(dist),
/// using QuantifyPartDiscrete per part (mathematically exact; float
/// reassociation keeps it within ~1e-12 of the monolithic sweep).
std::vector<Quantification> MergedQuantifyExact(const Snapshot& snap, Point2 q);

/// Pre-sizes the calling thread's scratch pools for every buffer the
/// query recombinations above (and the kd/quantify layers under them)
/// lease, so the thread's first queries skip the pool-growing
/// allocations. Intended as a ThreadPool worker_init hook:
///   exec::ThreadPool::Options po;
///   po.worker_init = [] { dyn::PrewarmWorkerScratch(n_hint, rounds_hint); };
/// `points_hint` ~ live points served per query (sizes stacks, heaps and
/// report buffers), `rounds_hint` ~ Monte-Carlo rounds (sizes winner
/// tables).
void PrewarmWorkerScratch(size_t points_hint, size_t rounds_hint);

}  // namespace dyn
}  // namespace pnn

#endif  // PNN_DYN_MERGE_H_
