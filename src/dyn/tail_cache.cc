#include "src/dyn/tail_cache.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace pnn {
namespace dyn {

std::shared_ptr<const TailSamples> TailMcCache::Ensure(const Snapshot& snap,
                                                       size_t rounds,
                                                       uint64_t seed) {
  auto cur = std::atomic_load_explicit(&cur_, std::memory_order_acquire);
  if (cur && cur->seed == seed && cur->rounds >= rounds) return cur;
  std::lock_guard<std::mutex> lock(mu_);
  cur = std::atomic_load_explicit(&cur_, std::memory_order_acquire);
  if (cur && cur->seed == seed && cur->rounds >= rounds) return cur;

  PNN_CHECK_MSG(snap.tail != nullptr, "tail cache on a snapshot without a tail");
  const std::vector<TailEntry>& tail = *snap.tail;
  auto next = std::make_shared<TailSamples>();
  next->seed = seed;
  if (cur && cur->seed == seed) {
    // Extension: keep the built prefix (flat copy; the filtered live set
    // is identical — it is a property of the snapshot).
    next->ids = cur->ids;
    next->tail_index = cur->tail_index;
    next->xs = cur->xs;
    next->ys = cur->ys;
    next->rounds = cur->rounds;
  } else {
    // Ascending id order, so the row argmin's first-index tie-break is the
    // lowest-id rule of the cross-part merge (tails need not ascend:
    // InsertWithId may re-add an older id).
    for (size_t i = 0; i < tail.size(); ++i) {
      if (snap.TailAlive(i)) next->tail_index.push_back(static_cast<uint32_t>(i));
    }
    std::sort(next->tail_index.begin(), next->tail_index.end(),
              [&](uint32_t a, uint32_t b) { return tail[a].id < tail[b].id; });
    for (uint32_t i : next->tail_index) next->ids.push_back(tail[i].id);
  }
  size_t m = next->ids.size();
  next->xs.resize(rounds * m);
  next->ys.resize(rounds * m);
  for (size_t r = next->rounds; r < rounds; ++r) {
    uint64_t round_seed = SplitSeed(seed, r);
    double* row_x = next->xs.data() + r * m;
    double* row_y = next->ys.data() + r * m;
    for (size_t j = 0; j < m; ++j) {
      StreamRng rng = MakeStreamRng(round_seed, static_cast<uint64_t>(next->ids[j]));
      Point2 p = tail[next->tail_index[j]].point.Sample(&rng);
      row_x[j] = p.x;
      row_y[j] = p.y;
    }
  }
  next->rounds = rounds;
  std::atomic_store_explicit(&cur_, std::shared_ptr<const TailSamples>(next),
                             std::memory_order_release);
  return next;
}

}  // namespace dyn
}  // namespace pnn
