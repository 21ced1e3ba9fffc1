#include "src/dyn/tail_cache.h"

#include "src/util/check.h"

namespace pnn {
namespace dyn {

std::shared_ptr<const TailSamples> TailMcCache::Ensure(const Snapshot& snap,
                                                       size_t rounds,
                                                       uint64_t seed) {
  auto ready = [&](const std::shared_ptr<const TailSamples>& c) {
    return c && c->seed == seed && c->samples.rounds >= rounds;
  };
  auto cur = std::atomic_load_explicit(&cur_, std::memory_order_acquire);
  if (ready(cur)) return cur;
  std::lock_guard<std::mutex> lock(mu_);
  cur = std::atomic_load_explicit(&cur_, std::memory_order_acquire);
  if (ready(cur)) return cur;

  PNN_CHECK_MSG(snap.tail != nullptr, "tail cache on a snapshot without a tail");
  const std::vector<TailEntry>& tail = *snap.tail;
  auto next = std::make_shared<TailSamples>();
  next->seed = seed;
  for (size_t i = 0; i < tail.size(); ++i) {
    if (snap.TailAlive(i)) next->tail_index.push_back(static_cast<uint32_t>(i));
  }
  // An extension keeps the rounds already drawn (the live tail is a
  // property of the snapshot, so the rows line up).
  const McSamples* prev = cur && cur->seed == seed ? &cur->samples : nullptr;
  next->samples = McSamples(next->tail_index.size(), rounds);
  for (size_t j = 0; j < next->tail_index.size(); ++j) {
    const TailEntry& e = tail[next->tail_index[j]];
    FillMcRow(e.point, seed, static_cast<uint64_t>(e.id), prev, j, &next->samples);
  }
  std::atomic_store_explicit(&cur_, std::shared_ptr<const TailSamples>(next),
                             std::memory_order_release);
  return next;
}

}  // namespace dyn
}  // namespace pnn
