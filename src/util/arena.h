// Per-thread scratch arenas for the query hot paths: a ScratchVec<T> is a
// lease on a pooled std::vector<T> whose heap storage persists across
// queries on the same thread, so steady-state queries (warm caches, warm
// pools) perform zero heap allocations — asserted by the allocation
// counting hook in util/alloc_hook.h.
//
// Design notes:
//   * The pool is thread-local, so leases are uncontended and TSan-clean.
//     A buffer released on a different thread than it was acquired on
//     (possible when a leased object is moved into a pool task) simply
//     migrates to the releasing thread's pool — still correct.
//   * Leases nest: the pool is a free list, not a single slot, so a
//     function holding a lease may call another function that takes its
//     own (the thread-pool help-drain can even interleave an unrelated
//     task mid-query; it leases different buffers). Steady state reaches a
//     fixed set of buffers per thread and stops allocating.
//   * A fresh lease has UNSPECIFIED contents (stale data from its previous
//     use — clearing here would defeat nested-vector reuse). Callers must
//     clear()/assign()/resize() before reading.

#ifndef PNN_UTIL_ARENA_H_
#define PNN_UTIL_ARENA_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace pnn {
namespace util {

/// RAII lease on a thread-local pooled std::vector<T>. Movable (the buffer
/// follows the lease), not copyable. Contents on acquisition are stale —
/// see the header comment.
template <typename T>
class ScratchVec {
 public:
  ScratchVec() : buf_(Take()) {}
  ~ScratchVec() {
    if (owned_) Put(std::move(buf_));
  }

  ScratchVec(ScratchVec&& o) noexcept : buf_(std::move(o.buf_)), owned_(o.owned_) {
    o.owned_ = false;
  }
  ScratchVec& operator=(ScratchVec&&) = delete;
  ScratchVec(const ScratchVec&) = delete;
  ScratchVec& operator=(const ScratchVec&) = delete;

  std::vector<T>& operator*() { return buf_; }
  const std::vector<T>& operator*() const { return buf_; }
  std::vector<T>* operator->() { return &buf_; }
  const std::vector<T>* operator->() const { return &buf_; }
  std::vector<T>* get() { return &buf_; }

 private:
  using List = std::vector<std::vector<T>>;

  // One free list per (thread, T), destroyed at thread exit. TLS
  // destructors run in an unspecified order, and a pooled object of one
  // type can hold leases of another (a pooled spiral Source keeps its
  // stream's heap lease), so a lease may be released AFTER its free list
  // is gone. The trivially-destructible slot pointer below outlives the
  // Pool object and is nulled by its destructor: releases during teardown
  // see null and simply free the buffer instead of touching a dead list.
  struct Pool {
    List list;
    Pool() { Slot() = &list; }
    ~Pool() { Slot() = nullptr; }
  };
  static List*& Slot() {
    static thread_local List* slot = nullptr;
    return slot;
  }
  static std::vector<T> Take() {
    static thread_local Pool pool;  // Constructed on first use per thread.
    List* fl = Slot();
    if (fl == nullptr || fl->empty()) return {};
    std::vector<T> v = std::move(fl->back());
    fl->pop_back();
    return v;
  }
  static void Put(std::vector<T>&& v) {
    List* fl = Slot();
    if (fl != nullptr) fl->push_back(std::move(v));
  }

  std::vector<T> buf_;
  bool owned_ = true;
};

}  // namespace util
}  // namespace pnn

#endif  // PNN_UTIL_ARENA_H_
