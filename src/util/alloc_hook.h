// Allocation-counting hook for the zero-allocation query-path guarantees
// and the bounded-transient-build-memory guarantee: linking in this
// translation unit (by referencing AllocationCount()) replaces the global
// operator new/delete with malloc/free wrappers that bump process-wide
// counters — an allocation count, the currently live byte total, and a
// high-water mark of the live byte total. The hot-path tests and
// bench_query_hotpath snapshot the count around a query to assert / report
// allocations per steady-state query; bench_build_latency and the
// compaction test snapshot the peak around a maintenance build to bound its
// transient memory.
//
// The override lives in alloc_hook.cc and is pulled from the static
// library only when a binary references a symbol from it, so ordinary
// binaries keep the default allocator untouched.

#ifndef PNN_UTIL_ALLOC_HOOK_H_
#define PNN_UTIL_ALLOC_HOOK_H_

#include <cstdint>

namespace pnn {
namespace util {

/// Number of global operator new / new[] invocations in this process so
/// far (all threads; relaxed counter). Only meaningful in binaries that
/// reference this function — referencing it is what links the counting
/// operator new override in.
int64_t AllocationCount();

/// Bytes currently allocated through the hooked operator new (all
/// threads; the requested sizes, excluding allocator and hook overhead).
int64_t LiveAllocatedBytes();

/// High-water mark of LiveAllocatedBytes() since process start or the
/// last ResetPeakAllocatedBytes(). peak - live_before bounds the transient
/// memory a code section added on top of what it was handed.
int64_t PeakAllocatedBytes();

/// Restarts the peak at the current live total.
void ResetPeakAllocatedBytes();

}  // namespace util
}  // namespace pnn

#endif  // PNN_UTIL_ALLOC_HOOK_H_
