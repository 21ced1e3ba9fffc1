// Segment files: one immutable Bentley–Saxe bucket serialized whole —
// ids, full distributions, the engine's aggregate flags, and the kd node
// layouts of every index structure — behind a CRC-32C-checksummed header.
// Loading maps the file read-only, verifies the checksum, and rebuilds the
// bucket through the adoption constructors (KdTree's layout ctor, the
// Engine constructor given Engine::Layouts, Bucket's engine ctor), so
// recovery pays array copies instead of kd construction and hull
// computation. That skip is where the >= 5x recovery-vs-rebuild speedup
// in BENCH_pr7.json comes from.
//
// Segments are written once, fsynced, and then only ever read or deleted;
// there is no in-place mutation to tear. See docs/persistence.md for the
// byte layout.

#ifndef PNN_STORE_SEGMENT_H_
#define PNN_STORE_SEGMENT_H_

#include <memory>
#include <string>

#include "src/core/pnn.h"
#include "src/dyn/bucket.h"
#include "src/util/status.h"

namespace pnn {
namespace store {

/// Serializes `bucket` into a complete segment file image (header +
/// checksummed payload).
std::string EncodeSegment(const dyn::Bucket& bucket);

/// Writes and fsyncs a segment file (data only; the caller syncs the
/// directory before publishing a reference to the file). On failure the
/// path may hold a partial image; the caller discards it as an orphan —
/// nothing references a segment until the manifest that names it lands.
util::Status WriteSegmentFile(const std::string& path, const dyn::Bucket& bucket);

/// Maps, verifies and rehydrates a segment. `engine_options` is the
/// runtime bucket-engine configuration (its seed must match the segment's
/// recorded seed — checked — so recovered Monte-Carlo streams reproduce).
/// Returns null with *error set on any mismatch: missing file, bad magic
/// or version, checksum failure, or structural garbage. A loaded bucket
/// is indistinguishable from the one that was serialized (SameStructure
/// on every kd tree; certified in tests/store_segment_test.cc).
std::shared_ptr<const dyn::Bucket> LoadSegment(const std::string& path,
                                               const Engine::Options& engine_options,
                                               std::string* error);

}  // namespace store
}  // namespace pnn

#endif  // PNN_STORE_SEGMENT_H_
