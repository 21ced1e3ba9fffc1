// The one byte codec of the durable store and the serve wire protocol:
// little-endian scalar encoding into std::string buffers, a
// bounds-checked reader, and the UncertainPoint codec shared by segments,
// the op log and request frames. Scalars are explicit little-endian byte
// shuffling, so the bytes are independent of host padding and
// endianness; doubles round-trip through their IEEE-754 bit patterns,
// which is what the engine's bit-identity contract needs. The bulk array
// paths collapse to memcpy on little-endian hosts (recovery's hot loop)
// and fall back to the scalar shuffles elsewhere — the bytes produced are
// identical either way.

#ifndef PNN_STORE_FORMAT_H_
#define PNN_STORE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "src/uncertain/uncertain_point.h"

namespace pnn {
namespace store {

// --- Scalar writers -------------------------------------------------------

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(b, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(b, 8);
}

inline void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

inline void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Bulk writers, the encode-side mirror of Reader::F64Array/I32Array: one
/// append on little-endian hosts, scalar fallback elsewhere.
inline void PutF64Array(std::string* out, const double* v, size_t n) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  out->append(reinterpret_cast<const char*>(v), n * 8);
#else
  for (size_t i = 0; i < n; ++i) PutF64(out, v[i]);
#endif
}

inline void PutI32Array(std::string* out, const int32_t* v, size_t n) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  out->append(reinterpret_cast<const char*>(v), n * 4);
#else
  for (size_t i = 0; i < n; ++i) PutI32(out, v[i]);
#endif
}

// --- Bounds-checked reader ------------------------------------------------

/// Sequential decoder over a byte span. Every accessor checks bounds and
/// latches ok() = false on underrun (returning zeros thereafter), so
/// decode routines can read unconditionally and test ok() once per
/// structure.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return *p_++;
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
  }

  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Declared-count guard: true iff `count` elements of at least
  /// `elem_bytes` each can still follow. Call before sizing a container
  /// from a wire count, so corrupt lengths fail cleanly instead of
  /// attempting a huge allocation.
  bool Fits(uint64_t count, size_t elem_bytes) {
    if (count <= remaining() / elem_bytes) return true;
    ok_ = false;
    return false;
  }

  /// Bulk decode of `n` consecutive F64s. On little-endian hosts this is
  /// one memcpy (the wire format IS the host representation there); the
  /// byte-shuffling fallback keeps big-endian hosts correct. The segment
  /// loader's kd arrays make this the recovery hot path.
  bool F64Array(double* dst, size_t n) {
    if (!Need(n * 8)) return false;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(dst, p_, n * 8);
    p_ += n * 8;
#else
    for (size_t i = 0; i < n; ++i) dst[i] = F64();
#endif
    return true;
  }

  /// Raw byte copy for callers that have pinned the wire layout to the
  /// destination's memory layout with static_asserts (segment kd nodes).
  bool Raw(void* dst, size_t bytes) {
    if (!Need(bytes)) return false;
    std::memcpy(dst, p_, bytes);
    p_ += bytes;
    return true;
  }

  /// Bulk decode of `n` consecutive I32s; same contract as F64Array.
  bool I32Array(int32_t* dst, size_t n) {
    if (!Need(n * 4)) return false;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    std::memcpy(dst, p_, n * 4);
    p_ += n * 4;
#else
    for (size_t i = 0; i < n; ++i) dst[i] = I32();
#endif
    return true;
  }

 private:
  bool Need(size_t n) {
    if (ok_ && remaining() >= n) return true;
    ok_ = false;
    p_ = end_;
    return false;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

// --- UncertainPoint codec -------------------------------------------------

/// Appends the point's full distribution. Discrete weights are written
/// post-normalization, so decoding rehydrates bit-identical values via
/// UncertainPoint::DiscreteFromNormalized.
void EncodePoint(const UncertainPoint& p, std::string* out);

/// Decodes one point; nullopt on anything that is not a valid point: a bad
/// kind or pdf tag, a count that overruns the buffer, a non-finite
/// coordinate, radius <= 0, a non-finite sigma (or sigma <= 0 for the
/// truncated Gaussian), or weights that are not all finite and > 0 with a
/// sum within 5e-7 of 1. These are the factories' own checks, so every
/// point that exists round-trips, while hostile wire bytes and CRC-valid
/// disk bytes fail here instead of aborting in a factory. (optional
/// because UncertainPoint has no public default constructor.)
std::optional<UncertainPoint> DecodePoint(Reader* r);

}  // namespace store
}  // namespace pnn

#endif  // PNN_STORE_FORMAT_H_
