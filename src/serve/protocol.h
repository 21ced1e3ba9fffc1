// pnn::serve wire protocol — length-prefixed binary frames carrying
// api::QueryRequest / api::QueryResponse (see docs/protocol.md for the
// byte-level layout).
//
// A frame is a little-endian u32 payload length followed by the payload;
// the payload starts [u8 version][u8 frame type][u64 request id] and
// continues with the type-specific body. Request ids are chosen by the
// client and echoed verbatim, so responses can be matched under
// pipelining (shed responses can overtake queued ones).
//
// Frames are built from the store's byte codec (src/store/format.h): the
// same scalar encoding, bounds-checked Reader and UncertainPoint codec, so
// an inserted point reaches the engine with the client's exact bits.
// Decoding is strict: every read is bounds-checked, unknown enum values,
// trailing bytes and ids that do not fit api::Id are malformed, and the
// declared-length check happens before any allocation sized from the wire
// — a hostile frame can cost at most max_frame_bytes of buffering
// (tests/serve_protocol_test.cc).
//
// Frames carry no checksum today: TCP's checksum covers transport and the
// strict decoder rejects structural garbage, which is enough for the
// trusted-network deployments this targets. When frames start crossing
// untrusted relays (or get persisted), add a util::Crc32c over the payload
// next to the length prefix — the store's segment/op-log framing
// (src/store/format.h) already uses exactly that checksum, so the follow-on
// is a version bump plus 4 bytes, not a new dependency.

#ifndef PNN_SERVE_PROTOCOL_H_
#define PNN_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/api/query.h"

namespace pnn {
namespace serve {

inline constexpr uint8_t kProtocolVersion = 2;
/// Default cap on one frame's payload (requests carrying a discrete point
/// with thousands of locations fit comfortably; a length prefix beyond
/// the cap is rejected before any buffering).
inline constexpr uint32_t kDefaultMaxFrameBytes = 1u << 20;
/// Bytes of the length prefix preceding every payload.
inline constexpr size_t kFramePrefixBytes = 4;

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
};

/// A request frame's payload, decoded.
struct RequestFrame {
  uint64_t request_id = 0;
  api::QueryRequest request;
};

/// A response frame's payload, decoded.
struct ResponseFrame {
  uint64_t request_id = 0;
  api::QueryResponse response;
};

/// Appends one complete frame (length prefix + payload) to `out`. An
/// Insert request must carry its point (checked).
void AppendRequestFrame(uint64_t request_id, const api::QueryRequest& request,
                        std::string* out);
void AppendResponseFrame(uint64_t request_id, const api::QueryResponse& response,
                         std::string* out);

/// Decodes a frame payload (the bytes after the length prefix). False on
/// any malformation: short or trailing bytes, bad version/type/kind/status,
/// non-finite where finite is required, or an inner count that does not
/// fit the remaining bytes.
bool DecodeRequestPayload(const char* data, size_t size, RequestFrame* out);
bool DecodeResponsePayload(const char* data, size_t size, ResponseFrame* out);

/// Best-effort request id of a payload too malformed to decode (for
/// addressing an error response); 0 when even the header is short.
uint64_t PeekRequestId(const char* data, size_t size);

/// Incremental frame extraction over a byte stream (one per connection).
/// Append() raw reads, then call Next() until it stops returning kFrame.
class FrameBuffer {
 public:
  enum class Result {
    kFrame,     // One payload extracted into `*payload`.
    kNeedMore,  // The buffered bytes end mid-prefix or mid-payload.
    kTooLarge,  // Declared payload length exceeds max_payload_bytes.
  };

  explicit FrameBuffer(uint32_t max_payload_bytes = kDefaultMaxFrameBytes)
      : max_payload_bytes_(max_payload_bytes) {}

  void Append(const char* data, size_t size) { buffer_.append(data, size); }

  /// Extracts the next payload. kTooLarge is sticky for the caller to act
  /// on (close the connection); the oversized bytes are never buffered
  /// beyond what Append() already received.
  Result Next(std::string* payload);

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  /// Drops all buffered bytes. For reconnects: a new connection is a new
  /// frame stream, so a half-assembled frame from the old one must not
  /// prefix it.
  void Reset() {
    buffer_.clear();
    consumed_ = 0;
  }

 private:
  uint32_t max_payload_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // Prefix of buffer_ already handed out as frames.
};

}  // namespace serve
}  // namespace pnn

#endif  // PNN_SERVE_PROTOCOL_H_
