#include "src/serve/protocol.h"

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "src/store/format.h"
#include "src/util/check.h"

namespace pnn {
namespace serve {

namespace {

using store::PutF64;
using store::PutI64;
using store::PutU32;
using store::PutU64;
using store::PutU8;
using store::Reader;

Reader PayloadReader(const char* data, size_t size) {
  return Reader(reinterpret_cast<const uint8_t*>(data), size);
}

/// Reads an i64 that must fit an int (an api::Id or a quantification
/// index): a wider value makes the frame malformed instead of aliasing a
/// smaller id.
bool ReadInt(Reader* r, int* out) {
  int64_t v = r->I64();
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return r->ok();
}

void AppendQuants(const std::vector<Quantification>& quants, std::string* out) {
  PutU32(out, static_cast<uint32_t>(quants.size()));
  for (const Quantification& e : quants) {
    PutI64(out, e.index);
    PutF64(out, e.probability);
  }
}

bool ReadQuants(Reader* r, std::vector<Quantification>* out) {
  uint32_t n = r->U32();
  if (!r->Fits(n, 16)) return false;
  out->resize(n);
  for (Quantification& e : *out) {
    if (!ReadInt(r, &e.index)) return false;
    e.probability = r->F64();
  }
  return r->ok();
}

void FinishFrame(size_t prefix_at, std::string* out) {
  std::string length;
  PutU32(&length, static_cast<uint32_t>(out->size() - prefix_at - kFramePrefixBytes));
  out->replace(prefix_at, kFramePrefixBytes, length);
}

size_t BeginFrame(FrameType type, uint64_t request_id, std::string* out) {
  size_t prefix_at = out->size();
  PutU32(out, 0);  // Patched by FinishFrame.
  PutU8(out, kProtocolVersion);
  PutU8(out, static_cast<uint8_t>(type));
  PutU64(out, request_id);
  return prefix_at;
}

void AppendOptEps(const std::optional<double>& eps, std::string* out) {
  PutU8(out, eps.has_value() ? 1 : 0);
  if (eps.has_value()) PutF64(out, *eps);
}

}  // namespace

void AppendRequestFrame(uint64_t request_id, const api::QueryRequest& request,
                        std::string* out) {
  size_t prefix_at = BeginFrame(FrameType::kRequest, request_id, out);
  PutU32(out, static_cast<uint32_t>(request.deadline_micros));
  PutU8(out, static_cast<uint8_t>(request.kind));
  switch (request.kind) {
    case api::QueryKind::kNonzeroNN:
    case api::QueryKind::kQuantifyExact:
      PutF64(out, request.q.x);
      PutF64(out, request.q.y);
      break;
    case api::QueryKind::kQuantify:
    case api::QueryKind::kMostLikelyNN:
      PutF64(out, request.q.x);
      PutF64(out, request.q.y);
      AppendOptEps(request.eps, out);
      break;
    case api::QueryKind::kThresholdNN:
      PutF64(out, request.q.x);
      PutF64(out, request.q.y);
      PutF64(out, request.tau);
      AppendOptEps(request.eps, out);
      break;
    case api::QueryKind::kInsert:
      PNN_CHECK_MSG(request.point.has_value(), "protocol: insert request without point");
      store::EncodePoint(*request.point, out);
      break;
    case api::QueryKind::kErase:
      PutI64(out, request.id);
      break;
  }
  FinishFrame(prefix_at, out);
}

void AppendResponseFrame(uint64_t request_id, const api::QueryResponse& response,
                         std::string* out) {
  size_t prefix_at = BeginFrame(FrameType::kResponse, request_id, out);
  PutU8(out, static_cast<uint8_t>(response.status));
  PutU8(out, static_cast<uint8_t>(response.kind));
  PutF64(out, response.server_micros);
  PutU32(out, static_cast<uint32_t>(response.message.size()));
  out->append(response.message);
  if (response.ok()) {
    switch (response.kind) {
      case api::QueryKind::kNonzeroNN:
        PutU32(out, static_cast<uint32_t>(response.ids.size()));
        for (api::Id id : response.ids) PutI64(out, id);
        break;
      case api::QueryKind::kQuantify:
      case api::QueryKind::kQuantifyExact:
      case api::QueryKind::kThresholdNN:
        AppendQuants(response.quants, out);
        break;
      case api::QueryKind::kMostLikelyNN:
      case api::QueryKind::kInsert:
      case api::QueryKind::kErase:
        PutI64(out, response.id);
        break;
    }
  }
  FinishFrame(prefix_at, out);
}

namespace {

bool ReadHeader(Reader* r, FrameType expected, uint64_t* request_id) {
  uint8_t version = r->U8();
  uint8_t type = r->U8();
  *request_id = r->U64();
  return r->ok() && version == kProtocolVersion &&
         type == static_cast<uint8_t>(expected);
}

bool ReadQ(Reader* r, Point2* q) {
  q->x = r->F64();
  q->y = r->F64();
  return r->ok() && std::isfinite(q->x) && std::isfinite(q->y);
}

bool ReadOptEps(Reader* r, std::optional<double>* eps) {
  uint8_t has = r->U8();
  if (!r->ok() || has > 1) return false;
  if (has == 0) {
    eps->reset();
    return true;
  }
  double v = r->F64();
  if (!r->ok() || !std::isfinite(v)) return false;
  *eps = v;
  return true;
}

}  // namespace

bool DecodeRequestPayload(const char* data, size_t size, RequestFrame* out) {
  Reader r = PayloadReader(data, size);
  if (!ReadHeader(&r, FrameType::kRequest, &out->request_id)) return false;
  uint32_t deadline = r.U32();
  uint8_t kind = r.U8();
  if (!r.ok() || kind > static_cast<uint8_t>(api::QueryKind::kErase)) return false;
  api::QueryRequest& req = out->request;
  req = api::QueryRequest();
  req.kind = static_cast<api::QueryKind>(kind);
  req.deadline_micros = deadline;
  switch (req.kind) {
    case api::QueryKind::kNonzeroNN:
    case api::QueryKind::kQuantifyExact:
      if (!ReadQ(&r, &req.q)) return false;
      break;
    case api::QueryKind::kQuantify:
    case api::QueryKind::kMostLikelyNN:
      if (!ReadQ(&r, &req.q) || !ReadOptEps(&r, &req.eps)) return false;
      break;
    case api::QueryKind::kThresholdNN:
      if (!ReadQ(&r, &req.q)) return false;
      req.tau = r.F64();
      if (!r.ok() || !std::isfinite(req.tau) || !ReadOptEps(&r, &req.eps)) return false;
      break;
    case api::QueryKind::kInsert:
      req.point = store::DecodePoint(&r);
      if (!req.point.has_value()) return false;
      break;
    case api::QueryKind::kErase:
      if (!ReadInt(&r, &req.id)) return false;
      break;
  }
  return r.ok() && r.remaining() == 0;  // Trailing bytes are malformed.
}

bool DecodeResponsePayload(const char* data, size_t size, ResponseFrame* out) {
  Reader r = PayloadReader(data, size);
  if (!ReadHeader(&r, FrameType::kResponse, &out->request_id)) return false;
  uint8_t status = r.U8();
  uint8_t kind = r.U8();
  double micros = r.F64();
  uint32_t message_len = r.U32();
  if (!r.ok() || status > static_cast<uint8_t>(api::StatusCode::kUnavailable) ||
      kind > static_cast<uint8_t>(api::QueryKind::kErase) || !r.Fits(message_len, 1)) {
    return false;
  }
  api::QueryResponse& resp = out->response;
  resp = api::QueryResponse();
  resp.status = static_cast<api::StatusCode>(status);
  resp.kind = static_cast<api::QueryKind>(kind);
  resp.server_micros = micros;
  resp.message.resize(message_len);
  r.Raw(&resp.message[0], message_len);
  if (resp.ok()) {
    switch (resp.kind) {
      case api::QueryKind::kNonzeroNN: {
        uint32_t n = r.U32();
        if (!r.Fits(n, 8)) return false;
        resp.ids.resize(n);
        for (api::Id& id : resp.ids) {
          if (!ReadInt(&r, &id)) return false;
        }
        break;
      }
      case api::QueryKind::kQuantify:
      case api::QueryKind::kQuantifyExact:
      case api::QueryKind::kThresholdNN:
        if (!ReadQuants(&r, &resp.quants)) return false;
        break;
      case api::QueryKind::kMostLikelyNN:
      case api::QueryKind::kInsert:
      case api::QueryKind::kErase:
        if (!ReadInt(&r, &resp.id)) return false;
        break;
    }
  }
  return r.ok() && r.remaining() == 0;
}

uint64_t PeekRequestId(const char* data, size_t size) {
  // Header layout: u8 version, u8 type, u64 request id.
  Reader r = PayloadReader(data, size);
  r.U8();
  r.U8();
  return r.U64();  // 0 once the reader ran short.
}

FrameBuffer::Result FrameBuffer::Next(std::string* payload) {
  // Compact once the consumed prefix dominates, so a long-lived
  // connection's buffer doesn't grow with its history.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  size_t available = buffer_.size() - consumed_;
  if (available < kFramePrefixBytes) return Result::kNeedMore;
  uint32_t length = PayloadReader(buffer_.data() + consumed_, kFramePrefixBytes).U32();
  if (length > max_payload_bytes_) return Result::kTooLarge;
  if (available < kFramePrefixBytes + length) return Result::kNeedMore;
  payload->assign(buffer_.data() + consumed_ + kFramePrefixBytes, length);
  consumed_ += kFramePrefixBytes + length;
  return Result::kFrame;
}

}  // namespace serve
}  // namespace pnn
