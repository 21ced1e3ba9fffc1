// Tests for the serve wire protocol: encode/decode roundtrips for every
// request kind and response shape, plus robustness — truncations at every
// byte, bit flips, oversized frames, hostile counts, and trailing garbage
// must decode to `false` (or kTooLarge), never crash or over-allocate.

#include "src/serve/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/api/query.h"
#include "src/uncertain/uncertain_point.h"
#include "tests/point_bits.h"

namespace pnn {
namespace serve {
namespace {

std::string PayloadOf(const std::string& frame) {
  // Strip the u32 length prefix.
  EXPECT_GE(frame.size(), kFramePrefixBytes);
  return frame.substr(kFramePrefixBytes);
}

std::vector<api::QueryRequest> AllRequestKinds() {
  std::vector<api::QueryRequest> out;
  out.push_back(api::QueryRequest::NonzeroNN({1.5, -2.25}));
  out.push_back(api::QueryRequest::Quantify({0.5, 0.5}, 0.1));
  out.push_back(api::QueryRequest::Quantify({0.5, 0.5}, std::nullopt));
  out.push_back(api::QueryRequest::QuantifyExact({-3, 4}));
  out.push_back(api::QueryRequest::ThresholdNN({2, 2}, 0.25, 0.05));
  out.push_back(api::QueryRequest::MostLikelyNN({7, -7}, std::nullopt));
  out.push_back(api::QueryRequest::Insert(
      UncertainPoint::Discrete({{0, 0}, {1, 2}, {3, 4}}, {0.5, 0.25, 0.25})));
  // Renormalizing these weights again would move 0.29's last bit.
  out.push_back(api::QueryRequest::Insert(
      UncertainPoint::Discrete({{0, 0}, {1, 0}, {2, 0}}, {0.29, 0.35, 0.36})));
  out.push_back(api::QueryRequest::Insert(UncertainPoint::UniformDisk({5, 6}, 2.5)));
  out.push_back(
      api::QueryRequest::Insert(UncertainPoint::TruncatedGaussian({1, 1}, 3.0, 0.8)));
  out.push_back(api::QueryRequest::Erase(42));
  out.back().deadline_micros = 2500;
  return out;
}

void ExpectSameRequest(const api::QueryRequest& a, const api::QueryRequest& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.q.x, b.q.x);
  EXPECT_EQ(a.q.y, b.q.y);
  EXPECT_EQ(a.eps, b.eps);
  EXPECT_EQ(a.tau, b.tau);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.deadline_micros, b.deadline_micros);
  ASSERT_EQ(a.point.has_value(), b.point.has_value());
  if (a.point) ExpectSamePointBits(*a.point, *b.point);
}

TEST(ServeProtocol, RequestRoundtripAllKinds) {
  uint64_t id = 7;
  for (const api::QueryRequest& req : AllRequestKinds()) {
    std::string frame;
    AppendRequestFrame(id, req, &frame);
    std::string payload = PayloadOf(frame);
    RequestFrame decoded;
    ASSERT_TRUE(DecodeRequestPayload(payload.data(), payload.size(), &decoded));
    EXPECT_EQ(decoded.request_id, id);
    ExpectSameRequest(decoded.request, req);
    ++id;
  }
}

TEST(ServeProtocol, ResponseRoundtrip) {
  api::QueryResponse resp;
  resp.status = api::StatusCode::kOk;
  resp.kind = api::QueryKind::kQuantify;
  resp.quants = {{3, 0.5}, {1, 0.25}, {0, 0.125}};
  resp.id = 9;
  resp.server_micros = 123.5;
  std::string frame;
  AppendResponseFrame(77, resp, &frame);
  std::string payload = PayloadOf(frame);
  ResponseFrame decoded;
  ASSERT_TRUE(DecodeResponsePayload(payload.data(), payload.size(), &decoded));
  EXPECT_EQ(decoded.request_id, 77u);
  EXPECT_EQ(decoded.response.status, api::StatusCode::kOk);
  EXPECT_EQ(decoded.response.kind, api::QueryKind::kQuantify);
  ASSERT_EQ(decoded.response.quants.size(), 3u);
  EXPECT_EQ(decoded.response.quants[0].index, 3);
  EXPECT_EQ(decoded.response.quants[0].probability, 0.5);
  EXPECT_EQ(decoded.response.server_micros, 123.5);
}

TEST(ServeProtocol, ErrorResponseCarriesMessageOnly) {
  api::QueryResponse resp = api::QueryResponse::Error(
      api::StatusCode::kOverloaded, api::QueryKind::kNonzeroNN, "queue full");
  std::string frame;
  AppendResponseFrame(5, resp, &frame);
  std::string payload = PayloadOf(frame);
  ResponseFrame decoded;
  ASSERT_TRUE(DecodeResponsePayload(payload.data(), payload.size(), &decoded));
  EXPECT_EQ(decoded.response.status, api::StatusCode::kOverloaded);
  EXPECT_EQ(decoded.response.message, "queue full");
  EXPECT_TRUE(decoded.response.ids.empty());
  EXPECT_TRUE(decoded.response.quants.empty());
}

// Every strict prefix of a valid payload is malformed — no partial decode
// ever succeeds or reads past the end.
TEST(ServeProtocol, TruncationAtEveryByteFails) {
  for (const api::QueryRequest& req : AllRequestKinds()) {
    std::string payload = PayloadOf([&] {
      std::string f;
      AppendRequestFrame(1, req, &f);
      return f;
    }());
    RequestFrame out;
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_FALSE(DecodeRequestPayload(payload.data(), cut, &out))
          << "kind " << static_cast<int>(req.kind) << " cut at " << cut;
    }
  }
}

TEST(ServeProtocol, TrailingBytesAreMalformed) {
  std::string frame;
  AppendRequestFrame(1, api::QueryRequest::NonzeroNN({0, 0}), &frame);
  std::string payload = PayloadOf(frame) + '\0';
  RequestFrame out;
  EXPECT_FALSE(DecodeRequestPayload(payload.data(), payload.size(), &out));
}

TEST(ServeProtocol, BadVersionTypeKindStatusFail) {
  std::string frame;
  AppendRequestFrame(1, api::QueryRequest::NonzeroNN({0, 0}), &frame);
  std::string payload = PayloadOf(frame);
  RequestFrame out;

  std::string bad = payload;
  bad[0] = 99;  // version
  EXPECT_FALSE(DecodeRequestPayload(bad.data(), bad.size(), &out));
  bad = payload;
  bad[1] = 99;  // frame type
  EXPECT_FALSE(DecodeRequestPayload(bad.data(), bad.size(), &out));
  bad = payload;
  bad[14] = 99;  // kind (after u8+u8+u64 header and u32 deadline)
  EXPECT_FALSE(DecodeRequestPayload(bad.data(), bad.size(), &out));
  bad = payload;
  bad[0] = 1;  // Version 1 laid disks out differently.
  EXPECT_FALSE(DecodeRequestPayload(bad.data(), bad.size(), &out));
}

// An i64 on the wire that does not fit api::Id is malformed: narrowed,
// 2^32 + 5 would name point 5.
TEST(ServeProtocol, WideIdsAreMalformedNotNarrowed) {
  const int64_t kAliasOfFive = (int64_t{1} << 32) + 5;
  std::string frame;
  AppendRequestFrame(1, api::QueryRequest::Erase(5), &frame);
  std::string payload = PayloadOf(frame);
  RequestFrame req;
  ASSERT_TRUE(DecodeRequestPayload(payload.data(), payload.size(), &req));
  ASSERT_EQ(req.request.id, 5);
  // The id is the last 8 bytes (header, deadline, kind, then i64 id).
  std::memcpy(&payload[payload.size() - 8], &kAliasOfFive, 8);
  EXPECT_FALSE(DecodeRequestPayload(payload.data(), payload.size(), &req));

  // Response ids and quantification indices: the i64 sits 16 bytes from
  // the end for a one-entry quant list and last for a single id.
  api::QueryResponse quant;
  quant.kind = api::QueryKind::kQuantify;
  quant.quants = {{5, 1.0}};
  api::QueryResponse ids;
  ids.kind = api::QueryKind::kNonzeroNN;
  ids.ids = {5};
  api::QueryResponse one;
  one.kind = api::QueryKind::kMostLikelyNN;
  one.id = 5;
  for (const auto& [resp, id_from_end] :
       {std::make_pair(quant, 16), std::make_pair(ids, 8), std::make_pair(one, 8)}) {
    frame.clear();
    AppendResponseFrame(2, resp, &frame);
    payload = PayloadOf(frame);
    ResponseFrame decoded;
    ASSERT_TRUE(DecodeResponsePayload(payload.data(), payload.size(), &decoded));
    for (int64_t wide : {kAliasOfFive, int64_t{std::numeric_limits<int>::min()} - 1}) {
      std::string bad = payload;
      std::memcpy(&bad[bad.size() - id_from_end], &wide, 8);
      EXPECT_FALSE(DecodeResponsePayload(bad.data(), bad.size(), &decoded))
          << static_cast<int>(resp.kind) << " " << wide;
    }
  }
}

// The encoder never invents a point: an Insert without one is a caller
// bug, as it is for the op log's encoder.
TEST(ServeProtocolDeathTest, InsertWithoutPointAborts) {
  api::QueryRequest insert;
  insert.kind = api::QueryKind::kInsert;
  std::string frame;
  EXPECT_DEATH(AppendRequestFrame(1, insert, &frame), "insert request without point");
}

// A hostile count (large u32 location count in a tiny frame) must be
// rejected by the remaining-bytes check before any allocation.
TEST(ServeProtocol, HostileDiscreteCountRejected) {
  std::string frame;
  AppendRequestFrame(
      3, api::QueryRequest::Insert(UncertainPoint::Discrete({{0, 0}, {1, 1}},
                                                            {0.5, 0.5})),
      &frame);
  std::string payload = PayloadOf(frame);
  // Payload layout: header(10) + deadline u32(4) + kind u8(1) +
  // discrete tag u8(1), then the u32 location count.
  size_t count_off = 16;
  uint32_t huge = 0x7fffffff;
  std::memcpy(&payload[count_off], &huge, sizeof(huge));
  RequestFrame out;
  EXPECT_FALSE(DecodeRequestPayload(payload.data(), payload.size(), &out));
}

TEST(ServeProtocol, NonFiniteAndBadWeightsRejected) {
  // Weights not summing to 1 on the wire: corrupt one weight.
  std::string frame;
  AppendRequestFrame(
      4, api::QueryRequest::Insert(UncertainPoint::Discrete({{0, 0}, {1, 1}},
                                                            {0.5, 0.5})),
      &frame);
  std::string payload = PayloadOf(frame);
  size_t w0_off = 16 + 4 + 16;  // header+deadline+kind+tag, count, first (x, y).
  double bad_w = 0.9;
  std::memcpy(&payload[w0_off], &bad_w, sizeof(bad_w));
  RequestFrame out;
  EXPECT_FALSE(DecodeRequestPayload(payload.data(), payload.size(), &out));

  double nan_w = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&payload[w0_off], &nan_w, sizeof(nan_w));
  EXPECT_FALSE(DecodeRequestPayload(payload.data(), payload.size(), &out));
}

TEST(ServeProtocol, FrameBufferReassemblesByteByByte) {
  std::string stream;
  std::vector<api::QueryRequest> reqs = AllRequestKinds();
  for (size_t i = 0; i < reqs.size(); ++i) AppendRequestFrame(i, reqs[i], &stream);

  FrameBuffer buf;
  std::string payload;
  size_t decoded = 0;
  for (char c : stream) {
    buf.Append(&c, 1);
    while (buf.Next(&payload) == FrameBuffer::Result::kFrame) {
      RequestFrame out;
      ASSERT_TRUE(DecodeRequestPayload(payload.data(), payload.size(), &out));
      EXPECT_EQ(out.request_id, decoded);
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, reqs.size());
  EXPECT_EQ(buf.buffered_bytes(), 0u);
}

TEST(ServeProtocol, OversizedFrameReportsTooLarge) {
  FrameBuffer buf(/*max_payload_bytes=*/64);
  uint32_t huge = 1000;
  char prefix[4];
  std::memcpy(prefix, &huge, 4);
  buf.Append(prefix, 4);
  std::string payload;
  EXPECT_EQ(buf.Next(&payload), FrameBuffer::Result::kTooLarge);
}

TEST(ServeProtocol, PeekRequestIdSurvivesMalformedBody) {
  std::string frame;
  AppendRequestFrame(0xdeadbeefULL, api::QueryRequest::NonzeroNN({0, 0}), &frame);
  std::string payload = PayloadOf(frame);
  payload.resize(payload.size() - 3);  // Truncate the body.
  EXPECT_EQ(PeekRequestId(payload.data(), payload.size()), 0xdeadbeefULL);
  EXPECT_EQ(PeekRequestId(payload.data(), 5), 0u);  // Even the header is short.
}

}  // namespace
}  // namespace serve
}  // namespace pnn
