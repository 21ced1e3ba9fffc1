// Seeded mutation test of the one byte codec (src/store/format.h) through
// every decoder built on it: serve request frames, serve response frames
// and op-log record payloads. Each valid encoding is mutated (bit flips,
// byte overwrites, truncations, inflated u32 counts) under fixed seeds; a
// decode must either fail or yield a value that re-encodes and decodes to
// the same value, compared bitwise. Sanitizer builds turn any
// out-of-bounds read or oversized allocation on the way into a failure.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/serve/protocol.h"
#include "src/store/format.h"
#include "src/store/log.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "tests/point_bits.h"

namespace pnn {
namespace {

constexpr int kMutationsPerCodec = 3000;

/// One to three stacked mutations of `bytes`.
std::string Mutate(const std::string& bytes, Rng* rng) {
  std::string m = bytes;
  int rounds = static_cast<int>(rng->UniformInt(1, 3));
  for (int k = 0; k < rounds && !m.empty(); ++k) {
    size_t at =
        static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(m.size()) - 1));
    switch (rng->UniformInt(0, 3)) {
      case 0:  // Bit flip.
        m[at] = static_cast<char>(m[at] ^ (1 << rng->UniformInt(0, 7)));
        break;
      case 1:  // Byte overwrite.
        m[at] = static_cast<char>(rng->UniformInt(0, 255));
        break;
      case 2:  // Truncation.
        m.resize(at);
        break;
      case 3: {  // Inflated count: a u32 window made large or nudged up.
        if (m.size() < 4) break;
        at = std::min(at, m.size() - 4);
        uint32_t v;
        std::memcpy(&v, &m[at], 4);
        const uint32_t big[] = {0xFFFFFFFFu, 0x7FFFFFFFu, 1u << 20};
        v = rng->Bernoulli(0.5) ? big[rng->UniformInt(0, 2)]
                                : v + static_cast<uint32_t>(rng->UniformInt(1, 3));
        std::memcpy(&m[at], &v, 4);
        break;
      }
    }
  }
  return m;
}

std::vector<UncertainPoint> SamplePoints() {
  return {UncertainPoint::Discrete({{0, 0}, {1, 0}, {2, 0}}, {0.29, 0.35, 0.36}),
          UncertainPoint::Discrete({{-4.5, 3}}, {1.0}),
          UncertainPoint::UniformDisk({5, 6}, 2.5),
          UncertainPoint::TruncatedGaussian({1, -1}, 3.0, 0.8)};
}

void ExpectSameOptPoint(const std::optional<UncertainPoint>& a,
                        const std::optional<UncertainPoint>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) ExpectSamePointBits(*a, *b);
}

std::string PayloadOf(const std::string& frame) {
  return frame.substr(serve::kFramePrefixBytes);
}

TEST(CodecMutation, RequestFramesFailOrRoundTrip) {
  std::vector<api::QueryRequest> requests = {
      api::QueryRequest::NonzeroNN({1.5, -2.25}),
      api::QueryRequest::Quantify({0.5, 0.5}, 0.1),
      api::QueryRequest::ThresholdNN({2, 2}, 0.25, 0.05),
      api::QueryRequest::MostLikelyNN({7, -7}, std::nullopt),
      api::QueryRequest::Erase(42)};
  for (const UncertainPoint& p : SamplePoints()) {
    requests.push_back(api::QueryRequest::Insert(p));
  }
  Rng rng(20);
  int accepted = 0;
  for (int i = 0; i < kMutationsPerCodec; ++i) {
    std::string frame;
    serve::AppendRequestFrame(static_cast<uint64_t>(i),
                              requests[static_cast<size_t>(i) % requests.size()],
                              &frame);
    std::string bytes = Mutate(PayloadOf(frame), &rng);
    serve::RequestFrame a;
    if (!serve::DecodeRequestPayload(bytes.data(), bytes.size(), &a)) continue;
    ++accepted;
    frame.clear();
    serve::AppendRequestFrame(a.request_id, a.request, &frame);
    std::string again = PayloadOf(frame);
    serve::RequestFrame b;
    ASSERT_TRUE(serve::DecodeRequestPayload(again.data(), again.size(), &b)) << i;
    EXPECT_EQ(a.request_id, b.request_id);
    const api::QueryRequest& x = a.request;
    const api::QueryRequest& y = b.request;
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(Bits(x.q.x), Bits(y.q.x));
    EXPECT_EQ(Bits(x.q.y), Bits(y.q.y));
    EXPECT_EQ(Bits(x.tau), Bits(y.tau));
    ASSERT_EQ(x.eps.has_value(), y.eps.has_value());
    if (x.eps) {
      EXPECT_EQ(Bits(*x.eps), Bits(*y.eps));
    }
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.deadline_micros, y.deadline_micros);
    ExpectSameOptPoint(x.point, y.point);
  }
  // Both outcomes occur, so the test exercises the decoders' insides.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutationsPerCodec);
}

TEST(CodecMutation, ResponseFramesFailOrRoundTrip) {
  std::vector<api::QueryResponse> responses(4);
  responses[0].kind = api::QueryKind::kNonzeroNN;
  responses[0].ids = {1, 4, 9};
  responses[1].kind = api::QueryKind::kQuantify;
  responses[1].quants = {{3, 0.5}, {1, 0.25}, {0, 0.125}};
  responses[2].kind = api::QueryKind::kMostLikelyNN;
  responses[2].id = 12;
  responses[2].server_micros = 17.5;
  responses[3] = api::QueryResponse::Error(api::StatusCode::kOverloaded,
                                           api::QueryKind::kThresholdNN, "queue full");
  Rng rng(21);
  int accepted = 0;
  for (int i = 0; i < kMutationsPerCodec; ++i) {
    std::string frame;
    serve::AppendResponseFrame(static_cast<uint64_t>(i),
                               responses[static_cast<size_t>(i) % responses.size()],
                               &frame);
    std::string bytes = Mutate(PayloadOf(frame), &rng);
    serve::ResponseFrame a;
    if (!serve::DecodeResponsePayload(bytes.data(), bytes.size(), &a)) continue;
    ++accepted;
    frame.clear();
    serve::AppendResponseFrame(a.request_id, a.response, &frame);
    std::string again = PayloadOf(frame);
    serve::ResponseFrame b;
    ASSERT_TRUE(serve::DecodeResponsePayload(again.data(), again.size(), &b)) << i;
    EXPECT_EQ(a.request_id, b.request_id);
    const api::QueryResponse& x = a.response;
    const api::QueryResponse& y = b.response;
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(Bits(x.server_micros), Bits(y.server_micros));
    EXPECT_EQ(x.message, y.message);
    EXPECT_EQ(x.ids, y.ids);
    EXPECT_EQ(x.id, y.id);
    ASSERT_EQ(x.quants.size(), y.quants.size());
    for (size_t j = 0; j < x.quants.size(); ++j) {
      EXPECT_EQ(x.quants[j].index, y.quants[j].index);
      EXPECT_EQ(Bits(x.quants[j].probability), Bits(y.quants[j].probability));
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutationsPerCodec);
}

/// The record ReadLog recovers from a file holding one frame around
/// `payload`, CRC included, so every mutation reaches the payload decoder.
std::optional<store::LogRecord> ReplayPayload(const std::string& path,
                                              const std::string& payload) {
  std::string frame;
  store::PutU32(&frame, static_cast<uint32_t>(payload.size()));
  store::PutU32(&frame, util::Crc32c(payload.data(), payload.size()));
  frame += payload;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }
  store::LogReplay replay = store::ReadLog(path);
  if (replay.records.empty()) return std::nullopt;
  return replay.records.front();
}

TEST(CodecMutation, LogRecordPayloadsFailOrRoundTrip) {
  std::vector<store::LogRecord> records;
  for (const UncertainPoint& p : SamplePoints()) {
    store::LogRecord rec;
    rec.type = store::LogRecordType::kInsert;
    rec.seqno = records.size() + 1;
    rec.id = 7;
    rec.point = p;
    records.push_back(rec);
    rec.type = store::LogRecordType::kMoveIn;
    rec.move_seq = 3;
    records.push_back(rec);
  }
  store::LogRecord rec;
  rec.seqno = 30;
  rec.type = store::LogRecordType::kCheckpoint;
  rec.generation = 2;
  rec.next_id = 100;
  rec.delta_count = 4;
  records.push_back(rec);
  rec.type = store::LogRecordType::kMask;
  rec.segment_ordinal = 1;
  rec.local_index = 6;
  records.push_back(rec);
  rec.type = store::LogRecordType::kErase;
  rec.id = 9;
  records.push_back(rec);
  rec.type = store::LogRecordType::kMoveOut;
  rec.move_seq = 5;
  records.push_back(rec);

  const std::string path = testing::TempDir() + "/codec_mutation.log";
  Rng rng(22);
  int accepted = 0;
  for (int i = 0; i < kMutationsPerCodec; ++i) {
    std::string frame;
    store::AppendLogRecord(records[static_cast<size_t>(i) % records.size()], &frame);
    // Strip the u32 length and u32 CRC: the mutation targets the payload.
    std::optional<store::LogRecord> a =
        ReplayPayload(path, Mutate(frame.substr(8), &rng));
    if (!a.has_value()) continue;
    ++accepted;
    frame.clear();
    store::AppendLogRecord(*a, &frame);
    std::optional<store::LogRecord> b = ReplayPayload(path, frame.substr(8));
    ASSERT_TRUE(b.has_value()) << i;
    EXPECT_EQ(a->type, b->type);
    EXPECT_EQ(a->seqno, b->seqno);
    EXPECT_EQ(a->generation, b->generation);
    EXPECT_EQ(a->next_id, b->next_id);
    EXPECT_EQ(a->delta_count, b->delta_count);
    EXPECT_EQ(a->segment_ordinal, b->segment_ordinal);
    EXPECT_EQ(a->local_index, b->local_index);
    EXPECT_EQ(a->id, b->id);
    EXPECT_EQ(a->move_seq, b->move_seq);
    ExpectSameOptPoint(a->point, b->point);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutationsPerCodec);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace pnn
