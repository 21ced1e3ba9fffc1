// Segment round-trip certification: a bucket loaded from a segment file
// is indistinguishable from the one serialized — identical ids and
// points, SameStructure on every kd tree (the adoption constructors
// reproduce the exact node layout instead of rebuilding), and
// bit-identical query answers. Plus the rejection side: corrupt bytes,
// bad magic and seed mismatches must never load.

#include <cstdio>
#include <cstring>
#include <limits>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dyn/bucket.h"
#include "src/store/format.h"
#include "src/store/io.h"
#include "src/store/segment.h"
#include "src/util/crc32.h"

namespace pnn {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

UncertainPoint RandomDiscretePoint(Rng* rng) {
  int k = static_cast<int>(rng->UniformInt(1, 5));
  Point2 c{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  std::vector<Point2> locs(k);
  std::vector<double> w(k);
  double total = 0.0;
  for (int s = 0; s < k; ++s) {
    locs[s] = {c.x + rng->Uniform(-3, 3), c.y + rng->Uniform(-3, 3)};
    w[s] = rng->Uniform(0.05, 1.0);
    total += w[s];
  }
  for (int s = 0; s < k; ++s) w[s] /= total;
  return UncertainPoint::Discrete(std::move(locs), std::move(w));
}

UncertainPoint RandomContinuousPoint(Rng* rng) {
  Point2 c{rng->Uniform(-30, 30), rng->Uniform(-30, 30)};
  double radius = rng->Uniform(0.5, 4.0);
  if (rng->Bernoulli(0.3)) {
    return UncertainPoint::TruncatedGaussian(c, radius, rng->Uniform(0.3, 2.0));
  }
  return UncertainPoint::UniformDisk(c, radius);
}

enum class Family { kDiscrete, kContinuous, kMixed };

std::shared_ptr<const dyn::Bucket> MakeBucket(Family family, size_t n,
                                              uint64_t seed,
                                              const Engine::Options& options) {
  Rng rng(seed);
  UncertainSet points;
  std::vector<dyn::Id> ids;
  for (size_t i = 0; i < n; ++i) {
    switch (family) {
      case Family::kDiscrete:
        points.push_back(RandomDiscretePoint(&rng));
        break;
      case Family::kContinuous:
        points.push_back(RandomContinuousPoint(&rng));
        break;
      case Family::kMixed:
        points.push_back(rng.Bernoulli(0.5) ? RandomDiscretePoint(&rng)
                                            : RandomContinuousPoint(&rng));
        break;
    }
    ids.push_back(static_cast<dyn::Id>(2 * i + 1));  // Ascending, gappy.
  }
  return std::make_shared<dyn::Bucket>(std::move(ids), std::move(points),
                                       options);
}

std::vector<dyn::Id> Ids(const dyn::Bucket& bucket) {
  std::vector<dyn::Id> ids;
  for (size_t j = 0; j < bucket.size(); ++j) ids.push_back(bucket.id(j));
  return ids;
}

void ExpectEnginesAnswerIdentically(const Engine& a, const Engine& b,
                                    uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 25; ++trial) {
    Point2 q{rng.Uniform(-35, 35), rng.Uniform(-35, 35)};
    EXPECT_EQ(a.NonzeroNN(q), b.NonzeroNN(q));
    std::vector<Quantification> qa = a.Quantify(q, 0.1);
    std::vector<Quantification> qb = b.Quantify(q, 0.1);
    ASSERT_EQ(qa.size(), qb.size());
    for (size_t i = 0; i < qa.size(); ++i) {
      EXPECT_EQ(qa[i].index, qb[i].index);
      EXPECT_EQ(qa[i].probability, qb[i].probability);  // Bit-identical.
    }
    EXPECT_EQ(a.MostLikelyNN(q, 0.1), b.MostLikelyNN(q, 0.1));
  }
}

std::shared_ptr<const dyn::Bucket> RoundTrip(const dyn::Bucket& bucket,
                                             const Engine::Options& options) {
  // One file per test: ctest runs the round-trip tests as parallel
  // processes, which must not share a path.
  std::string path = TempPath(
      std::string("segment_roundtrip_") +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".seg");
  WriteSegmentFile(path, bucket);
  std::string error;
  std::shared_ptr<const dyn::Bucket> loaded = LoadSegment(path, options, &error);
  EXPECT_NE(loaded, nullptr) << error;
  std::remove(path.c_str());
  return loaded;
}

TEST(StoreSegment, DiscreteRoundTripSameStructure) {
  Engine::Options options;
  options.seed = 99;
  options.mc_rounds_override = 48;
  auto bucket = MakeBucket(Family::kDiscrete, 64, 11, options);
  auto loaded = RoundTrip(*bucket, options);
  ASSERT_NE(loaded, nullptr);

  EXPECT_EQ(Ids(*loaded), Ids(*bucket));
  const Engine& e = bucket->engine();
  const Engine& f = loaded->engine();
  EXPECT_TRUE(f.all_discrete());
  EXPECT_EQ(e.total_complexity(), f.total_complexity());

  // Every kd tree adopted the serialized layout exactly.
  ASSERT_NE(f.spiral(), nullptr);
  EXPECT_TRUE(e.spiral()->tree().SameStructure(f.spiral()->tree()));
  EXPECT_EQ(e.spiral()->owners(), f.spiral()->owners());
  ASSERT_NE(f.discrete_index(), nullptr);
  EXPECT_TRUE(e.discrete_index()->centroid_tree().SameStructure(
      f.discrete_index()->centroid_tree()));
  EXPECT_TRUE(e.discrete_index()->location_tree().SameStructure(
      f.discrete_index()->location_tree()));
  EXPECT_EQ(e.discrete_index()->owners(), f.discrete_index()->owners());
  EXPECT_EQ(e.discrete_index()->hull_begin(), f.discrete_index()->hull_begin());
  const std::vector<Point2>& ha = e.discrete_index()->hull_points();
  const std::vector<Point2>& hb = f.discrete_index()->hull_points();
  ASSERT_EQ(ha.size(), hb.size());
  for (size_t j = 0; j < ha.size(); ++j) {
    EXPECT_EQ(ha[j].x, hb[j].x);
    EXPECT_EQ(ha[j].y, hb[j].y);
  }

  ExpectEnginesAnswerIdentically(e, f, 1234);
}

TEST(StoreSegment, DiscreteLocationTreeIsSharedFreshAndRecovered) {
  // An all-discrete engine builds its location tree once: the discrete
  // index's stage-2 tree and the spiral index's tree are one object, in
  // the bucket's freshly built engine and after recovery (the segment
  // stores it once and the loader adopts it once). So is the owners
  // array beside it, which the loader rebuilds from the points.
  Engine::Options options;
  options.seed = 77;
  options.mc_rounds_override = 16;
  auto bucket = MakeBucket(Family::kDiscrete, 80, 47, options);
  auto loaded = RoundTrip(*bucket, options);
  ASSERT_NE(loaded, nullptr);
  for (const Engine* e : {&bucket->engine(), &loaded->engine()}) {
    ASSERT_NE(e->discrete_index(), nullptr);
    ASSERT_NE(e->spiral(), nullptr);
    EXPECT_EQ(&e->discrete_index()->location_tree(), &e->spiral()->tree());
    EXPECT_EQ(&e->discrete_index()->owners(), &e->spiral()->owners());
    EXPECT_FALSE(e->spiral()->tree().weighted());
  }
}

TEST(StoreSegment, ContinuousRoundTripSameStructure) {
  Engine::Options options;
  options.seed = 7;
  options.mc_rounds_override = 48;
  auto bucket = MakeBucket(Family::kContinuous, 48, 13, options);
  auto loaded = RoundTrip(*bucket, options);
  ASSERT_NE(loaded, nullptr);

  EXPECT_EQ(Ids(*loaded), Ids(*bucket));
  const Engine& e = bucket->engine();
  const Engine& f = loaded->engine();
  EXPECT_TRUE(f.all_continuous());
  ASSERT_NE(f.disk_index(), nullptr);
  EXPECT_TRUE(e.disk_index()->tree().SameStructure(f.disk_index()->tree()));

  ExpectEnginesAnswerIdentically(e, f, 4321);
}

TEST(StoreSegment, MixedRoundTrip) {
  Engine::Options options;
  options.seed = 5;
  options.mc_rounds_override = 32;
  auto bucket = MakeBucket(Family::kMixed, 40, 17, options);
  auto loaded = RoundTrip(*bucket, options);
  ASSERT_NE(loaded, nullptr);

  EXPECT_EQ(Ids(*loaded), Ids(*bucket));
  const Engine& f = loaded->engine();
  EXPECT_FALSE(f.all_discrete());
  EXPECT_FALSE(f.all_continuous());
  ExpectEnginesAnswerIdentically(bucket->engine(), f, 999);
}

TEST(StoreSegment, SingletonBucketRoundTrips) {
  Engine::Options options;
  options.seed = 3;
  auto bucket = MakeBucket(Family::kDiscrete, 1, 23, options);
  auto loaded = RoundTrip(*bucket, options);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(Ids(*loaded), Ids(*bucket));
  ExpectEnginesAnswerIdentically(bucket->engine(), loaded->engine(), 31);
}

TEST(StoreSegment, SeedMismatchRefusesToLoad) {
  Engine::Options options;
  options.seed = 42;
  auto bucket = MakeBucket(Family::kDiscrete, 8, 29, options);
  std::string path = TempPath("segment_seed.seg");
  WriteSegmentFile(path, *bucket);
  Engine::Options other = options;
  other.seed = 43;  // Monte-Carlo streams would not reproduce.
  std::string error;
  EXPECT_EQ(LoadSegment(path, other, &error), nullptr);
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(StoreSegment, IdSpaceEndIsRejected) {
  // INT32_MAX is never assigned: it would leave no next id, and recovery
  // computing one past it would overflow. A segment naming it is corrupt.
  Engine::Options options;
  options.seed = 1;
  Rng rng(43);
  UncertainSet points = {RandomDiscretePoint(&rng), RandomDiscretePoint(&rng)};
  std::string path = TempPath("segment_id_end.seg");
  for (dyn::Id last : {INT32_MAX - 1, INT32_MAX}) {
    WriteSegmentFile(path, dyn::Bucket({1, last}, points, options));
    std::string error;
    std::shared_ptr<const dyn::Bucket> loaded = LoadSegment(path, options, &error);
    if (last == INT32_MAX) {
      EXPECT_EQ(loaded, nullptr);
      EXPECT_FALSE(error.empty());
    } else {
      ASSERT_NE(loaded, nullptr) << error;
      EXPECT_EQ(Ids(*loaded), (std::vector<dyn::Id>{1, last}));
    }
  }
  std::remove(path.c_str());
}

TEST(StoreSegment, MissingFileReturnsError) {
  Engine::Options options;
  std::string error;
  EXPECT_EQ(LoadSegment(TempPath("does_not_exist.seg"), options, &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(StoreSegment, EveryFlippedByteIsRejectedOrHarmless) {
  // CRC coverage: flip one byte at a time across the whole image; the
  // loader must either refuse (the expected case — header and payload are
  // both checksummed) or, never, silently accept different bytes.
  Engine::Options options;
  options.seed = 1;
  auto bucket = MakeBucket(Family::kDiscrete, 6, 37, options);
  std::string image = EncodeSegment(*bucket);
  std::string path = TempPath("segment_flip.seg");
  size_t accepted = 0;
  for (size_t i = 0; i < image.size(); ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    std::string error;
    if (LoadSegment(path, options, &error) != nullptr) ++accepted;
  }
  EXPECT_EQ(accepted, 0u);
  std::remove(path.c_str());
}

TEST(StoreSegment, TruncatedFileIsRejected) {
  Engine::Options options;
  options.seed = 1;
  auto bucket = MakeBucket(Family::kDiscrete, 6, 41, options);
  std::string image = EncodeSegment(*bucket);
  std::string path = TempPath("segment_trunc.seg");
  for (size_t len : {size_t{0}, size_t{1}, size_t{23}, image.size() / 2,
                     image.size() - 1}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(len));
    out.close();
    std::string error;
    EXPECT_EQ(LoadSegment(path, options, &error), nullptr) << len;
  }
  std::remove(path.c_str());
}

constexpr size_t kHeaderBytes = 24;  // Magic, version, size, two CRCs.

// Writes a payload-edited image to `path` with both CRCs resealed
// (payload CRC at byte 16, then the CRC of the first 20 bytes), so the
// loader's structural checks, not its checksums, must catch the edit.
void WriteResealed(const std::string& path, std::string* image) {
  std::string crcs;
  PutU32(&crcs, util::Crc32c(image->data() + kHeaderBytes, image->size() - kHeaderBytes));
  image->replace(16, 4, crcs);
  crcs.clear();
  PutU32(&crcs, util::Crc32c(image->data(), 20));
  image->replace(20, 4, crcs);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(image->data(), static_cast<std::streamsize>(image->size()));
}

TEST(StoreSegment, InvalidPointIsRefusedNotAborted) {
  // A CRC-valid segment whose one point is no distribution (a writer bug,
  // not bit rot) must fail to load, never die in UncertainPoint's checks.
  // Payload: n, seed, flags, complexity, one id (33 bytes), then the point.
  struct Case {
    UncertainPoint point;
    size_t field;  // Payload offset of the f64 to overwrite.
    double value;
  };
  const Case cases[] = {
      // Disk: tag, cx, cy, then the radius.
      {UncertainPoint::UniformDisk({0, 0}, 1), 33 + 1 + 16,
       std::numeric_limits<double>::quiet_NaN()},
      // Discrete: tag, k, then x, y and the first weight: 0.4 + 0.5 = 0.9.
      {UncertainPoint::Discrete({{0, 0}, {1, 1}}, {0.5, 0.5}), 33 + 5 + 16, 0.4},
  };
  Engine::Options options;
  options.seed = 1;
  std::string path = TempPath("segment_bad_point.seg");
  for (const Case& c : cases) {
    std::string image = EncodeSegment(dyn::Bucket({1}, {c.point}, options));
    std::memcpy(&image[kHeaderBytes + c.field], &c.value, 8);
    WriteResealed(path, &image);
    std::string error;
    EXPECT_EQ(LoadSegment(path, options, &error), nullptr);
    EXPECT_EQ(error, "segment: bad point encoding");
  }
  std::remove(path.c_str());
}

TEST(StoreSegment, OversizedHullIsRefusedNotAborted) {
  // A CRC-valid segment whose hull claims more vertices than its point has
  // locations (a writer bug, not bit rot) must fail to load cleanly,
  // never reach the index's adoption checks. Payload: n, seed, flags,
  // complexity, one id (33 bytes), then the point (tag, k, then x, y and
  // weight per location), then the hull count. Its vertices stay in the payload, so
  // raising the count by one reads the next blob's first bytes as a
  // vertex: only the count check can refuse it.
  UncertainPoint point = UncertainPoint::Discrete({{0, 0}, {4, 1}}, {0.5, 0.5});
  Engine::Options options;
  options.seed = 1;
  std::string image = EncodeSegment(dyn::Bucket({1}, {point}, options));
  const size_t hull_count = kHeaderBytes + 33 + 5 + 2 * 24;
  uint32_t hn;
  std::memcpy(&hn, &image[hull_count], 4);
  ASSERT_EQ(hn, 2u);  // Two locations, both on the hull.
  std::string path = TempPath("segment_big_hull.seg");
  for (uint32_t bad : {3u, 0xffffffffu}) {
    std::string corrupt = image;
    std::memcpy(&corrupt[hull_count], &bad, 4);
    WriteResealed(path, &corrupt);
    std::string error;
    EXPECT_EQ(LoadSegment(path, options, &error), nullptr) << bad;
    EXPECT_EQ(error, "segment: bad hull") << bad;
  }
  std::remove(path.c_str());
}

TEST(StoreSegment, PayloadBytesArePinned) {
  // The segment byte format, pinned: a fixed-seed bucket of each indexed
  // kind must encode to the same payload (CRC32C and size recorded when
  // these constants were set). The kd trees export their layout for
  // encoding; a change to how a tree stores its points must leave these
  // bytes alone, or bump kSegmentVersion and re-record.
  struct Case {
    Family family;
    size_t n;
    uint64_t seed;
    uint32_t crc;
    size_t payload_bytes;
  };
  const Case cases[] = {
      {Family::kDiscrete, 200, 61, 0xb970d66du, 63809},
      {Family::kContinuous, 200, 67, 0xfe8eb1feu, 18079},
  };
  Engine::Options options;
  options.seed = 19;
  for (const Case& c : cases) {
    auto bucket = MakeBucket(c.family, c.n, c.seed, options);
    std::string image = EncodeSegment(*bucket);
    constexpr size_t kHeaderBytes = 24;  // Magic, version, size, two CRCs.
    ASSERT_GT(image.size(), kHeaderBytes);
    size_t payload = image.size() - kHeaderBytes;
    EXPECT_EQ(payload, c.payload_bytes) << static_cast<int>(c.family);
    EXPECT_EQ(util::Crc32c(image.data() + kHeaderBytes, payload), c.crc)
        << static_cast<int>(c.family) << std::hex << " 0x"
        << util::Crc32c(image.data() + kHeaderBytes, payload);
  }
}

}  // namespace
}  // namespace store
}  // namespace pnn
