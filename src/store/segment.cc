#include "src/store/segment.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "src/store/format.h"
#include "src/store/io.h"
#include "src/util/check.h"
#include "src/util/crc32.h"

namespace pnn {
namespace store {

namespace {

// File = 24-byte header + payload.  Header: magic, version, payload size,
// payload CRC, then a CRC over the preceding 20 header bytes (so a torn or
// overwritten header is caught before the payload size is trusted).
constexpr uint32_t kSegmentMagic = 0x47455350;  // "PSEG", little-endian.
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kHeaderBytes = 24;

// --- KdTree layout blob ---------------------------------------------------

// Point2 and Node bulk transfers assume the in-memory layout equals the
// wire layout (the wire writes each Node as box.{xmin,ymin,xmax,ymax},
// left, right, begin, end, min_w, max_w — the declaration order). These
// asserts pin that; a platform where they fail needs the scalar paths.
static_assert(sizeof(Point2) == 16, "Point2 must be two packed doubles");
static_assert(sizeof(KdTree::Node) == 64 &&
                  offsetof(KdTree::Node, left) == 32 &&
                  offsetof(KdTree::Node, min_w) == 48,
              "KdTree::Node layout must match the segment wire format");
static_assert(sizeof(int) == 4, "order entries encode as I32");

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
constexpr bool kBulkNodeTransfer = true;
#else
constexpr bool kBulkNodeTransfer = false;
#endif

void EncodeKdBlob(const KdTree& tree, std::string* out) {
  const size_t n = tree.size();
  PutU64(out, n);
  // The blob stores points in index order; the tree keeps them only in
  // leaf order, and points() scatters them back.
  const std::vector<Point2> points = tree.points();
  PutF64Array(out, reinterpret_cast<const double*>(points.data()), 2 * n);
  // The discrete trees are unweighted (every weight 0): flag 0, no array;
  // adoption of an empty weight array gives the same unweighted tree.
  PutU8(out, tree.weighted() ? 1 : 0);
  if (tree.weighted()) PutF64Array(out, tree.weights().data(), n);
  PutI32Array(out, tree.order().data(), tree.order().size());
  PutU64(out, tree.nodes().size());
  if (kBulkNodeTransfer) {
    out->append(reinterpret_cast<const char*>(tree.nodes().data()),
                tree.nodes().size() * sizeof(KdTree::Node));
  } else {
    for (const KdTree::Node& nd : tree.nodes()) {
      PutF64(out, nd.box.xmin);
      PutF64(out, nd.box.ymin);
      PutF64(out, nd.box.xmax);
      PutF64(out, nd.box.ymax);
      PutI32(out, nd.left);
      PutI32(out, nd.right);
      PutI32(out, nd.begin);
      PutI32(out, nd.end);
      PutF64(out, nd.min_w);
      PutF64(out, nd.max_w);
    }
  }
  PutI32(out, tree.root());
  PutU8(out, static_cast<uint8_t>(tree.metric()));
}

struct KdBlob {
  std::vector<Point2> points;
  std::vector<double> weights;
  std::vector<int> order;
  std::vector<KdTree::Node> nodes;
  int root = -1;
  Metric metric = Metric::kEuclidean;

  KdTree AdoptMove() {
    return KdTree(std::move(points), std::move(weights), metric, std::move(order),
                  std::move(nodes), root);
  }
};

bool DecodeKdBlob(Reader* r, KdBlob* out) {
  uint64_t n = r->U64();
  if (!r->ok() || !r->Fits(n, 16)) return false;
  out->points.resize(n);
  if (!r->F64Array(reinterpret_cast<double*>(out->points.data()), 2 * n)) {
    return false;
  }
  uint8_t has_weights = r->U8();
  if (!r->ok() || has_weights > 1) return false;
  if (has_weights) {
    if (!r->Fits(n, 8)) return false;
    out->weights.resize(n);
    if (!r->F64Array(out->weights.data(), n)) return false;
  }
  if (!r->Fits(n, 4)) return false;
  out->order.resize(n);
  if (!r->I32Array(out->order.data(), n)) return false;
  uint64_t node_count = r->U64();
  if (!r->ok() || !r->Fits(node_count, 64)) return false;
  out->nodes.resize(node_count);
  if (kBulkNodeTransfer) {
    if (!r->Raw(out->nodes.data(), node_count * sizeof(KdTree::Node))) {
      return false;
    }
  } else {
    for (uint64_t i = 0; i < node_count; ++i) {
      KdTree::Node& nd = out->nodes[i];
      nd.box.xmin = r->F64();
      nd.box.ymin = r->F64();
      nd.box.xmax = r->F64();
      nd.box.ymax = r->F64();
      nd.left = r->I32();
      nd.right = r->I32();
      nd.begin = r->I32();
      nd.end = r->I32();
      nd.min_w = r->F64();
      nd.max_w = r->F64();
    }
  }
  out->root = r->I32();
  uint8_t metric = r->U8();
  if (!r->ok() || metric > static_cast<uint8_t>(Metric::kChebyshev)) return false;
  out->metric = static_cast<Metric>(metric);
  return true;
}

bool Fail(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

std::string EncodeSegment(const dyn::Bucket& bucket) {
  const Engine& e = bucket.engine();
  const UncertainSet& points = e.points();
  std::string payload;
  PutU64(&payload, points.size());
  PutU64(&payload, e.options().seed);
  uint8_t flags = (e.all_discrete() ? 1 : 0) | (e.all_continuous() ? 2 : 0);
  PutU8(&payload, flags);
  PutU64(&payload, e.total_complexity());
  for (size_t j = 0; j < bucket.size(); ++j) PutI64(&payload, bucket.id(j));
  for (const UncertainPoint& p : points) EncodePoint(p, &payload);
  if (e.all_continuous()) {
    EncodeKdBlob(e.disk_index()->tree(), &payload);
  } else if (e.all_discrete()) {
    const DiscreteNonzeroNNIndex& idx = *e.discrete_index();
    const std::vector<int>& hull_begin = idx.hull_begin();
    for (size_t i = 0; i < points.size(); ++i) {
      const size_t hn = hull_begin[i + 1] - hull_begin[i];
      PutU32(&payload, static_cast<uint32_t>(hn));
      PutF64Array(&payload,
                  reinterpret_cast<const double*>(idx.hull_points().data() +
                                                  hull_begin[i]),
                  2 * hn);
    }
    EncodeKdBlob(idx.centroid_tree(), &payload);
    // One location tree serves the discrete index and the spiral index:
    // serialized once, adopted once on load and shared again.
    EncodeKdBlob(idx.location_tree(), &payload);
  }
  // Mixed buckets carry no indexes (queries brute-force), so no blobs.

  std::string file;
  file.reserve(kHeaderBytes + payload.size());
  PutU32(&file, kSegmentMagic);
  PutU32(&file, kSegmentVersion);
  PutU64(&file, payload.size());
  PutU32(&file, util::Crc32c(payload.data(), payload.size()));
  PutU32(&file, util::Crc32c(file.data(), file.size()));
  file += payload;
  return file;
}

util::Status WriteSegmentFile(const std::string& path, const dyn::Bucket& bucket) {
  std::string image = EncodeSegment(bucket);
  util::StatusOr<File> f = File::Create(path);
  if (!f.ok()) return f.status();
  PNN_RETURN_IF_ERROR(f->Append(image.data(), image.size()));
  return f->Sync();
}

std::shared_ptr<const dyn::Bucket> LoadSegment(const std::string& path,
                                               const Engine::Options& engine_options,
                                               std::string* error) {
  MappedFile m;
  if (!m.Map(path)) {
    Fail(error, "segment: missing or unmappable file");
    return nullptr;
  }
  if (m.size() < kHeaderBytes) {
    Fail(error, "segment: file shorter than header");
    return nullptr;
  }
  Reader header(m.data(), kHeaderBytes);
  uint32_t magic = header.U32();
  uint32_t version = header.U32();
  uint64_t payload_size = header.U64();
  uint32_t payload_crc = header.U32();
  uint32_t header_crc = header.U32();
  if (magic != kSegmentMagic) {
    Fail(error, "segment: bad magic");
    return nullptr;
  }
  if (version != kSegmentVersion) {
    Fail(error, "segment: unsupported version");
    return nullptr;
  }
  if (header_crc != util::Crc32c(m.data(), kHeaderBytes - 4)) {
    Fail(error, "segment: header checksum mismatch");
    return nullptr;
  }
  if (payload_size != m.size() - kHeaderBytes) {
    Fail(error, "segment: payload size mismatch");
    return nullptr;
  }
  const uint8_t* payload = m.data() + kHeaderBytes;
  if (payload_crc != util::Crc32c(payload, payload_size)) {
    Fail(error, "segment: payload checksum mismatch");
    return nullptr;
  }

  // Past this point the bytes are exactly what the writer produced; any
  // structural violation is a writer bug, so decode failures still return
  // an error (defense in depth) but consistency is CHECKed by the adoption
  // constructors downstream.
  Reader r(payload, payload_size);
  uint64_t n = r.U64();
  uint64_t stored_seed = r.U64();
  uint8_t flags = r.U8();
  uint64_t total_complexity = r.U64();
  if (!r.ok() || n == 0 || flags > 2) {
    Fail(error, "segment: bad preamble");
    return nullptr;
  }
  if (stored_seed != engine_options.seed) {
    Fail(error, "segment: engine seed mismatch");
    return nullptr;
  }
  const bool all_discrete = (flags & 1) != 0;
  const bool all_continuous = (flags & 2) != 0;
  if (!r.Fits(n, 8)) {
    Fail(error, "segment: truncated ids");
    return nullptr;
  }
  std::vector<dyn::Id> ids(n);
  for (uint64_t i = 0; i < n; ++i) {
    int64_t id = r.I64();
    // INT32_MAX is never assigned: it would leave no next id.
    if (id < 0 || id >= INT32_MAX || (i > 0 && id <= ids[i - 1])) {
      Fail(error, "segment: ids not ascending in [0, INT32_MAX)");
      return nullptr;
    }
    ids[i] = static_cast<dyn::Id>(id);
  }
  UncertainSet points;
  points.reserve(n);
  SetAggregates agg;
  for (uint64_t i = 0; i < n; ++i) {
    std::optional<UncertainPoint> p = DecodePoint(&r);
    if (!p.has_value()) {
      Fail(error, "segment: bad point encoding");
      return nullptr;
    }
    agg.Add(*p);
    points.push_back(std::move(*p));
  }
  // The flags must describe the points: a flagged-uniform segment is
  // uniform, and a mixed one (flags == 0) holds both kinds.
  if (agg.all_discrete() != all_discrete || agg.all_continuous() != all_continuous) {
    Fail(error, "segment: point kind contradicts flags");
    return nullptr;
  }
  if (agg.total_complexity != total_complexity) {
    Fail(error, "segment: complexity mismatch");
    return nullptr;
  }

  Engine::Layouts layouts;
  if (all_continuous) {
    KdBlob disk;
    if (!DecodeKdBlob(&r, &disk) || disk.points.size() != n) {
      Fail(error, "segment: bad disk-index blob");
      return nullptr;
    }
    layouts.disk_tree = disk.AdoptMove();
  } else if (all_discrete) {
    // A hull has at most its point's locations (a larger count is
    // refused), so the vertices never outgrow the total_complexity reserve.
    std::vector<Point2>& hull_points = layouts.hull_points;
    std::vector<int>& hull_begin = layouts.hull_begin;
    hull_points.reserve(total_complexity);
    hull_begin.reserve(n + 1);
    hull_begin.push_back(0);
    for (uint64_t i = 0; i < n; ++i) {
      uint32_t hn = r.U32();
      if (!r.ok() || hn == 0 || hn > points[i].discrete().locations.size() ||
          !r.Fits(hn, 16)) {
        Fail(error, "segment: bad hull");
        return nullptr;
      }
      const size_t at = hull_points.size();
      hull_points.resize(at + hn);
      if (!r.F64Array(reinterpret_cast<double*>(hull_points.data() + at), 2 * hn)) {
        Fail(error, "segment: bad hull");
        return nullptr;
      }
      hull_begin.push_back(static_cast<int>(hull_points.size()));
    }
    KdBlob centroid, location;
    if (!DecodeKdBlob(&r, &centroid) || centroid.points.size() != n ||
        !DecodeKdBlob(&r, &location) ||
        location.points.size() != total_complexity) {
      Fail(error, "segment: bad discrete kd blobs");
      return nullptr;
    }
    // The location tree is written unweighted and Euclidean; the discrete
    // index refuses any other (its stage-2 report reads no weights).
    if (!location.weights.empty() || location.metric != Metric::kEuclidean) {
      Fail(error, "segment: location blob is weighted or not Euclidean");
      return nullptr;
    }
    // Owners, weights and counts are not stored: the Engine constructor
    // gathers them from the points as a build does.
    layouts.centroid_tree = centroid.AdoptMove();
    layouts.location_tree = location.AdoptMove();
  }
  if (r.remaining() != 0 || !r.ok()) {
    Fail(error, "segment: trailing or missing payload bytes");
    return nullptr;
  }

  Engine::Options options = engine_options;
  options.mc_stream_ids.assign(ids.begin(), ids.end());  // Buckets sample by id.
  return std::make_shared<dyn::Bucket>(std::make_shared<const Engine>(
      std::move(points), std::move(options), std::move(layouts)));
}

}  // namespace store
}  // namespace pnn
