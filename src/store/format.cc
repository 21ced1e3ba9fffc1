#include "src/store/format.h"

#include <cmath>
#include <utility>
#include <vector>

namespace pnn {
namespace store {

namespace {
constexpr uint8_t kContinuousTag = 0;
constexpr uint8_t kDiscreteTag = 1;
}  // namespace

void EncodePoint(const UncertainPoint& p, std::string* out) {
  if (p.is_discrete()) {
    const DiscreteDistribution& d = p.discrete();
    PutU8(out, kDiscreteTag);
    PutU32(out, static_cast<uint32_t>(d.locations.size()));
    for (size_t i = 0; i < d.locations.size(); ++i) {
      PutF64(out, d.locations[i].x);
      PutF64(out, d.locations[i].y);
      PutF64(out, d.weights[i]);
    }
  } else {
    const DiskDistribution& d = p.disk();
    PutU8(out, kContinuousTag);
    PutF64(out, d.support.center.x);
    PutF64(out, d.support.center.y);
    PutF64(out, d.support.radius);
    PutU8(out, static_cast<uint8_t>(d.pdf));
    PutF64(out, d.sigma);
  }
}

std::optional<UncertainPoint> DecodePoint(Reader* r) {
  uint8_t tag = r->U8();
  if (!r->ok()) return std::nullopt;
  if (tag == kDiscreteTag) {
    uint32_t k = r->U32();
    if (!r->ok() || k == 0 || !r->Fits(k, 24)) return std::nullopt;
    std::vector<Point2> locations(k);
    std::vector<double> weights(k);
    double total = 0.0;
    for (uint32_t i = 0; i < k; ++i) {
      locations[i].x = r->F64();
      locations[i].y = r->F64();
      weights[i] = r->F64();
      if (!std::isfinite(locations[i].x) || !std::isfinite(locations[i].y) ||
          !std::isfinite(weights[i]) || weights[i] <= 0.0) {
        return std::nullopt;
      }
      total += weights[i];
    }
    if (!r->ok() || !(std::abs(total - 1.0) < 5e-7)) return std::nullopt;
    return UncertainPoint::DiscreteFromNormalized(std::move(locations),
                                                  std::move(weights));
  }
  if (tag == kContinuousTag) {
    Point2 center{r->F64(), r->F64()};
    double radius = r->F64();
    uint8_t pdf = r->U8();
    double sigma = r->F64();
    if (!r->ok() || !std::isfinite(center.x) || !std::isfinite(center.y) ||
        !std::isfinite(radius) || radius <= 0.0 || !std::isfinite(sigma)) {
      return std::nullopt;
    }
    if (pdf == static_cast<uint8_t>(DiskPdf::kUniform)) {
      return UncertainPoint::UniformDisk(center, radius);
    }
    if (pdf == static_cast<uint8_t>(DiskPdf::kTruncatedGaussian) && sigma > 0.0) {
      return UncertainPoint::TruncatedGaussian(center, radius, sigma);
    }
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace store
}  // namespace pnn
