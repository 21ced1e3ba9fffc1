#include "src/uncertain/uncertain_point.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "src/util/check.h"

namespace pnn {
namespace {

// Adaptive Simpson quadrature with absolute-error control.
double SimpsonStep(const std::function<double(double)>& f, double a, double b,
                   double fa, double fm, double fb, double whole, double tol,
                   int depth) {
  double m = 0.5 * (a + b);
  double lm = 0.5 * (a + m), rm = 0.5 * (m + b);
  double flm = f(lm), frm = f(rm);
  double left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
  double right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
  if (depth <= 0 || std::abs(left + right - whole) <= 15.0 * tol) {
    return left + right + (left + right - whole) / 15.0;
  }
  return SimpsonStep(f, a, m, fa, flm, fm, left, tol / 2, depth - 1) +
         SimpsonStep(f, m, b, fm, frm, fb, right, tol / 2, depth - 1);
}

double AdaptiveSimpson(const std::function<double(double)>& f, double a, double b,
                       double tol) {
  if (a >= b) return 0.0;
  double m = 0.5 * (a + b);
  double fa = f(a), fm = f(m), fb = f(b);
  double whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
  return SimpsonStep(f, a, b, fa, fm, fb, whole, tol, 40);
}

// Angular half-width of the arc of the circle of radius rho centered at c
// lying inside the disk of radius r centered at q, where d = |q - c|.
// Returns a value in [0, pi].
double ArcHalfAngle(double d, double rho, double r) {
  if (rho <= 0) return (d <= r) ? M_PI : 0.0;
  if (d + rho <= r) return M_PI;            // Entirely inside.
  if (std::abs(d - rho) >= r) return 0.0;   // Entirely outside.
  double cosv = (d * d + rho * rho - r * r) / (2.0 * d * rho);
  return std::acos(std::clamp(cosv, -1.0, 1.0));
}

bool Finite(Point2 p) { return std::isfinite(p.x) && std::isfinite(p.y); }

// The checks both discrete factories share; returns the weight sum.
double CheckedWeightTotal(const std::vector<Point2>& locations,
                          const std::vector<double>& weights) {
  PNN_CHECK_MSG(!locations.empty(), "discrete distribution needs >= 1 location");
  PNN_CHECK_MSG(locations.size() == weights.size(), "locations/weights size mismatch");
  double total = 0.0;
  for (size_t i = 0; i < locations.size(); ++i) {
    PNN_CHECK_MSG(Finite(locations[i]), "locations must be finite");
    PNN_CHECK_MSG(weights[i] > 0, "location probabilities must be positive");
    total += weights[i];
  }
  return total;
}

}  // namespace

UncertainPoint UncertainPoint::UniformDisk(Point2 center, double radius) {
  PNN_CHECK_MSG(radius > 0, "uniform disk radius must be positive");
  PNN_CHECK_MSG(Finite(center) && std::isfinite(radius), "disk must be finite");
  UncertainPoint p;
  p.is_discrete_ = false;
  p.disk_ = {{center, radius}, DiskPdf::kUniform, 0.0};
  return p;
}

UncertainPoint UncertainPoint::TruncatedGaussian(Point2 center, double radius,
                                                 double sigma) {
  PNN_CHECK_MSG(radius > 0 && sigma > 0, "radius and sigma must be positive");
  PNN_CHECK_MSG(Finite(center) && std::isfinite(radius) && std::isfinite(sigma),
                "disk must be finite");
  UncertainPoint p;
  p.is_discrete_ = false;
  p.disk_ = {{center, radius}, DiskPdf::kTruncatedGaussian, sigma};
  return p;
}

UncertainPoint UncertainPoint::Discrete(std::vector<Point2> locations,
                                        std::vector<double> weights) {
  double total = CheckedWeightTotal(locations, weights);
  PNN_CHECK_MSG(std::abs(total - 1.0) < 1e-6, "location probabilities must sum to 1");
  UncertainPoint p;
  p.is_discrete_ = true;
  p.discrete_.locations = std::move(locations);
  p.discrete_.weights = std::move(weights);
  p.discrete_.cumulative.resize(p.discrete_.weights.size());
  double acc = 0.0;
  for (size_t i = 0; i < p.discrete_.weights.size(); ++i) {
    p.discrete_.weights[i] /= total;  // Renormalize exactly.
    acc += p.discrete_.weights[i];
    p.discrete_.cumulative[i] = acc;
  }
  p.discrete_.cumulative.back() = 1.0;
  return p;
}

UncertainPoint UncertainPoint::DiscreteFromNormalized(std::vector<Point2> locations,
                                                      std::vector<double> weights) {
  double total = CheckedWeightTotal(locations, weights);
  PNN_CHECK_MSG(std::abs(total - 1.0) < 5e-7, "location probabilities must sum to 1");
  UncertainPoint p;
  p.is_discrete_ = true;
  p.discrete_.locations = std::move(locations);
  p.discrete_.weights = std::move(weights);
  p.discrete_.cumulative.resize(p.discrete_.weights.size());
  // Same accumulation as Discrete() minus the renormalizing division:
  // applied to weights Discrete() produced, this regenerates the exact
  // cumulative table it built.
  double acc = 0.0;
  for (size_t i = 0; i < p.discrete_.weights.size(); ++i) {
    acc += p.discrete_.weights[i];
    p.discrete_.cumulative[i] = acc;
  }
  p.discrete_.cumulative.back() = 1.0;
  return p;
}

const DiskDistribution& UncertainPoint::disk() const {
  PNN_CHECK(!is_discrete_);
  return disk_;
}

const DiscreteDistribution& UncertainPoint::discrete() const {
  PNN_CHECK(is_discrete_);
  return discrete_;
}

double UncertainPoint::MinDistance(Point2 q) const {
  if (is_discrete_) {
    double best = std::numeric_limits<double>::infinity();
    for (Point2 p : discrete_.locations) best = std::min(best, Distance(q, p));
    return best;
  }
  return std::max(0.0, Distance(q, disk_.support.center) - disk_.support.radius);
}

double UncertainPoint::MaxDistance(Point2 q) const {
  if (is_discrete_) {
    double best = 0.0;
    for (Point2 p : discrete_.locations) best = std::max(best, Distance(q, p));
    return best;
  }
  return Distance(q, disk_.support.center) + disk_.support.radius;
}

double UncertainPoint::DistanceCdf(Point2 q, double r) const {
  if (r < 0) return 0.0;
  if (is_discrete_) {
    double sum = 0.0;
    for (size_t i = 0; i < discrete_.locations.size(); ++i) {
      if (Distance(q, discrete_.locations[i]) <= r) sum += discrete_.weights[i];
    }
    return sum;
  }
  const Circle& s = disk_.support;
  if (disk_.pdf == DiskPdf::kUniform) {
    double lens = DiskIntersectionArea({q, r}, s);
    return std::clamp(lens / (M_PI * s.radius * s.radius), 0.0, 1.0);
  }
  // Truncated Gaussian: polar integration around the support center. For
  // radius rho in [0, R] the circle of radius rho contributes its angular
  // overlap with the query disk, weighted by the radial density.
  double d = Distance(q, s.center);
  double sg2 = 2.0 * disk_.sigma * disk_.sigma;
  double zr = -std::expm1(-s.radius * s.radius / sg2);  // 1 - exp(-R^2/sg2).
  if (zr < 1e-12) {
    // sigma >> R: the truncated Gaussian degenerates to the uniform disk.
    double lens = DiskIntersectionArea({q, r}, s);
    return lens / (M_PI * s.radius * s.radius);
  }
  double z = 2.0 * M_PI * disk_.sigma * disk_.sigma * zr;  // Total mass.
  // Circles of radius rho <= r - d lie entirely in the query disk.
  double full_to = std::clamp(r - d, 0.0, s.radius);
  double mass = 0.0;
  if (full_to > 0) {
    mass +=
        2.0 * M_PI * disk_.sigma * disk_.sigma * -std::expm1(-full_to * full_to / sg2);
  }
  // Circles with |d - rho| < r are partially covered.
  double lo = std::max(std::abs(d - r), full_to);
  double hi = std::min(s.radius, d + r);
  if (lo < hi) {
    auto integrand = [&](double rho) {
      return rho * std::exp(-rho * rho / sg2) * 2.0 * ArcHalfAngle(d, rho, r);
    };
    mass += AdaptiveSimpson(integrand, lo, hi, 1e-12 * z);
  }
  return std::clamp(mass / z, 0.0, 1.0);
}

double UncertainPoint::DistancePdf(Point2 q, double r) const {
  if (is_discrete_ || r <= 0) return 0.0;
  const Circle& s = disk_.support;
  double d = Distance(q, s.center);
  double alpha = ArcHalfAngle(d, r, s.radius);  // Arc of circle(q,r) inside support.
  if (alpha <= 0) return 0.0;
  if (disk_.pdf == DiskPdf::kUniform) {
    return 2.0 * alpha * r / (M_PI * s.radius * s.radius);
  }
  // Truncated Gaussian: line integral of the pdf along the arc.
  double sg2 = 2.0 * disk_.sigma * disk_.sigma;
  double z = 2.0 * M_PI * disk_.sigma * disk_.sigma *
             (1.0 - std::exp(-s.radius * s.radius / sg2));
  if (z <= 0) return 0.0;
  auto integrand = [&](double theta) {
    double dist2 = d * d + r * r - 2.0 * d * r * std::cos(theta);
    return std::exp(-dist2 / sg2);
  };
  // The arc spans theta in [-alpha, alpha] around the direction from q
  // towards the support center (theta measured at q).
  double integral = (d == 0.0) ? 2.0 * M_PI * std::exp(-r * r / sg2)
                               : 2.0 * AdaptiveSimpson(integrand, 0.0, alpha, 1e-12);
  return r * integral / z;
}

template <typename Gen>
Point2 UncertainPoint::Sample(Gen* rng) const {
  if (is_discrete_) {
    double u = rng->Uniform(0.0, 1.0);
    const auto& cum = discrete_.cumulative;
    size_t idx = std::lower_bound(cum.begin(), cum.end(), u) - cum.begin();
    if (idx >= cum.size()) idx = cum.size() - 1;
    return discrete_.locations[idx];
  }
  const Circle& s = disk_.support;
  if (disk_.pdf == DiskPdf::kUniform) {
    double rho = s.radius * std::sqrt(rng->Uniform(0.0, 1.0));
    double theta = rng->Uniform(0.0, 2.0 * M_PI);
    return s.center + rho * UnitVector(theta);
  }
  // Truncated Gaussian: the radial cdf inverts in closed form.
  double sg2 = 2.0 * disk_.sigma * disk_.sigma;
  double z = 1.0 - std::exp(-s.radius * s.radius / sg2);
  double u = rng->Uniform(0.0, 1.0);
  double rho = std::sqrt(-sg2 * std::log1p(-u * z));
  rho = std::min(rho, s.radius);
  double theta = rng->Uniform(0.0, 2.0 * M_PI);
  return s.center + rho * UnitVector(theta);
}

template Point2 UncertainPoint::Sample(Rng* rng) const;
template Point2 UncertainPoint::Sample(StreamRng* rng) const;

double UncertainPoint::ExpectedDistance(Point2 q) const {
  if (is_discrete_) {
    double e = 0.0;
    for (size_t i = 0; i < discrete_.locations.size(); ++i) {
      e += discrete_.weights[i] * Distance(q, discrete_.locations[i]);
    }
    return e;
  }
  // E[d] = integral of (1 - G(r)) dr over [delta, Delta] plus delta.
  double lo = MinDistance(q), hi = MaxDistance(q);
  auto integrand = [&](double r) { return 1.0 - DistanceCdf(q, r); };
  return lo + AdaptiveSimpson(integrand, lo, hi, 1e-10);
}

Box2 UncertainPoint::Bounds() const {
  Box2 b;
  if (is_discrete_) {
    for (Point2 p : discrete_.locations) b.Expand(p);
  } else {
    b.Expand(Point2{disk_.support.center.x - disk_.support.radius,
                    disk_.support.center.y - disk_.support.radius});
    b.Expand(Point2{disk_.support.center.x + disk_.support.radius,
                    disk_.support.center.y + disk_.support.radius});
  }
  return b;
}

Point2 UncertainPoint::Centroid() const {
  if (!is_discrete_) return disk_.support.center;
  Point2 c{0, 0};
  for (size_t i = 0; i < discrete_.locations.size(); ++i) {
    c = c + discrete_.weights[i] * discrete_.locations[i];
  }
  return c;
}

UncertainSet DiscretizeContinuous(const UncertainSet& points, size_t samples_per_point,
                                  Rng* rng) {
  PNN_CHECK(samples_per_point >= 1);
  UncertainSet out;
  out.reserve(points.size());
  for (const auto& p : points) {
    if (p.is_discrete()) {
      out.push_back(p);
      continue;
    }
    std::vector<Point2> locs(samples_per_point);
    for (auto& l : locs) l = p.Sample(rng);
    std::vector<double> w(samples_per_point, 1.0 / samples_per_point);
    out.push_back(UncertainPoint::Discrete(std::move(locs), std::move(w)));
  }
  return out;
}

size_t DiscretizationSamples(double alpha, double delta_prime) {
  PNN_CHECK(alpha > 0 && alpha < 1 && delta_prime > 0 && delta_prime < 1);
  return static_cast<size_t>(
      std::ceil(std::log(2.0 / delta_prime) / (2.0 * alpha * alpha)));
}

void SetAggregates::Add(const UncertainPoint& p) {
  ++live_count;
  size_t k = p.DescriptionComplexity();
  total_complexity += k;
  max_k = std::max(max_k, std::max<size_t>(k, 1));
  if (!p.is_discrete()) {
    ++continuous_count;
    return;
  }
  ++discrete_count;
  for (double w : p.discrete().weights) {
    wmin = std::min(wmin, w);
    wmax = std::max(wmax, w);
  }
}

std::vector<int> NonzeroNNBruteForce(const UncertainSet& points, Point2 q) {
  double min_max = std::numeric_limits<double>::infinity();
  for (const auto& p : points) min_max = std::min(min_max, p.MaxDistance(q));
  std::vector<int> out;
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].MinDistance(q) < min_max) out.push_back(static_cast<int>(i));
  }
  return out;
}

}  // namespace pnn
