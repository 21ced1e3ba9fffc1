// The uncertain-point model of Section 1.1 of the paper.
//
// An uncertain point is a probability distribution over locations in the
// plane, either continuous (pdf supported on a disk — uniform or truncated
// Gaussian) or discrete (k locations with positive weights summing to 1).
// The model exposes everything the paper's algorithms consume:
//   * support extremes delta_i(q) = min / Delta_i(q) = max distance,
//   * the distance cdf G_{q,i}(r) = Pr[d(q, P_i) <= r] and its density,
//   * random instantiation,
//   * expected distance (the AESZ12 "Uncertainty I" baseline definition).

#ifndef PNN_UNCERTAIN_UNCERTAIN_POINT_H_
#define PNN_UNCERTAIN_UNCERTAIN_POINT_H_

#include <vector>

#include "src/geometry/box2.h"
#include "src/geometry/circle.h"
#include "src/geometry/point2.h"
#include "src/util/rng.h"

namespace pnn {

/// Continuous pdf family supported on a disk.
enum class DiskPdf {
  kUniform,
  kTruncatedGaussian,  // Centered at the disk center, truncated at radius.
};

/// Discrete distribution: locations with matching positive weights.
struct DiscreteDistribution {
  std::vector<Point2> locations;
  std::vector<double> weights;       // Sum to 1 (validated on construction).
  std::vector<double> cumulative;    // Prefix sums, for O(log k) sampling.
};

/// Continuous distribution on a disk support.
struct DiskDistribution {
  Circle support;
  DiskPdf pdf = DiskPdf::kUniform;
  double sigma = 1.0;  // Std-dev for kTruncatedGaussian; ignored otherwise.
};

/// An uncertain point (locational model): a distribution over R^2.
class UncertainPoint {
 public:
  /// Uniform distribution over a disk.
  static UncertainPoint UniformDisk(Point2 center, double radius);

  /// Gaussian with std-dev sigma centered at `center`, truncated to the
  /// disk of the given radius (as in [BSI08, CCMC08]).
  static UncertainPoint TruncatedGaussian(Point2 center, double radius, double sigma);

  /// Discrete distribution; weights must be positive and sum to 1 within
  /// numerical tolerance (they are renormalized exactly).
  static UncertainPoint Discrete(std::vector<Point2> locations,
                                 std::vector<double> weights);

  /// Rehydration form for already-normalized weights (the durable store's
  /// recovery path): Discrete() divides every weight by the observed sum,
  /// so feeding a point's own weights back through it would perturb their
  /// low bits and break the store's bit-identity contract. This factory
  /// trusts the weights verbatim and rebuilds the cumulative table with
  /// the same accumulation loop, so a serialize/rehydrate round trip is
  /// exact. Weights must be positive and sum to 1 within 5e-7 (checked), the
  /// tolerance store::DecodePoint applies.
  static UncertainPoint DiscreteFromNormalized(std::vector<Point2> locations,
                                               std::vector<double> weights);

  bool is_discrete() const { return is_discrete_; }
  const DiskDistribution& disk() const;
  const DiscreteDistribution& discrete() const;

  /// Number of locations (discrete) or 0 (continuous).
  size_t DescriptionComplexity() const {
    return is_discrete_ ? discrete_.locations.size() : 0;
  }

  /// delta_i(q): minimum possible distance from q to this point.
  double MinDistance(Point2 q) const;

  /// Delta_i(q): maximum possible distance from q to this point.
  double MaxDistance(Point2 q) const;

  /// G_{q,i}(r) = Pr[d(q, P_i) <= r]. Exact closed form for uniform disks
  /// and discrete distributions; adaptive quadrature for the truncated
  /// Gaussian (absolute error < 1e-10).
  double DistanceCdf(Point2 q, double r) const;

  /// g_{q,i}(r), the density of d(q, P_i). For discrete distributions the
  /// density is a sum of Dirac masses; this returns 0 (use DistanceCdf).
  double DistancePdf(Point2 q, double r) const;

  /// Draws a random location according to the distribution: one uniform
  /// for a discrete point, two for a disk. Instantiated for Rng and
  /// StreamRng (uncertain_point.cc).
  template <typename Gen>
  Point2 Sample(Gen* rng) const;

  /// E[d(q, P_i)] — the expected-distance semantics of [AESZ12]. Exact for
  /// discrete; quadrature for continuous pdfs.
  double ExpectedDistance(Point2 q) const;

  /// Tight bounding box of the support.
  Box2 Bounds() const;

  /// A representative central location (disk center / weighted centroid).
  Point2 Centroid() const;

 private:
  UncertainPoint() = default;

  bool is_discrete_ = false;
  DiskDistribution disk_;
  DiscreteDistribution discrete_;
};

/// Convenience alias: an input instance is a vector of uncertain points.
using UncertainSet = std::vector<UncertainPoint>;

/// Aggregates of a point set from one scan in index order: the inputs of
/// the plan and round-count rules. EngineBuilder derives them while it
/// scans; dyn::Snapshot carries the same values for its live set.
struct SetAggregates {
  size_t live_count = 0;  // Points in the set (all of a static engine's).
  size_t discrete_count = 0;
  size_t continuous_count = 0;
  size_t total_complexity = 0;  // Sum of description complexities.
  size_t max_k = 1;             // max over the points of max(k, 1).
  // Location-weight spread with SpiralSearchPNN's seeding (wmin clamped
  // to <= 1, wmax seeded 0), so rho() is the spiral structure's rho.
  double wmin = 1.0;
  double wmax = 0.0;

  void Add(const UncertainPoint& p);
  bool all_discrete() const { return live_count > 0 && continuous_count == 0; }
  bool all_continuous() const { return live_count > 0 && discrete_count == 0; }
  double rho() const { return wmax / wmin; }
};

/// Lemma 2.1 brute force: returns indices i with
/// delta_i(q) < min_j Delta_j(q); the ground truth for NN!=0 queries.
std::vector<int> NonzeroNNBruteForce(const UncertainSet& points, Point2 q);

/// Section 4.2, continuous case: approximates each continuous point by a
/// uniform discrete distribution over `samples_per_point` random draws
/// (the paper's bar-P). By Lemma 4.4, quantification probabilities over
/// the result differ from the originals by at most alpha * n where alpha
/// is the cdf sampling error ~ sqrt(log(1/delta') / samples). Discrete
/// inputs are passed through unchanged.
UncertainSet DiscretizeContinuous(const UncertainSet& points, size_t samples_per_point,
                                  Rng* rng);

/// The per-point sample count k(alpha) = (c / alpha^2) log(1 / delta')
/// from Section 4.2 (c = 1/2, the Dvoretzky–Kiefer–Wolfowitz constant).
size_t DiscretizationSamples(double alpha, double delta_prime);

}  // namespace pnn

#endif  // PNN_UNCERTAIN_UNCERTAIN_POINT_H_
