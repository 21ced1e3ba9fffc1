#include "src/core/prob/quantify.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "src/util/arena.h"
#include "src/util/check.h"
#include "src/util/simd.h"

namespace pnn {
namespace {

// Below this many touched owners the survival product stays on the exact
// sequential loop (bit-identical to the pre-SIMD code in every dispatch
// mode); at or above it, the gather + simd::Product path takes over and
// the 1e-9 reassociation contract applies.
constexpr size_t kProductKernelMin = 16;

// Adaptive Simpson (shared with uncertain_point.cc's internal copy; small
// enough to keep local).
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
  return SimpsonStep(f, a, b, fa, fm, fb, whole, tol, 32);
}

// Product over owners of survival factors (1 - W_j), maintained under
// updates with exact zero tracking so divisions stay safe.
class SurvivalProduct {
 public:
  explicit SurvivalProduct(size_t n) : factor_(n, 1.0) {}

  // Decreases owner j's survival factor to `value`.
  void Set(size_t j, double value) {
    value = std::max(0.0, value);
    if (IsZero(factor_[j])) {
      --zeros_;
    } else {
      log_prod_ -= std::log(factor_[j]);
    }
    factor_[j] = value;
    if (IsZero(value)) {
      ++zeros_;
    } else {
      log_prod_ += std::log(value);
    }
  }

  double factor(size_t j) const { return factor_[j]; }

  // prod_{j != i} factor_j.
  double ProductExcluding(size_t i) const {
    bool self_zero = IsZero(factor_[i]);
    int other_zeros = zeros_ - (self_zero ? 1 : 0);
    if (other_zeros > 0) return 0.0;
    double lp = log_prod_;  // Excludes zero factors by construction.
    if (!self_zero) lp -= std::log(factor_[i]);
    return std::exp(lp);
  }

 private:
  static bool IsZero(double v) { return v <= 1e-300; }
  std::vector<double> factor_;
  double log_prod_ = 0.0;  // Sum of logs of nonzero factors.
  int zeros_ = 0;
};

struct Loc {
  double dist;
  int owner;
  double weight;
};

std::vector<Quantification> SweepDiscrete(const std::vector<const UncertainPoint*>& points,
                                          Point2 q) {
  size_t n = points.size();
  std::vector<Loc> locs;
  for (size_t i = 0; i < n; ++i) {
    const auto& d = points[i]->discrete();
    for (size_t s = 0; s < d.locations.size(); ++s) {
      locs.push_back({Distance(q, d.locations[s]), static_cast<int>(i), d.weights[s]});
    }
  }
  // Stable, so a distance tie keeps the (owner, slot) order the locations
  // were listed in: the cdf updates and the survival product's log sum run
  // in that order, and the points left out of a candidate list cannot
  // reorder them.
  std::stable_sort(locs.begin(), locs.end(),
                   [](const Loc& a, const Loc& b) { return a.dist < b.dist; });

  std::vector<double> pi(n, 0.0);
  std::vector<double> cum(n, 0.0);  // G_{q,j} accumulated so far.
  std::vector<int> remaining(n, 0);  // Locations of j not yet swept.
  for (const Loc& l : locs) ++remaining[l.owner];
  SurvivalProduct survival(n);

  size_t idx = 0;
  while (idx < locs.size()) {
    // Tie group: all locations at (exactly) this distance. Eq. (2) uses
    // G(r) with <=, so the whole group updates the cdfs first.
    size_t end = idx;
    while (end < locs.size() && locs[end].dist == locs[idx].dist) ++end;
    for (size_t k = idx; k < end; ++k) {
      int o = locs[k].owner;
      cum[o] += locs[k].weight;
      // Once every location of o has been swept, G_{q,o} is exactly 1 and
      // the survival factor exactly 0 — do not leave rounding residue
      // (weights rarely sum to 1.0 in floating point).
      survival.Set(o, --remaining[o] == 0 ? 0.0 : 1.0 - cum[o]);
    }
    for (size_t k = idx; k < end; ++k) {
      pi[locs[k].owner] += locs[k].weight * survival.ProductExcluding(locs[k].owner);
    }
    idx = end;
  }

  std::vector<Quantification> out;
  for (size_t i = 0; i < n; ++i) {
    if (pi[i] > 0) out.push_back({static_cast<int>(i), pi[i]});
  }
  return out;
}

std::vector<Quantification> IntegrateContinuous(
    const std::vector<const UncertainPoint*>& points, Point2 q, double tol) {
  size_t n = points.size();
  double min_max = std::numeric_limits<double>::infinity();
  for (const UncertainPoint* p : points) min_max = std::min(min_max, p->MaxDistance(q));

  std::vector<Quantification> out;
  for (size_t i = 0; i < n; ++i) {
    double lo = points[i]->MinDistance(q);
    double hi = std::min(points[i]->MaxDistance(q), min_max);
    if (lo >= hi) continue;  // pi_i = 0: support starts beyond Delta(q).
    auto integrand = [&](double r) {
      double g = points[i]->DistancePdf(q, r);
      if (g <= 0) return 0.0;
      double prod = 1.0;
      for (size_t j = 0; j < n && prod > 0; ++j) {
        if (j == i) continue;
        prod *= 1.0 - points[j]->DistanceCdf(q, r);
      }
      return g * prod;
    };
    double v = AdaptiveSimpson(integrand, lo, hi, tol / 4);
    if (v > tol) out.push_back({static_cast<int>(i), std::min(v, 1.0)});
  }
  return out;
}

// The set's points by address, each checked to be discrete (or not).
std::vector<const UncertainPoint*> AllPoints(const UncertainSet& points, bool discrete,
                                             const char* message) {
  std::vector<const UncertainPoint*> all;
  all.reserve(points.size());
  for (const UncertainPoint& p : points) {
    PNN_CHECK_MSG(p.is_discrete() == discrete, message);
    all.push_back(&p);
  }
  return all;
}

}  // namespace

std::vector<Quantification> QuantifyExactOver(
    const std::vector<const UncertainPoint*>& points, Point2 q, double tol) {
  if (points.empty()) return {};
  bool discrete = points[0]->is_discrete();
  for (const UncertainPoint* p : points) {
    PNN_CHECK_MSG(p->is_discrete() == discrete,
                  "exact quantification needs all-discrete or all-continuous points");
  }
  return discrete ? SweepDiscrete(points, q) : IntegrateContinuous(points, q, tol);
}

std::vector<Quantification> QuantifyExactDiscrete(const UncertainSet& points,
                                                  Point2 q) {
  return SweepDiscrete(
      AllPoints(points, true, "QuantifyExactDiscrete needs discrete points"), q);
}

std::vector<Quantification> QuantifyNumericContinuous(const UncertainSet& points,
                                                      Point2 q, double tol) {
  return IntegrateContinuous(
      AllPoints(points, false, "QuantifyNumericContinuous needs continuous points"), q,
      tol);
}

std::vector<Quantification> QuantifyPrefixSweep(const std::vector<WeightedLocation>& locs,
                                                const std::vector<int>& counts) {
  std::vector<Quantification> out;
  QuantifyPrefixSweepInto(locs, counts, &out);
  return out;
}

void QuantifyPrefixSweepInto(const std::vector<WeightedLocation>& locs,
                             const std::vector<int>& counts,
                             std::vector<Quantification>* out) {
  // The same tie-grouped sweep as the exact quantifier, restricted to the
  // retrieved prefix. Kept bit-for-bit in sync with its former inline copy
  // in spiral.cc: the dynamic engine merges per-bucket streams into the
  // identical global distance order and must reproduce identical doubles.
  size_t n = counts.size();
  util::ScratchVec<double> pi_lease, cum_lease, survival_lease, gather_lease;
  util::ScratchVec<int> seen_lease, touched_lease;
  std::vector<double>& pi = *pi_lease;
  std::vector<double>& cum = *cum_lease;
  // Survival factors with zero tracking (small n per query: direct scan).
  std::vector<double>& survival = *survival_lease;
  std::vector<double>& gather = *gather_lease;
  std::vector<int>& seen = *seen_lease;
  std::vector<int>& touched = *touched_lease;
  pi.assign(n, 0.0);
  cum.assign(n, 0.0);
  survival.assign(n, 1.0);
  seen.assign(n, 0);
  touched.clear();
  size_t idx = 0;
  while (idx < locs.size()) {
    size_t end = idx;
    while (end < locs.size() && locs[end].dist == locs[idx].dist) ++end;
    for (size_t k = idx; k < end; ++k) {
      int o = locs[k].owner;
      if (cum[o] == 0.0) touched.push_back(o);
      cum[o] += locs[k].weight;
      // Exactly 0 once all of o's locations are retrieved (no rounding
      // residue; see SweepDiscrete above).
      survival[o] = (++seen[o] == counts[o]) ? 0.0 : std::max(0.0, 1.0 - cum[o]);
    }
    for (size_t k = idx; k < end; ++k) {
      int o = locs[k].owner;
      double prod;
      if (touched.size() < kProductKernelMin) {
        // Sequential product: this is the bit-exact historical path, kept
        // for the short prefixes where kernel setup outweighs the scan.
        prod = 1.0;
        for (int j : touched) {
          if (j == o) continue;
          prod *= survival[j];
          if (prod == 0.0) break;
        }
      } else {
        // Gather the touched survivals (skipping the owner) into a dense
        // SoA buffer and let the product kernel reduce it. The kernel may
        // reassociate — the 1e-9 differential contract in docs/simd.md;
        // dropping the early zero-exit is value-neutral (factors live in
        // [0, 1], and 0 annihilates exactly).
        gather.clear();
        for (int j : touched) {
          if (j != o) gather.push_back(survival[j]);
        }
        prod = simd::Product(gather.data(), gather.size());
      }
      pi[o] += locs[k].weight * prod;
    }
    idx = end;
  }

  out->clear();
  for (int o : touched) {
    if (pi[o] > 0) out->push_back({o, pi[o]});
  }
  std::sort(out->begin(), out->end(),
            [](const Quantification& a, const Quantification& b) {
              return a.index < b.index;
            });
}

std::vector<Quantification> ThresholdFilter(const std::vector<Quantification>& all,
                                            double tau) {
  std::vector<Quantification> out;
  for (const auto& e : all) {
    if (e.probability > tau) out.push_back(e);
  }
  return out;
}

int MostLikelyNN(const std::vector<Quantification>& all) {
  int best = -1;
  double bp = -1.0;
  for (const auto& e : all) {
    if (e.probability > bp) {
      bp = e.probability;
      best = e.index;
    }
  }
  return best;
}

}  // namespace pnn
