// Seeded pseudo-random number generation used by workload generators,
// samplers and the Monte-Carlo quantifier. Every randomized component
// takes an explicit seed and results are reproducible.
//
// Two engines sit behind one thin wrapper, BasicRng:
//   * Rng (std::mt19937_64) for long sequential streams — workload
//     generators, Delaunay's insertion order, fault schedules.
//   * StreamRng (SplitMix64) for the Monte-Carlo quantifier's
//     per-(round, id) streams. Each of those streams yields one or two
//     uniforms (one UncertainPoint::Sample), so seeding cost is the whole
//     cost: mt19937_64 seeds a 312-word state and twists it before the
//     first draw, SplitMix64 stores the seed as its single word of state.

#ifndef PNN_UTIL_RNG_H_
#define PNN_UTIL_RNG_H_

#include <cstdint>
#include <random>

namespace pnn {

/// SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014) as a UniformRandomBitGenerator: a Weyl
/// sequence with golden-ratio increment passed through a 64-bit finalizer.
/// One word of state, no warm-up, and it passes BigCrush.
class SplitMix64 {
 public:
  using result_type = uint64_t;

  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return Mix(state_ += kGamma); }

  /// The output finalizer (a bijection on 64-bit words).
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  static constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ull;

 private:
  uint64_t state_;
};

/// Deterministic random source over a 64-bit UniformRandomBitGenerator.
/// Every randomized algorithm in the library receives one of these
/// explicitly; there is no hidden global state.
template <typename Engine>
class BasicRng {
 public:
  explicit BasicRng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal deviate.
  double Gaussian() { return std::normal_distribution<double>(0.0, 1.0)(engine_); }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Derives an independent child generator; useful for splitting one seed
  /// across parallel components without correlation.
  BasicRng Fork() { return BasicRng(engine_()); }

  Engine& engine() { return engine_; }

 private:
  Engine engine_;
};

/// The general-purpose generator (long sequential streams).
using Rng = BasicRng<std::mt19937_64>;
/// The cheap-to-seed generator behind MakeStreamRng.
using StreamRng = BasicRng<SplitMix64>;

/// Derives stream `stream` of a base seed: the (stream + 1)-th SplitMix64
/// output from state `seed`. Unlike Rng::Fork(), the result depends only on
/// (seed, stream) — not on how many values were drawn before the split —
/// so parallel components (Monte-Carlo rounds, batch-executor workers) get
/// decorrelated streams that are reproducible regardless of thread
/// scheduling.
inline uint64_t SplitSeed(uint64_t seed, uint64_t stream) {
  return SplitMix64::Mix(seed + SplitMix64::kGamma * (stream + 1));
}

/// StreamRng seeded with SplitSeed(seed, stream). The Monte-Carlo
/// quantifier draws point `id`'s round-r instantiation from
/// MakeStreamRng(SplitSeed(seed, r), id), one fresh stream per sample, so
/// seeding must cost no more than a draw.
inline StreamRng MakeStreamRng(uint64_t seed, uint64_t stream) {
  return StreamRng(SplitSeed(seed, stream));
}

}  // namespace pnn

#endif  // PNN_UTIL_RNG_H_
