#include "src/core/prob/monte_carlo.h"

#include <algorithm>
#include <cmath>

#include "src/exec/thread_pool.h"
#include "src/util/arena.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace pnn {

void BuildMcRounds(const UncertainSet& points, uint64_t seed, size_t from, size_t to,
                   const std::vector<uint64_t>& stream_ids, const KdBuildOptions& build,
                   McRounds* out) {
  PNN_CHECK_MSG(stream_ids.empty() || stream_ids.size() == points.size(),
                "stream_ids must be empty or have one id per point");
  PNN_CHECK(from <= to);
  if (out->trees.size() < to) out->trees.resize(to);
  const size_t n = points.size();
  auto build_round = [&](size_t i) {
    const size_t r = from + i;
    const uint64_t round_seed = SplitSeed(seed, r);
    std::vector<Point2> samples(n);
    for (size_t j = 0; j < n; ++j) {
      StreamRng rng = MakeStreamRng(round_seed, stream_ids.empty() ? j : stream_ids[j]);
      samples[j] = points[j].Sample(&rng);
    }
    out->trees[r] = std::make_shared<const KdTree>(
        std::move(samples), std::vector<double>(), Metric::kEuclidean, build);
  };
  exec::MaybeParallelFor(build.pool, to - from, build_round);
}

size_t MonteCarloPNN::TheoreticalRounds(size_t n, size_t max_k, double eps,
                                        double delta) {
  // s = (1 / 2 eps^2) ln(2 n |Q| / delta) with |Q| = O(N^4), N = n k
  // (Lemma 4.1 / Theorem 4.3).
  double big_n = static_cast<double>(n) * std::max<size_t>(max_k, 1);
  double q_count = std::pow(big_n, 4.0) + 1.0;
  double s = std::log(2.0 * n * q_count / delta) / (2.0 * eps * eps);
  return static_cast<size_t>(std::ceil(std::max(s, 1.0)));
}

size_t MonteCarloPNN::Rounds(size_t n, size_t max_k, double eps, double delta,
                             size_t rounds_override) {
  return rounds_override > 0 ? rounds_override : TheoreticalRounds(n, max_k, eps, delta);
}

MonteCarloPNN::MonteCarloPNN(const UncertainSet& points, const Options& options)
    : n_(points.size()) {
  PNN_CHECK_MSG(!points.empty(), "MonteCarloPNN needs at least one point");
  PNN_CHECK_MSG(options.eps > 0 && options.eps < 1, "eps must be in (0,1)");
  PNN_CHECK_MSG(options.delta > 0 && options.delta < 1, "delta must be in (0,1)");
  SetAggregates agg;
  for (const auto& p : points) agg.Add(p);
  size_t rounds =
      Rounds(n_, agg.max_k, options.eps, options.delta, options.rounds_override);
  BuildMcRounds(points, options.seed, 0, rounds, options.stream_ids, options.build, &mc_);
}

void McQuantifyInto(const McRounds& mc, size_t rounds, size_t n, Point2 q,
                    std::vector<Quantification>* out) {
  PNN_CHECK(rounds <= mc.trees.size());
  util::ScratchVec<int> lease;
  std::vector<int>& counts = *lease;
  counts.assign(n, 0);
  for (size_t r = 0; r < rounds; ++r) ++counts[mc.trees[r]->NearestSquared(q)];
  out->clear();
  const double denom = static_cast<double>(rounds);
  for (size_t i = 0; i < n; ++i) {
    if (counts[i] > 0) {
      out->push_back({static_cast<int>(i), static_cast<double>(counts[i]) / denom});
    }
  }
}

std::vector<Quantification> MonteCarloPNN::Query(Point2 q) const {
  std::vector<Quantification> out;
  McQuantifyInto(mc_, mc_.trees.size(), n_, q, &out);
  return out;
}

}  // namespace pnn
