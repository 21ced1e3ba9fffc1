#include "src/core/prob/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/exec/thread_pool.h"
#include "src/util/arena.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace pnn {

Point2 McSample(const UncertainPoint& p, uint64_t seed, size_t r, uint64_t stream_id) {
  StreamRng rng = MakeStreamRng(SplitSeed(seed, r), stream_id);
  return p.Sample(&rng);
}

McSamples::McSamples(size_t n, size_t s) : rounds(s), xs(n * s), ys(n * s) {}

void FillMcRow(const UncertainPoint& p, uint64_t seed, uint64_t stream_id,
               const McSamples* prev, size_t j, McSamples* block) {
  double* xs = block->xs.data() + j * block->rounds;
  double* ys = block->ys.data() + j * block->rounds;
  size_t from = 0;
  if (prev != nullptr) {
    from = std::min(prev->rounds, block->rounds);
    std::copy(prev->row_x(j), prev->row_x(j) + from, xs);
    std::copy(prev->row_y(j), prev->row_y(j) + from, ys);
  }
  for (size_t r = from; r < block->rounds; ++r) {
    Point2 s = McSample(p, seed, r, stream_id);
    xs[r] = s.x;
    ys[r] = s.y;
  }
}

double McCandidateBound(double delta) { return delta * (1 + 1e-9) + 1e-12; }

void McQuantifyRowsInto(const std::vector<McRow>& rows, size_t rounds, Point2 q,
                        std::vector<Quantification>* out) {
  out->clear();
  util::ScratchVec<double> best_lease;
  std::vector<double>& best = *best_lease;
  best.assign(rounds, std::numeric_limits<double>::infinity());
  util::ScratchVec<int> winner_lease;
  std::vector<int>& winner = *winner_lease;
  winner.assign(rounds, -1);
  // Rounds in blocks, every candidate's row segment per block, so the
  // block's running minima stay in L1 while the rows stream through. The
  // rows ascend by id, so a strict < keeps the lowest tied id.
  constexpr size_t kBlock = 256;
  double d[kBlock];
  for (size_t r0 = 0; r0 < rounds; r0 += kBlock) {
    size_t m = std::min(kBlock, rounds - r0);
    double* b = best.data() + r0;
    int* w = winner.data() + r0;
    for (size_t c = 0; c < rows.size(); ++c) {
      simd::SquaredDistScan(rows[c].xs + r0, rows[c].ys + r0, m, q.x, q.y, d);
      for (size_t r = 0; r < m; ++r) {
        if (d[r] < b[r]) {
          b[r] = d[r];
          w[r] = static_cast<int>(c);
        }
      }
    }
  }
  util::ScratchVec<int> counts_lease;
  std::vector<int>& counts = *counts_lease;
  counts.assign(rows.size(), 0);
  for (int c : winner) {
    if (c >= 0) ++counts[c];
  }
  const double denom = static_cast<double>(rounds);
  for (size_t c = 0; c < rows.size(); ++c) {
    if (counts[c] > 0) {
      out->push_back({rows[c].id, static_cast<double>(counts[c]) / denom});
    }
  }
}

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
    std::vector<Point2> samples(n);
    for (size_t j = 0; j < n; ++j) {
      samples[j] = McSample(points[j], seed, r, stream_ids.empty() ? j : stream_ids[j]);
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

std::vector<Quantification> MonteCarloPNN::Query(Point2 q) const {
  std::vector<int> counts(n_, 0);
  for (const auto& tree : mc_.trees) ++counts[tree->NearestSquared(q)];
  std::vector<Quantification> out;
  const double denom = static_cast<double>(mc_.trees.size());
  for (size_t i = 0; i < n_; ++i) {
    if (counts[i] > 0) {
      out.push_back({static_cast<int>(i), static_cast<double>(counts[i]) / denom});
    }
  }
  return out;
}

}  // namespace pnn
