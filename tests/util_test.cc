// Tests for the util module: stats, rng determinism, tables.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/bench_json.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace pnn {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(Rng, ForkIndependence) {
  Rng a(42);
  Rng child = a.Fork();
  // The child stream should not replay the parent stream.
  Rng b(42);
  b.Fork();
  EXPECT_EQ(child.Uniform(0, 1), Rng(42).Fork().Uniform(0, 1));
}

TEST(Rng, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    int64_t n = rng.UniformInt(-2, 2);
    EXPECT_GE(n, -2);
    EXPECT_LE(n, 2);
  }
}

TEST(Summary, Moments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(LogLogSlope, RecoversExponent) {
  std::vector<std::pair<double, double>> cubic;
  for (double n : {10, 20, 40, 80, 160}) cubic.push_back({n, 7.0 * n * n * n});
  EXPECT_NEAR(LogLogSlope(cubic), 3.0, 1e-9);

  std::vector<std::pair<double, double>> linear;
  for (double n : {10, 20, 40, 80}) linear.push_back({n, 0.5 * n});
  EXPECT_NEAR(LogLogSlope(linear), 1.0, 1e-9);
}

TEST(LogLogSlope, SkipsNonPositive) {
  std::vector<std::pair<double, double>> pts = {
      {0, 5}, {-1, 5}, {10, 0}, {2, 8}, {4, 32}};
  EXPECT_NEAR(LogLogSlope(pts), 2.0, 1e-9);
}

TEST(SplitSeed, DeterministicAndStreamDependent) {
  EXPECT_EQ(SplitSeed(42, 0), SplitSeed(42, 0));
  EXPECT_NE(SplitSeed(42, 0), SplitSeed(42, 1));
  EXPECT_NE(SplitSeed(42, 0), SplitSeed(43, 0));
  // Streams of the same seed produce decorrelated draws.
  StreamRng a = MakeStreamRng(7, 0), b = MakeStreamRng(7, 1);
  int agree = 0;
  for (int i = 0; i < 100; ++i) {
    agree += a.UniformInt(0, 9) == b.UniformInt(0, 9);
  }
  EXPECT_LT(agree, 50);
}

TEST(SplitMix64, MatchesReferenceOutputs) {
  // The published reference sequence for state 0.
  SplitMix64 g(0);
  EXPECT_EQ(g(), 0xe220a8397b1dcdafull);
  EXPECT_EQ(g(), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(g(), 0x06c45d188009454full);
  // SplitSeed(seed, s) is output s + 1 of the generator started at seed.
  SplitMix64 h(42);
  for (uint64_t s = 0; s < 4; ++s) EXPECT_EQ(h(), SplitSeed(42, s));
}

// First uniform of the Monte-Carlo stream MakeStreamRng(SplitSeed(seed, r),
// id) — exactly what one UncertainPoint::Sample consumes first.
double FirstUniform(uint64_t seed, uint64_t round, uint64_t id) {
  StreamRng rng = MakeStreamRng(SplitSeed(seed, round), id);
  return rng.Uniform(0.0, 1.0);
}

double Lag1Correlation(const std::vector<double>& u) {
  double mean = 0;
  for (double v : u) mean += v;
  mean /= static_cast<double>(u.size());
  double num = 0, den = 0;
  for (size_t i = 0; i < u.size(); ++i) {
    den += (u[i] - mean) * (u[i] - mean);
    if (i + 1 < u.size()) num += (u[i] - mean) * (u[i + 1] - mean);
  }
  return num / den;
}

TEST(StreamRng, ConsecutiveIdsAreIndependent) {
  constexpr int kIds = 100000;
  constexpr int kBins = 64;
  std::vector<double> u(kIds);
  std::vector<int> bins(kBins, 0);
  for (int id = 0; id < kIds; ++id) {
    u[id] = FirstUniform(1, 3, static_cast<uint64_t>(id));
    ASSERT_GE(u[id], 0.0);
    ASSERT_LT(u[id], 1.0);
    ++bins[static_cast<int>(u[id] * kBins)];
  }
  // 63 degrees of freedom: the 0.9999 quantile is about 112.
  const double expected = static_cast<double>(kIds) / kBins;
  double chi2 = 0;
  for (int c : bins) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 112.0);
  EXPECT_LT(std::abs(Lag1Correlation(u)), 0.01);
}

TEST(StreamRng, ConsecutiveRoundsAreIndependent) {
  constexpr int kRounds = 100000;
  std::vector<double> u(kRounds);
  for (int r = 0; r < kRounds; ++r) u[r] = FirstUniform(1, static_cast<uint64_t>(r), 17);
  EXPECT_LT(std::abs(Lag1Correlation(u)), 0.01);
}

TEST(Percentile, MatchesOrderStatistics) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Percentile(&empty, 50), 0.0);
  std::vector<double> one = {3.0};
  EXPECT_DOUBLE_EQ(Percentile(&one, 99), 3.0);
  // The buffer is the caller's scratch: repeated calls reorder it in place
  // (no copies) but every percentile stays exact.
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(&v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(&v, 87.5), 4.5);  // Interpolates between 4 and 5.
  // The multi-cut API sorts once and agrees with the one-shot calls.
  std::vector<double> w = {5, 1, 4, 2, 3};
  std::vector<double> cuts = Percentiles(&w, {0, 25, 50, 87.5, 100});
  ASSERT_EQ(cuts.size(), 5u);
  EXPECT_DOUBLE_EQ(cuts[0], 1.0);
  EXPECT_DOUBLE_EQ(cuts[1], 2.0);
  EXPECT_DOUBLE_EQ(cuts[2], 3.0);
  EXPECT_DOUBLE_EQ(cuts[3], 4.5);
  EXPECT_DOUBLE_EQ(cuts[4], 5.0);
  std::vector<double> none;
  EXPECT_EQ(Percentiles(&none, {50, 99}), (std::vector<double>{0.0, 0.0}));
}

TEST(Table, FormatsWithoutCrashing) {
  Table t({"n", "vertices", "slope"});
  t.AddRow({Table::Int(10), Table::Int(123), Table::Num(2.97)});
  t.AddRow({Table::Int(100), Table::Int(456789), Table::Num(3.01)});
  t.Print();  // Smoke test; output inspected by humans.
  EXPECT_EQ(Table::Int(-5), "-5");
  EXPECT_EQ(Table::Num(2.5, 2), "2.5");
}

TEST(BenchJson, SerializesEntriesAndMeta) {
  BenchJson json;
  json.AddMeta("host", "ci \"runner\"");
  json.Add("churn_0.2", {{"ops_per_sec", 12345.5}, {"speedup", 11.0}});
  json.Add("churn_0.5", {{"ops_per_sec", 67890.0}});
  std::string s = json.ToString();
  EXPECT_NE(s.find("\"host\": \"ci \\\"runner\\\"\""), std::string::npos);
  EXPECT_NE(s.find("\"name\": \"churn_0.2\""), std::string::npos);
  EXPECT_NE(s.find("\"ops_per_sec\": 12345.5"), std::string::npos);
  EXPECT_NE(s.find("\"speedup\": 11"), std::string::npos);
  // Entries are comma-separated; the document closes cleanly.
  EXPECT_NE(s.find("}},\n"), std::string::npos);
  EXPECT_EQ(s.back(), '\n');
  // Non-finite metrics degrade to null instead of invalid JSON.
  BenchJson bad;
  bad.Add("x", {{"inf", std::numeric_limits<double>::infinity()}});
  EXPECT_NE(bad.ToString().find("\"inf\": null"), std::string::npos);
}

}  // namespace
}  // namespace pnn
