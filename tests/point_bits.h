// Bitwise equality of uncertain points for codec tests: every double is
// compared by its IEEE-754 bits, so a round trip that moves one ulp (or
// turns one NaN into another) fails where operator== would not notice.

#ifndef PNN_TESTS_POINT_BITS_H_
#define PNN_TESTS_POINT_BITS_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/uncertain/uncertain_point.h"

namespace pnn {

inline uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

inline std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out;
  for (double d : v) out.push_back(Bits(d));
  return out;
}

inline void ExpectSamePointBits(const UncertainPoint& a, const UncertainPoint& b) {
  ASSERT_EQ(a.is_discrete(), b.is_discrete());
  if (a.is_discrete()) {
    const DiscreteDistribution& da = a.discrete();
    const DiscreteDistribution& db = b.discrete();
    ASSERT_EQ(da.locations.size(), db.locations.size());
    for (size_t i = 0; i < da.locations.size(); ++i) {
      EXPECT_EQ(Bits(da.locations[i].x), Bits(db.locations[i].x)) << i;
      EXPECT_EQ(Bits(da.locations[i].y), Bits(db.locations[i].y)) << i;
    }
    EXPECT_EQ(Bits(da.weights), Bits(db.weights));
    EXPECT_EQ(Bits(da.cumulative), Bits(db.cumulative));
  } else {
    const DiskDistribution& da = a.disk();
    const DiskDistribution& db = b.disk();
    EXPECT_EQ(Bits(da.support.center.x), Bits(db.support.center.x));
    EXPECT_EQ(Bits(da.support.center.y), Bits(db.support.center.y));
    EXPECT_EQ(Bits(da.support.radius), Bits(db.support.radius));
    EXPECT_EQ(da.pdf, db.pdf);
    EXPECT_EQ(Bits(da.sigma), Bits(db.sigma));
  }
}

}  // namespace pnn

#endif  // PNN_TESTS_POINT_BITS_H_
