#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace steelnet::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng{7};
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng{3};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng{3};
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng{11};
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng{17};
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  EXPECT_THROW(rng.pareto(-1, 1), std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{19};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a{42};
  Rng b = a.fork();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DeriveIsStableRegardlessOfDraws) {
  Rng a{42};
  Rng d1 = a.derive("link-3");
  a.next_u64();
  a.next_u64();
  Rng d2 = a.derive("link-3");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d1.next_u64(), d2.next_u64());
  Rng other = a.derive("link-4");
  EXPECT_NE(d1.next_u64(), other.next_u64());
}

TEST(Rng, LognormalIsPositive) {
  Rng rng{29};
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

}  // namespace
}  // namespace steelnet::sim
