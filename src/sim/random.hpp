// steelnet::sim -- deterministic random number generation.
//
// We do not use <random>'s engines/distributions for simulation state:
// their algorithms differ across standard libraries, which would break
// golden-trace tests. All algorithms here are fixed and self-contained.
#pragma once

#include <cstdint>
#include <string_view>

namespace steelnet::sim {

/// SplitMix64 -- used for seeding derived streams.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 -- the workhorse generator.
///
/// Each simulation component takes its own Rng stream (derived via
/// Rng::fork or Rng::derive) so adding a component never perturbs the
/// random sequence seen by the others.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// True with probability p.
  bool bernoulli(double p);

  /// Standard normal via Box-Muller (cached second deviate).
  double normal();
  double normal(double mean, double stddev);
  double lognormal(double mu, double sigma);
  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy tail).
  double pareto(double xm, double alpha);

  /// A new independent stream seeded from this one.
  Rng fork();
  /// A new stream deterministically derived from a label -- the same
  /// (seed, label) pair always yields the same stream, regardless of how
  /// many draws the parent has made.
  [[nodiscard]] Rng derive(std::string_view label) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace steelnet::sim
