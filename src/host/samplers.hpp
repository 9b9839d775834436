// steelnet::host -- stochastic latency samplers.
//
// Each sampler draws the time one stage of the host path contributes to a
// frame of a given size. Samplers own their RNG stream so that composing
// them never perturbs each other's sequences.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace steelnet::host {

class LatencySampler {
 public:
  virtual ~LatencySampler() = default;
  /// Latency contribution for a frame with `bytes` of payload.
  virtual sim::SimTime sample(std::size_t bytes) = 0;
};

/// Always the same value -- ideal hardware, useful as a baseline.
class FixedSampler final : public LatencySampler {
 public:
  explicit FixedSampler(sim::SimTime value) : value_(value) {}
  sim::SimTime sample(std::size_t) override { return value_; }

 private:
  sim::SimTime value_;
};

/// `base` plus, with probability `tail_prob`, a Pareto excursion --
/// models rare scheduler preemptions / SMIs / page faults.
class ParetoTailSampler final : public LatencySampler {
 public:
  ParetoTailSampler(sim::SimTime base, double tail_prob, sim::SimTime scale,
                    double alpha, std::uint64_t seed);
  sim::SimTime sample(std::size_t bytes) override;

 private:
  sim::SimTime base_;
  double tail_prob_;
  double scale_ns_;
  double alpha_;
  sim::Rng rng_;
};

/// Sum of child samplers (stages in series).
class ChainSampler final : public LatencySampler {
 public:
  void add(std::unique_ptr<LatencySampler> stage);
  sim::SimTime sample(std::size_t bytes) override;
  [[nodiscard]] std::size_t stages() const { return stages_.size(); }

 private:
  std::vector<std::unique_ptr<LatencySampler>> stages_;
};

/// Scales another sampler's output by a load factor -- models contention:
/// the more concurrently active flows/VMs share the host, the larger and
/// more variable each stage's latency (§2.1: poor coordination among
/// processors, memory and peripheral interconnects creates contention).
class ContentionScaledSampler final : public LatencySampler {
 public:
  /// effective = inner * (1 + slope * (load - 1)) with multiplicative
  /// jitter ~ N(1, jitter_sigma * sqrt(load - 1)) for load > 1.
  ContentionScaledSampler(std::unique_ptr<LatencySampler> inner, double slope,
                          double jitter_sigma, std::uint64_t seed);

  void set_load(std::size_t concurrent_flows);
  [[nodiscard]] std::size_t load() const { return load_; }

  sim::SimTime sample(std::size_t bytes) override;

 private:
  std::unique_ptr<LatencySampler> inner_;
  double slope_;
  double jitter_sigma_;
  std::size_t load_ = 1;
  sim::Rng rng_;
};

}  // namespace steelnet::host
