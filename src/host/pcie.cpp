#include "host/pcie.hpp"

#include <algorithm>

namespace steelnet::host {

namespace {
constexpr std::size_t kTlpBytes = 256;  ///< maximum TLP payload
constexpr sim::SimTime kPerTlp = sim::nanoseconds(120);
}  // namespace

PcieModel::PcieModel(PcieConfig cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {}

sim::SimTime PcieModel::nominal(std::size_t bytes) const {
  const std::size_t tlps = bytes == 0 ? 1 : (bytes + kTlpBytes - 1) / kTlpBytes;
  return cfg_.base + kPerTlp * static_cast<std::int64_t>(tlps - 1);
}

double PcieModel::overhead_fraction(std::size_t bytes) const {
  const auto total = nominal(bytes);
  if (total <= sim::SimTime::zero()) return 0.0;
  return double(cfg_.base.nanos()) / double(total.nanos());
}

sim::SimTime PcieModel::sample(std::size_t bytes) {
  const sim::SimTime nom = nominal(bytes);
  const auto noise = static_cast<std::int64_t>(
      rng_.normal(0.0, double(cfg_.jitter.nanos())));
  return std::max(sim::SimTime{nom.nanos() / 2}, nom + sim::SimTime{noise});
}

}  // namespace steelnet::host
