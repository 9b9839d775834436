// steelnet::host -- PCIe transaction latency model.
//
// Neugebauer et al. ("Understanding PCIe performance for end host
// networking", SIGCOMM'18, cited as [77]) showed PCIe contributes more
// than 90% of NIC latency for small packets: per-TLP overheads dominate
// because a tiny payload still pays descriptor fetch, doorbell, DMA
// round-trip and completion. The model below reproduces that shape:
// near-constant latency for small frames, linear growth once payload
// spans multiple TLPs.
#pragma once

#include <cstdint>

#include "host/samplers.hpp"

namespace steelnet::host {

/// A frame spans ceil(bytes / 256) TLPs; each TLP beyond the first costs
/// a fixed 120 ns (DMA streaming cost included).
struct PcieConfig {
  /// Per-transaction fixed cost: doorbell + descriptor + completion.
  sim::SimTime base = sim::nanoseconds(850);
  /// Jitter (std dev) on the total, from relaxed-ordering/credit effects.
  sim::SimTime jitter = sim::nanoseconds(40);
};

class PcieModel final : public LatencySampler {
 public:
  PcieModel(PcieConfig cfg, std::uint64_t seed);

  sim::SimTime sample(std::size_t bytes) override;

  /// Deterministic component (no jitter) -- used by tests and docs.
  [[nodiscard]] sim::SimTime nominal(std::size_t bytes) const;

  /// Fraction of `nominal(bytes)` that is the fixed per-transaction
  /// overhead -- for small industrial payloads this exceeds 0.9,
  /// matching the paper's ">90% of the overall NIC latency" claim.
  [[nodiscard]] double overhead_fraction(std::size_t bytes) const;

 private:
  PcieConfig cfg_;
  sim::Rng rng_;
};

}  // namespace steelnet::host
