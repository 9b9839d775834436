// A small, fast orchestration configuration shared by the orch tests.
#pragma once

#include <cstdint>

#include "orch/orch_runner.hpp"

namespace steelnet::orch {

/// 3 racks x 2 nodes, 12 vPLCs, 400 ms horizon, a 2-node storm at 100 ms.
inline OrchConfig small_orch_config(std::uint64_t seed) {
  OrchConfig cfg;
  cfg.seed = seed;
  cfg.racks = 3;
  cfg.nodes_per_rack = 2;
  cfg.vplcs = 12;
  cfg.node_capacity_mcpu = 4000;
  cfg.horizon = sim::milliseconds(400);
  cfg.fail_at = sim::milliseconds(100);
  cfg.storm_nodes = 2;
  return cfg;
}

}  // namespace steelnet::orch
