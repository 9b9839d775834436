// steelnet::net -- the placement plumbing the sharded plants share.
//
// net::run_campus and net::run_radio_floor both map every plant cell onto
// one sim::ShardedSimulator cell and run it on N shards. ShardedRunResult
// is the run-level part of both results, and run_placed the one way they
// place, run and read back placement diagnostics. Their per-cell
// artifacts are rendered by the writer in net/cell_artifacts.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/partitioner.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/time.hpp"

namespace steelnet::net {

/// Run-level outcome every sharded plant reports beside its cell rows.
struct ShardedRunResult {
  sim::ShardRunStats stats;  ///< rounds/spins/wall are timing-dependent
  std::int64_t horizon_ns = 0;

  // Placement diagnostics. The partition map and per-shard loads depend
  // on the shard count and the placement, so they are reported here
  // (and in bench JSON) but NEVER rendered into the fingerprinted
  // artifacts -- those must stay invariant to placement.
  std::vector<std::uint32_t> partition;    ///< cell -> shard of this run
  std::vector<std::uint64_t> shard_events; ///< measured load per shard
  std::uint64_t imbalance_permille = 0;    ///< max/mean load, 1000 = balanced
  /// Measured per-cell rates (deterministic) -- the `--profile-out`
  /// payload whose weights() feed a later run's measured partition.
  sim::RateProfile profile;
};

/// Runs `ss` to `horizon` on `shards` worker threads and fills `out`.
/// `measured_weights` go to ShardedSimulator::set_measured_weights, so
/// non-empty ones (one per cell, e.g. a calibration run's
/// RateProfile::weights()) place cells by LPT over them and empty ones
/// keep the prefix-quota walk over declared weights.
void run_placed(sim::ShardedSimulator& ss, sim::SimTime horizon,
                std::size_t shards,
                const std::vector<std::uint64_t>& measured_weights,
                ShardedRunResult& out);

}  // namespace steelnet::net
