// steelnet::orch -- the fleet-scale orchestration testbed and sweep
// harness.
//
// OrchRunner stands up a leaf-spine data center (one spine switch, one
// ToR switch per rack, `nodes_per_rack` compute hosts behind each ToR,
// the fleet manager host on its own spine port), places a vPLC fleet
// drawn from named RNG streams, and runs one orchestration scenario to a
// horizon:
//
//   * steady        -- no faults; heartbeats, warm twins, zero failovers;
//   * rolling       -- drain/reboot every node with a grace period longer
//                      than a handover, so the fleet upgrades with zero
//                      control gaps (graceful handovers only);
//   * rolling-aggressive -- grace shorter than a twin warm-up: stragglers
//                      are rebooted out from under their vPLCs, producing
//                      real, accounted failovers mid-upgrade;
//   * rack-failure  -- `storm_nodes` hosts of one rack crash at the same
//                      instant (correlated power/ToR failure); every
//                      hosted primary fails over in one mass switchover
//                      storm whose latency distribution vs the
//                      (kWatchdogHeartbeats + 1) x kHeartbeatPeriod bound
//                      is the experiment.
//
// Everything the invariant checks need comes back in an OrchOutcome:
// the SLO ledger (residual must be 0), the switchover latency
// distribution, the placement-trace and obs-export fingerprints (two
// runs of the same config must collide exactly). Runs share nothing, so
// bench/tab_orch fans configurations across a core::SweepRunner pool.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "orch/fleet.hpp"

namespace steelnet::orch {

enum class OrchScenario : std::uint8_t {
  kSteady,
  kRollingUpgrade,
  kRollingAggressive,
  kRackFailure,
};

[[nodiscard]] const char* to_string(OrchScenario s);

struct OrchConfig {
  std::uint64_t seed = 1;
  OrchScenario scenario = OrchScenario::kSteady;
  PolicyKind policy = PolicyKind::kLatencyAware;

  // Topology / fleet shape.
  std::uint32_t racks = 8;
  std::uint32_t nodes_per_rack = 8;
  std::uint32_t vplcs = 1024;
  std::uint32_t node_capacity_mcpu = 8000;

  sim::SimTime horizon = sim::seconds(2);
  /// When the fault (storm / first drain) lands.
  sim::SimTime fail_at = sim::milliseconds(500);
  /// Rack-failure storm width: hosts of the victim rack crashed at
  /// fail_at (clamped to nodes_per_rack).
  std::uint32_t storm_nodes = 8;
  /// Rack the storm hits; kNoRack (default) draws it from the
  /// "orch/storm" stream. Pinning it makes policy ablations compare the
  /// same blast radius.
  std::uint32_t victim_rack = kNoRack;

  /// Keep full export/trace text in the outcome (byte-diff tests).
  bool keep_exports = false;
};

struct OrchOutcome {
  std::string scenario;
  std::string policy;
  std::uint64_t seed = 0;

  // Shape.
  std::uint32_t compute_nodes = 0;
  std::uint32_t racks = 0;
  std::uint32_t vplcs_placed = 0;
  /// Non-empty when initial placement failed (typed Placer error).
  std::string place_error;

  // Ledger + fleet behaviour.
  FleetCounters fleet;
  std::int64_t ledger_residual = 0;  ///< must be 0
  std::uint64_t currently_down = 0;
  std::uint64_t unprotected = 0;
  double availability = 1.0;
  double rack_local_fraction = 1.0;
  double utilization_spread = 1.0;

  // Switchover latency distribution (us) vs the watchdog bound.
  std::uint64_t watchdog_bound_ns = 0;
  std::uint64_t latency_count = 0;
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_max_us = 0.0;

  // Network-plane sanity (heartbeats really crossed switches).
  std::uint64_t frames_delivered = 0;
  std::int64_t conservation_residual = 0;  ///< frame ledger; must be 0

  // Fingerprints (FNV-1a over exact bytes).
  std::uint64_t trace_fp = 0;    ///< placement trace
  std::uint64_t metrics_fp = 0;  ///< Prometheus export
  std::string trace_text;        ///< only with keep_exports
  std::string metrics_prom;      ///< only with keep_exports

  /// Every field fingerprint() hashes, as f(name, value) in hash order:
  /// the one place their names are written.
  template <class F>
  void fields(F&& f) const {
    f("scenario", scenario);
    f("policy", policy);
    f("seed", seed);
    f("compute_nodes", compute_nodes);
    f("racks", racks);
    f("vplcs_placed", vplcs_placed);
    f("place_error", place_error);
    fleet.fields(f);
    f("ledger_residual", ledger_residual);
    f("currently_down", currently_down);
    f("unprotected", unprotected);
    f("availability", availability);
    f("rack_local_fraction", rack_local_fraction);
    f("utilization_spread", utilization_spread);
    f("watchdog_bound_ns", watchdog_bound_ns);
    f("latency_count", latency_count);
    f("latency_mean_us", latency_mean_us);
    f("latency_p50_us", latency_p50_us);
    f("latency_p99_us", latency_p99_us);
    f("latency_max_us", latency_max_us);
    f("net_frames_delivered", frames_delivered);
    f("conservation_residual", conservation_residual);
    f("trace_fp", trace_fp);
    f("metrics_fp", metrics_fp);
  }

  /// fields() folded; replays collide exactly, at any --jobs.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

class OrchRunner {
 public:
  /// Builds a fresh testbed on this call's stack, runs `cfg` to its
  /// horizon. Reentrant: concurrent run() calls share nothing.
  [[nodiscard]] static OrchOutcome run(const OrchConfig& cfg);
};

}  // namespace steelnet::orch
