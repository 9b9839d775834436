// steelnet::faults -- the seed-sweep harness.
//
// ScenarioRunner stands up the canonical InstaPLC high-availability
// testbed (one sdn match-action switch; an I/O device on port 0; primary
// and secondary vPLC hosts on ports 1 and 2), attaches a FaultPlane and
// the observability plane, runs one FaultScenario to a horizon, and
// returns everything the invariant checks need:
//
//   * frame conservation (injected == delivered + dropped-by-cause,
//     residual must be 0),
//   * no delivery after a kill (frames created by a crashed node after
//     the crash never arrive anywhere),
//   * switchover latency bounded by watchdog-cycles x cycle-time,
//   * byte-identical obs exports per (seed, scenario) -- the fingerprints.
//
// tests/faults sweeps this over >= 64 random scenarios; bench/tab_faults
// turns the same outcomes into the fault-matrix table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep_runner.hpp"
#include "faults/fault_plane.hpp"
#include "faults/scenario.hpp"

namespace steelnet::faults {

struct RunnerOptions {
  sim::SimTime horizon = sim::seconds(3);
  /// When the secondary vPLC connects (the primary connects at t=0).
  sim::SimTime secondary_connect_at = sim::milliseconds(100);
  /// Silent I/O cycles before the in-network monitor switches over.
  std::uint16_t switchover_cycles = 3;
  /// PROFINET I/O cycle of both vPLCs and the device.
  sim::SimTime io_cycle = sim::milliseconds(2);
  /// Attach an ObsHub and export metrics/trace fingerprints.
  bool with_obs = true;
  /// Keep the full Prometheus/Chrome-trace text in the outcome (tests
  /// that diff exports byte-for-byte; costs memory).
  bool keep_exports = false;
};

/// Upper bound on detection + switchover latency: the monitor needs
/// `switchover_cycles` fully silent I/O cycles and ticks every half
/// cycle, so latency <= (switchover_cycles + 1) * io_cycle.
[[nodiscard]] sim::SimTime switchover_bound(const RunnerOptions& opts);

struct ScenarioOutcome {
  std::string scenario;
  std::uint64_t seed = 0;

  // InstaPLC behaviour.
  bool switched_over = false;
  sim::SimTime switchover_at;       ///< zero when no switchover happened
  sim::SimTime switchover_latency;  ///< switchover_at - primary last seen
  sim::SimTime max_output_gap;      ///< worst gap in valid device outputs
  std::uint64_t device_watchdog_trips = 0;
  std::uint64_t post_kill_deliveries = 0;  ///< must be 0
  bool secondary_running = false;
  bool twin_synced = false;

  // Ledger.
  net::NetworkCounters net;
  FaultCounters faults;
  std::int64_t residual = 0;  ///< conservation residual; must be 0

  // Obs export fingerprints (FNV-1a over the exact bytes); 0 without obs.
  std::uint64_t metrics_fp = 0;
  std::uint64_t trace_fp = 0;
  std::string metrics_prom;  ///< only with RunnerOptions::keep_exports
  std::string trace_json;    ///< only with RunnerOptions::keep_exports

  /// One hash over every determinism-relevant field above -- two runs of
  /// the same (seed, scenario) must collide exactly.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(RunnerOptions opts = {}) : opts_(opts) {}

  /// Builds a fresh testbed, injects `scenario`, runs to the horizon.
  ///
  /// Reentrant: every piece of mutable state (simulator, network, fault
  /// plane, obs hub, probes) lives on this call's stack and RNG streams
  /// are derived from the scenario seed, so concurrent run() calls on
  /// the same runner share nothing and replay byte-identically.
  [[nodiscard]] ScenarioOutcome run(const FaultScenario& scenario) const;

  /// Runs every scenario through a core::SweepRunner worker pool (`jobs`
  /// semantics as there; 1 = inline sequential loop, 0 = hardware
  /// concurrency). Slots come back in scenario order, so aggregates are
  /// independent of worker count; a throwing run surfaces as that slot's
  /// error instead of killing the sweep.
  [[nodiscard]] std::vector<core::SweepSlot<ScenarioOutcome>> run_sweep(
      const std::vector<FaultScenario>& scenarios, std::size_t jobs = 1) const;

  [[nodiscard]] const RunnerOptions& options() const { return opts_; }

 private:
  RunnerOptions opts_;
};

// --- canonical scenarios (the tab_faults fault matrix) ----------------------
/// Primary vPLC process goes silent at 1s; its NIC stays up.
[[nodiscard]] FaultScenario silent_primary_scenario(std::uint64_t seed);
/// 100% loss on the primary's link for 10ms starting at 1s.
[[nodiscard]] FaultScenario loss_burst_scenario(std::uint64_t seed);
/// Primary link flaps 3x (10ms down / 20ms period) starting at 1s.
[[nodiscard]] FaultScenario link_flap_scenario(std::uint64_t seed);
/// Primary vPLC host crashes hard at 1s (NIC dead, queues purged).
[[nodiscard]] FaultScenario primary_crash_scenario(std::uint64_t seed);
/// One 3ms flap -- shorter than the 6ms watchdog window; must NOT
/// trigger a switchover.
[[nodiscard]] FaultScenario short_flap_scenario(std::uint64_t seed);
/// The four fault-matrix scenarios, in tab_faults row order.
[[nodiscard]] std::vector<FaultScenario> canonical_scenarios(
    std::uint64_t seed);

/// A property-test scenario: 1-3 random fault specs (kinds, targets,
/// windows, probabilities) drawn deterministically from `seed`.
[[nodiscard]] FaultScenario random_scenario(std::uint64_t seed);

}  // namespace steelnet::faults
