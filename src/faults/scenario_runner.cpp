#include "faults/scenario_runner.hpp"

#include "faults/instaplc_testbed.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace steelnet::faults {

sim::SimTime switchover_bound(const RunnerOptions& opts) {
  return opts.io_cycle * (opts.switchover_cycles + 1);
}

std::uint64_t ScenarioOutcome::fingerprint() const {
  using sim::fnv1a64_mix;
  std::uint64_t h = sim::fnv1a64(scenario);
  fnv1a64_mix(h, seed);
  fnv1a64_mix(h, switched_over ? 1 : 0);
  fnv1a64_mix(h, static_cast<std::uint64_t>(switchover_at.nanos()));
  fnv1a64_mix(h, static_cast<std::uint64_t>(switchover_latency.nanos()));
  fnv1a64_mix(h, static_cast<std::uint64_t>(max_output_gap.nanos()));
  fnv1a64_mix(h, device_watchdog_trips);
  fnv1a64_mix(h, post_kill_deliveries);
  fnv1a64_mix(h, secondary_running ? 1 : 0);
  fnv1a64_mix(h, twin_synced ? 1 : 0);
  fnv1a64_mix(h, net.frames_offered);
  fnv1a64_mix(h, net.frames_delivered);
  fnv1a64_mix(h, net.frames_dropped_no_link);
  fnv1a64_mix(h, net.frames_in_flight);
  fnv1a64_mix(h, net.bytes_delivered);
  fnv1a64_mix(h, faults.dropped_link_down);
  fnv1a64_mix(h, faults.dropped_loss);
  fnv1a64_mix(h, faults.dropped_sender_down);
  fnv1a64_mix(h, faults.dropped_receiver_down);
  fnv1a64_mix(h, faults.suppressed_tx);
  fnv1a64_mix(h, faults.suppressed_rx);
  fnv1a64_mix(h, faults.corrupted);
  fnv1a64_mix(h, faults.duplicated);
  fnv1a64_mix(h, faults.reordered);
  fnv1a64_mix(h, faults.jittered);
  fnv1a64_mix(h, static_cast<std::uint64_t>(residual));
  fnv1a64_mix(h, metrics_fp);
  fnv1a64_mix(h, trace_fp);
  return h;
}

ScenarioOutcome ScenarioRunner::run(const FaultScenario& scenario) const {
  sim::Simulator simulator;
  InstaPlcTestbed testbed{simulator, scenario, {.opts = opts_}};
  testbed.start();
  simulator.run_until(opts_.horizon);
  return testbed.collect();
}

std::vector<core::SweepSlot<ScenarioOutcome>> ScenarioRunner::run_sweep(
    const std::vector<FaultScenario>& scenarios, std::size_t jobs) const {
  // Heaviest-first dispatch: a scenario's fault count is a cheap proxy
  // for its cost, and LPT dispatch keeps a fat scenario from landing
  // last and stretching the sweep tail. Slot order (and therefore every
  // aggregate) is unchanged.
  std::vector<std::uint64_t> weights;
  weights.reserve(scenarios.size());
  for (const FaultScenario& sc : scenarios) {
    weights.push_back(sc.faults.size() + 1);
  }
  return core::SweepRunner{jobs}.run_weighted(
      weights, [&](std::size_t i) { return run(scenarios[i]); });
}

// --- canonical scenarios ----------------------------------------------------

FaultScenario silent_primary_scenario(std::uint64_t seed) {
  FaultScenario sc;
  sc.name = "silent_primary";
  sc.seed = seed;
  FaultSpec f;
  f.kind = FaultKind::kNodeStop;
  f.node = "v1";
  f.at = sim::seconds(1);
  sc.faults.push_back(std::move(f));
  return sc;
}

FaultScenario loss_burst_scenario(std::uint64_t seed) {
  FaultScenario sc;
  sc.name = "loss_burst";
  sc.seed = seed;
  FaultSpec f;
  f.kind = FaultKind::kLoss;
  f.node = "v1";
  f.port = 0;
  f.at = sim::seconds(1);
  f.duration = sim::milliseconds(10);
  f.probability = 1.0;
  sc.faults.push_back(std::move(f));
  return sc;
}

FaultScenario link_flap_scenario(std::uint64_t seed) {
  FaultScenario sc;
  sc.name = "link_flap";
  sc.seed = seed;
  FaultSpec f;
  f.kind = FaultKind::kLinkFlap;
  f.node = "v1";
  f.port = 0;
  f.at = sim::seconds(1);
  f.duration = sim::milliseconds(10);
  f.count = 3;
  f.period = sim::milliseconds(20);
  sc.faults.push_back(std::move(f));
  return sc;
}

FaultScenario primary_crash_scenario(std::uint64_t seed) {
  FaultScenario sc;
  sc.name = "primary_crash";
  sc.seed = seed;
  FaultSpec f;
  f.kind = FaultKind::kNodeCrash;
  f.node = "v1";
  f.at = sim::seconds(1);
  sc.faults.push_back(std::move(f));
  return sc;
}

FaultScenario short_flap_scenario(std::uint64_t seed) {
  FaultScenario sc;
  sc.name = "short_flap";
  sc.seed = seed;
  // 3ms outage < switchover_cycles (3) x io_cycle (2ms) = 6ms window:
  // cyclic frames resume before the monitor sees three silent cycles.
  FaultSpec f;
  f.kind = FaultKind::kLinkFlap;
  f.node = "v1";
  f.port = 0;
  f.at = sim::seconds(1);
  f.duration = sim::milliseconds(3);
  f.count = 1;
  f.period = sim::milliseconds(10);
  sc.faults.push_back(std::move(f));
  return sc;
}

std::vector<FaultScenario> canonical_scenarios(std::uint64_t seed) {
  return {silent_primary_scenario(seed), loss_burst_scenario(seed),
          link_flap_scenario(seed), primary_crash_scenario(seed)};
}

FaultScenario random_scenario(std::uint64_t seed) {
  FaultScenario sc;
  sc.name = "random-" + std::to_string(seed);
  sc.seed = seed;
  sim::Rng rng = sim::Rng(seed).derive("faults/scenario");
  const char* kLinkNodes[3] = {"dev", "v1", "v2"};
  const char* kProcNodes[2] = {"v1", "v2"};
  const std::int64_t n = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < n; ++i) {
    FaultSpec f;
    f.at = sim::microseconds(rng.uniform_int(200'000, 2'000'000));
    const std::int64_t kind = rng.uniform_int(0, 8);
    switch (kind) {
      case 0:
        f.kind = FaultKind::kLinkDown;
        f.node = kLinkNodes[rng.uniform_int(0, 2)];
        f.duration = sim::milliseconds(rng.uniform_int(1, 40));
        break;
      case 1: {
        f.kind = FaultKind::kLinkFlap;
        f.node = kLinkNodes[rng.uniform_int(0, 2)];
        f.count = static_cast<std::uint32_t>(rng.uniform_int(1, 5));
        const std::int64_t period_us = rng.uniform_int(5'000, 40'000);
        f.period = sim::microseconds(period_us);
        f.duration =
            sim::microseconds(rng.uniform_int(1'000, period_us - 1'000));
        break;
      }
      case 2:
        f.kind = FaultKind::kLoss;
        f.node = kLinkNodes[rng.uniform_int(0, 2)];
        f.duration = sim::milliseconds(rng.uniform_int(1, 300));
        f.probability = rng.uniform(0.05, 1.0);
        break;
      case 3:
        f.kind = FaultKind::kCorrupt;
        f.node = kLinkNodes[rng.uniform_int(0, 2)];
        f.duration = sim::milliseconds(rng.uniform_int(1, 300));
        f.probability = rng.uniform(0.01, 0.3);
        break;
      case 4:
        f.kind = FaultKind::kDuplicate;
        f.node = kLinkNodes[rng.uniform_int(0, 2)];
        f.duration = sim::milliseconds(rng.uniform_int(1, 300));
        f.probability = rng.uniform(0.01, 0.3);
        break;
      case 5:
        f.kind = FaultKind::kReorder;
        f.node = kLinkNodes[rng.uniform_int(0, 2)];
        f.duration = sim::milliseconds(rng.uniform_int(1, 300));
        f.probability = rng.uniform(0.01, 0.3);
        f.delay = sim::microseconds(rng.uniform_int(50, 1'000));
        break;
      case 6:
        f.kind = FaultKind::kJitter;
        f.node = kLinkNodes[rng.uniform_int(0, 2)];
        f.duration = sim::milliseconds(rng.uniform_int(1, 300));
        f.delay = sim::microseconds(rng.uniform_int(10, 500));
        break;
      case 7:
        f.kind = FaultKind::kNodeCrash;
        f.node = kProcNodes[rng.uniform_int(0, 1)];
        if (rng.bernoulli(0.5)) {
          f.duration = sim::milliseconds(rng.uniform_int(50, 500));
        }
        break;
      default:
        f.kind = FaultKind::kNodeStop;
        f.node = kProcNodes[rng.uniform_int(0, 1)];
        if (rng.bernoulli(0.5)) {
          f.duration = sim::milliseconds(rng.uniform_int(50, 500));
        }
        break;
    }
    sc.faults.push_back(std::move(f));
  }
  return sc;
}

}  // namespace steelnet::faults
