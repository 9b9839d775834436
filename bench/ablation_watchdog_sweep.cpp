// Ablation (DESIGN.md): InstaPLC's data-plane liveness threshold.
//
// The paper makes the threshold "a configurable number of I/O cycles".
// Too low: a jittery-but-alive primary (vPLC on a loaded host with
// multi-ms scheduling stalls) triggers spurious switchovers. Too high:
// real failures are detected late and the device watchdog may expire
// first. The sweep shows the trade-off.
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "core/sweep_runner.hpp"
#include "faults/instaplc_testbed.hpp"
#include "host/host_path.hpp"
#include "host/samplers.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace steelnet;
using namespace steelnet::sim::literals;

/// A vPLC host with rare but long scheduling stalls (overloaded node).
std::unique_ptr<host::HostPath> stall_prone_host(std::uint64_t seed) {
  auto tx = std::make_unique<host::ParetoTailSampler>(
      50_us, /*tail_prob=*/0.004, /*scale=*/2_ms, /*alpha=*/1.6, seed);
  auto rx = std::make_unique<host::FixedSampler>(20_us);
  return std::make_unique<host::HostPath>(std::move(rx), std::move(tx));
}

struct SweepResult {
  bool false_switchover = false;
  sim::SimTime detection_latency;
  std::uint64_t device_trips = 0;
};

SweepResult run_one(std::uint16_t threshold, bool inject_failure,
                    std::uint64_t seed) {
  const auto fail_at = 10_s;
  faults::FaultScenario scenario;  // no faults: the quiet run
  if (inject_failure) {
    scenario = faults::silent_primary_scenario(seed);
    scenario.faults[0].at = fail_at;
  }
  faults::InstaPlcTestbed::Config cfg;
  cfg.opts.switchover_cycles = threshold;
  auto stalls = stall_prone_host(seed);
  sim::Simulator simulator;
  faults::InstaPlcTestbed testbed{simulator, scenario, std::move(cfg)};
  testbed.primary_host().set_host_path(stalls.get());
  // The sweep reads only app and device counters: no frame tracing.
  testbed.network().set_obs(nullptr);
  testbed.start();
  simulator.run_until(inject_failure ? fail_at + 2_s : 20_s);

  SweepResult r;
  r.device_trips = testbed.device().counters().watchdog_trips;
  const instaplc::InstaPlcApp& app = testbed.app();
  if (app.switched_over()) {
    if (!inject_failure || *app.stats().switchover_at < fail_at) {
      r.false_switchover = true;
    } else {
      r.detection_latency = *app.stats().switchover_at - fail_at;
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using enum steelnet::bench::Flag;
  const auto args = steelnet::bench::BenchArgs::parse(
      argc, argv, {kSeed, kJobs}, /*default_seed=*/101);

  std::cout << "=== Ablation: InstaPLC switchover threshold (I/O cycles of "
               "primary silence) ===\n"
            << "primary vPLC on a stall-prone host (Pareto tail stalls up "
               "to several ms); 2 ms cycle; device watchdog factor 3\n\n";

  core::TextTable table({"threshold (cycles)", "false switchover (no fail)",
                         "detection latency (real fail)",
                         "device watchdog trips (real fail)"});
  // Each (threshold, inject_failure) cell is an independent simulation;
  // sweep them across the worker pool and reduce in threshold order.
  const std::vector<std::uint16_t> thresholds{1, 2, 3, 5, 8, 16};
  const auto slots = steelnet::core::SweepRunner{args.jobs}.run(
      2 * thresholds.size(), [&](std::size_t i) {
        return run_one(thresholds[i / 2], /*inject_failure=*/(i % 2) != 0,
                       args.seed);
      });
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    if (!slots[2 * t].ok() || !slots[2 * t + 1].ok()) {
      std::cerr << "ablation_watchdog_sweep: threshold "
                << thresholds[t] << " failed: "
                << (slots[2 * t].ok() ? slots[2 * t + 1].error
                                      : slots[2 * t].error)
                << "\n";
      return 1;
    }
    const SweepResult& quiet = *slots[2 * t].value;
    const SweepResult& fail = *slots[2 * t + 1].value;
    table.add_row(
        {std::to_string(thresholds[t]),
         quiet.false_switchover ? "YES" : "no",
         fail.false_switchover ? "(false trigger)"
                               : fail.detection_latency.to_string(),
         std::to_string(fail.device_trips)});
  }
  table.print(std::cout);

  std::cout << "\ntrade-off: small thresholds misfire on host jitter; "
               "large ones let the device's own watchdog (3 cycles) expire "
               "before the switchover lands.\n";
  return 0;
}
