// Reproduces Fig. 5: "When the primary controller (vPLC1) for an I/O
// device fails, InstaPLC detects this, and dynamically switches to a
// backup controller (vPLC2). As a result, the I/O device remains
// controlled."
//
// (a) packets per 50 ms sent by vPLC1 and vPLC2; vPLC1 stops at t=1.5 s.
// (b) packets per 50 ms arriving at the I/O device: constant through the
//     switchover.
#include <iostream>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "faults/instaplc_testbed.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace steelnet;
  using namespace steelnet::sim::literals;

  const auto args = bench::BenchArgs::parse(argc, argv, {});

  // Timeline: vPLC1 connects at t=0, vPLC2 at t=100 ms, vPLC1 stops at
  // t=1.5 s (as in Fig. 5), run to 3 s.
  faults::FaultScenario scenario = faults::silent_primary_scenario(1);
  scenario.faults[0].at = 1500_ms;
  sim::Simulator simulator;
  faults::InstaPlcTestbed testbed{simulator, scenario, {}};
  instaplc::InstaPlcApp& app = testbed.app();
  const profinet::IoDevice& device = testbed.device();

  sim::TimeSeriesBinner from_v1(50_ms), from_v2(50_ms), to_io(50_ms);
  app.set_observer([&](instaplc::InstaPlcEvent e, sim::SimTime at) {
    switch (e) {
      case instaplc::InstaPlcEvent::kPrimaryCyclic:
        from_v1.record(at);
        break;
      case instaplc::InstaPlcEvent::kSecondaryCyclic:
        from_v2.record(at);
        break;
      case instaplc::InstaPlcEvent::kToDevice:
        to_io.record(at);
        break;
      default:
        break;
    }
  });

  testbed.start();
  simulator.run_until(3_s);

  std::cout << "=== Fig. 5a: packets per 50 ms from the vPLCs ===\n\n";
  std::cout << core::ascii_timeseries(from_v1.bins(), "from vPLC1 (primary)")
            << '\n';
  std::cout << core::ascii_timeseries(from_v2.bins(),
                                      "from vPLC2 (secondary)")
            << '\n';

  std::cout << "=== Fig. 5b: packets per 50 ms arriving at the I/O device "
               "===\n\n";
  std::cout << core::ascii_timeseries(to_io.bins(), "to I/O") << '\n';

  // The numbers behind the picture.
  core::TextTable table({"metric", "value"});
  table.add_row({"vPLC1 stop injected at", "1.500 s"});
  table.add_row({"switchover at",
                 app.stats().switchover_at
                     ? app.stats().switchover_at->to_string()
                     : "(never)"});
  if (app.stats().switchover_at) {
    table.add_row({"detection + switchover latency",
                   (*app.stats().switchover_at - 1500_ms).to_string()});
  }
  table.add_row({"device watchdog trips",
                 std::to_string(device.counters().watchdog_trips)});
  table.add_row({"device state at end",
                 profinet::to_string(device.state())});
  table.add_row({"cyclic frames delivered to I/O",
                 std::to_string(device.counters().cyclic_rx)});

  // Gap analysis on the to-I/O series around the failure.
  double min_bin = 1e18;
  for (const auto& b : to_io.bins()) {
    if (b.start >= 200_ms && b.start < 2900_ms) {
      min_bin = std::min(min_bin, b.value);
    }
  }
  table.add_row({"min packets/50ms to I/O (steady window)",
                 core::TextTable::num(min_bin, 0)});
  table.print(std::cout);

  bench::Checks checks{args};
  checks.out() << "\npaper's shape checks:\n";
  checks.check(app.switched_over(),
               "data-plane switchover triggered after primary silence");
  checks.check(min_bin >= 15,
               "I/O device remained controlled through the switchover "
               "(~25 pkts/50ms at 2 ms cycle)");
  checks.check(device.counters().watchdog_trips == 0,
               "device watchdog never expired");
  return checks.exit_code();
}
