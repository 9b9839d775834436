// The §2.2 / §4 availability comparison: for each high-availability
// mechanism, inject a primary failure and measure the control gap the
// I/O device experiences, then translate gaps into yearly availability
// (99.9999% = 31.5 s/yr budget, one failure per month assumed).
//
// Mechanisms:
//   none            -- single vPLC, operator restarts it (~30 s)
//   k8s-restart     -- orchestrator reschedules the pod (~5 s; [57]
//                      reports 110 ms .. 55.4 s depending on failure)
//   hw-pair         -- classic redundant PLC pair w/ dedicated sync links
//                      (detection + 50..300 ms role change; §4 / [98])
//   InstaPLC        -- in-network switchover, no dedicated links
//
// The four measurements are independent single-threaded simulations and
// fan out over a core::SweepRunner pool (--jobs); results reduce in
// mechanism order, so the table and the --csv rows are byte-identical at
// any job count.
#include <iostream>
#include <optional>
#include <vector>

#include "bench_args.hpp"
#include "core/availability.hpp"
#include "core/report.hpp"
#include "core/sweep_runner.hpp"
#include "faults/instaplc_testbed.hpp"
#include "net/switch_node.hpp"
#include "plc/redundancy.hpp"
#include "profinet/controller.hpp"
#include "profinet/io_device.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace steelnet;
using namespace steelnet::sim::literals;

/// Tracks cyclic arrivals at a device and reports the largest gap in
/// fresh *valid* output data around the failure.
struct GapProbe {
  std::optional<sim::SimTime> last;
  sim::SimTime max_gap;

  void attach(profinet::IoDevice& device, sim::Simulator& simulator) {
    device.set_output_handler(
        [this, &simulator](const std::vector<std::uint8_t>&, bool run) {
          if (!run) return;  // safe-state writes don't count as control
          const auto now = simulator.now();
          if (last) max_gap = std::max(max_gap, now - *last);
          last = now;
        });
  }
};

sim::SimTime measure_unprotected(sim::SimTime restart_delay) {
  sim::Simulator simulator;
  net::Network network{simulator};
  auto& sw = network.add_node<net::SwitchNode>("sw");
  auto& dev_host = network.add_node<net::HostNode>("dev", net::MacAddress{0xD});
  auto& plc_host = network.add_node<net::HostNode>("plc", net::MacAddress{0x1});
  network.connect(dev_host.id(), 0, sw.id(), 0);
  network.connect(plc_host.id(), 0, sw.id(), 1);
  profinet::IoDevice device(dev_host);
  profinet::ControllerConfig cfg;
  cfg.device_mac = dev_host.mac();
  profinet::CyclicController vplc(plc_host, cfg);
  GapProbe probe;
  probe.attach(device, simulator);

  vplc.connect();
  simulator.schedule_at(1_s, [&] { vplc.stop(); });
  simulator.schedule_at(1_s + restart_delay, [&] { vplc.connect(); });
  simulator.run_until(1_s + restart_delay + 5_s);
  return probe.max_gap;
}

sim::SimTime measure_hw_pair() {
  sim::Simulator simulator;
  net::Network network{simulator};
  auto& sw = network.add_node<net::SwitchNode>("sw");
  auto& dev_host = network.add_node<net::HostNode>("dev", net::MacAddress{0xD});
  auto& a_host = network.add_node<net::HostNode>("plc-a", net::MacAddress{0x1});
  auto& b_host = network.add_node<net::HostNode>("plc-b", net::MacAddress{0x2});
  network.connect(dev_host.id(), 0, sw.id(), 0);
  network.connect(a_host.id(), 0, sw.id(), 1);
  network.connect(b_host.id(), 0, sw.id(), 2);
  profinet::IoDevice device(dev_host);
  profinet::ControllerConfig cfg;
  cfg.device_mac = dev_host.mac();
  profinet::CyclicController primary(a_host, cfg);
  profinet::CyclicController secondary(b_host, cfg);
  GapProbe probe;
  probe.attach(device, simulator);

  // 3x10ms detection + 100ms role change.
  plc::RedundantPlcPair pair(primary, secondary, simulator);
  pair.start();
  simulator.schedule_at(1_s, [&] { pair.fail_primary(); });
  simulator.run_until(5_s);
  return probe.max_gap;
}

/// The fault matrix's testbed; its primary vPLC stops at 1 s.
sim::SimTime measure_instaplc() {
  sim::Simulator simulator;
  faults::InstaPlcTestbed testbed{simulator,
                                  faults::silent_primary_scenario(1), {}};
  testbed.start();
  simulator.run_until(5_s);
  return testbed.collect().max_output_gap;
}

}  // namespace

int main(int argc, char** argv) {
  using enum steelnet::bench::Flag;
  const auto args = steelnet::bench::BenchArgs::parse(
      argc, argv, {kCsv, kJobs});

  struct Mechanism {
    std::string name;
    std::string notes;
  };
  const std::vector<Mechanism> mechanisms = {
      {"none (operator restart)", "single vPLC, manual recovery"},
      {"k8s pod restart [57]", "orchestrated reschedule + reconnect"},
      {"hw redundant pair [98]", "dedicated sync links, 100 ms role change"},
      {"InstaPLC (in-network)", "no dedicated links, data-plane switchover"},
  };

  // Each measurement owns its whole testbed, so the four runs fan out
  // across the worker pool and reduce in mechanism order.
  const auto slots =
      core::SweepRunner{args.jobs}.run(mechanisms.size(), [](std::size_t i) {
        switch (i) {
          case 0:
            return measure_unprotected(30_s);
          case 1:
            return measure_unprotected(5_s);
          case 2:
            return measure_hw_pair();
          default:
            return measure_instaplc();
        }
      });

  std::vector<sim::SimTime> gaps;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].ok()) {
      std::cerr << "tab_availability: mechanism '" << mechanisms[i].name
                << "' failed: " << slots[i].error << "\n";
      return 1;
    }
    gaps.push_back(*slots[i].value);
  }

  if (args.csv) {
    std::cout << "mechanism,control_gap_ns,yearly_downtime_s,"
                 "availability_at_12_per_year,nines,meets_six_nines\n";
    for (std::size_t i = 0; i < mechanisms.size(); ++i) {
      const auto row = core::make_row(mechanisms[i].name, gaps[i]);
      std::cout << mechanisms[i].name << ',' << gaps[i].nanos() << ','
                << core::TextTable::num(row.yearly_downtime_seconds, 6) << ','
                << core::TextTable::num(row.availability_at_12_per_year, 9)
                << ','
                << core::TextTable::num(core::availability_to_nines(
                                            row.availability_at_12_per_year),
                                        3)
                << ',' << (row.meets_six_nines ? 1 : 0) << '\n';
    }
  } else {
    std::cout << "=== §2.2/§4: availability per HA mechanism (measured "
                 "control gap at the I/O device) ===\n\n";

    core::TextTable table({"mechanism", "control gap",
                           "downtime/yr @12 fail", "availability", "nines",
                           ">= 99.9999%?", "notes"});
    for (std::size_t i = 0; i < mechanisms.size(); ++i) {
      const auto row = core::make_row(mechanisms[i].name, gaps[i]);
      table.add_row(
          {mechanisms[i].name, gaps[i].to_string(),
           core::TextTable::num(row.yearly_downtime_seconds, 2) + " s",
           core::TextTable::num(row.availability_at_12_per_year * 100.0, 6) +
               "%",
           core::TextTable::num(core::availability_to_nines(
                                    row.availability_at_12_per_year),
                                2),
           row.meets_six_nines ? "yes" : "NO", mechanisms[i].notes});
    }
    table.print(std::cout);

    std::cout << "\nbudget: 99.9999% availability = "
              << core::downtime_per_year(0.999999).to_string()
              << " downtime per year (§2.2)\n";
  }

  bench::Checks checks{args};
  checks.out() << "shape check:\n";
  checks.check(gaps[3] < gaps[2] && gaps[2] < gaps[1],
               "InstaPLC gap < hw pair gap < k8s restart gap");
  return checks.exit_code();
}
