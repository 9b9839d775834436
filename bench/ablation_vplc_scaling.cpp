// §2.1: "current evaluations omit how systems scale; e.g., how
// performance changes when multiple robot applications, vPLCs, or other
// sources of network traffic are running simultaneously."
//
// We consolidate N vPLCs onto one virtualized server (shared host path,
// contention-scaled) and measure each control loop's cycle jitter at the
// device plus watchdog trips as N grows.
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "core/sweep_runner.hpp"
#include "host/host_path.hpp"
#include "net/switch_node.hpp"
#include "profinet/controller.hpp"
#include "profinet/io_device.hpp"
#include "sim/stats.hpp"

namespace {

using namespace steelnet;
using namespace steelnet::sim::literals;

struct ScalingResult {
  sim::SampleSet cycle_error_us;  ///< |inter-arrival - cycle| at devices
  std::uint64_t watchdog_trips = 0;
};

ScalingResult run_one(std::size_t n_vplcs, sim::SimTime duration) {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::SwitchConfig swcfg;
  swcfg.mac_learning = false;
  auto& sw = network.add_node<net::SwitchNode>("sw", swcfg);

  // One consolidated server runs every vPLC: all share the host path,
  // whose contention stage scales with the number of active loops.
  auto host_path = host::HostProfile::virtualized_rt(11);
  host_path->set_load(n_vplcs);

  ScalingResult result;
  std::vector<std::unique_ptr<profinet::CyclicController>> controllers;
  std::vector<std::unique_ptr<profinet::IoDevice>> devices;
  std::vector<std::optional<sim::SimTime>> last(n_vplcs);

  for (std::size_t i = 0; i < n_vplcs; ++i) {
    auto& plc_host = network.add_node<net::HostNode>(
        "vplc" + std::to_string(i), net::MacAddress{0x100 + i});
    auto& dev_host = network.add_node<net::HostNode>(
        "dev" + std::to_string(i), net::MacAddress{0x200 + i});
    network.connect(plc_host.id(), 0, sw.id(),
                    static_cast<net::PortId>(2 * i));
    network.connect(dev_host.id(), 0, sw.id(),
                    static_cast<net::PortId>(2 * i + 1));
    sw.add_fdb_entry(plc_host.mac(), static_cast<net::PortId>(2 * i));
    sw.add_fdb_entry(dev_host.mac(), static_cast<net::PortId>(2 * i + 1));
    plc_host.set_host_path(host_path.get());

    profinet::ControllerConfig cfg;
    cfg.ar_id = static_cast<std::uint16_t>(i + 1);
    cfg.device_mac = dev_host.mac();
    cfg.cycle = 2_ms;
    controllers.push_back(
        std::make_unique<profinet::CyclicController>(plc_host, cfg));
    devices.push_back(std::make_unique<profinet::IoDevice>(dev_host));
    devices.back()->set_output_handler(
        [&result, &last, i, &simulator](const std::vector<std::uint8_t>&,
                                        bool) {
          const auto now = simulator.now();
          if (last[i]) {
            result.cycle_error_us.add(
                std::abs((now - *last[i]).micros() - 2000.0));
          }
          last[i] = now;
        });
    controllers.back()->connect();
  }

  simulator.run_until(duration);
  for (const auto& d : devices) {
    result.watchdog_trips += d->counters().watchdog_trips;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using enum steelnet::bench::Flag;
  const auto args = steelnet::bench::BenchArgs::parse(argc, argv, {kJobs});

  std::cout << "=== §2.1: consolidating vPLCs on one server (2 ms cycles, "
               "5 s runs) ===\n\n";
  core::TextTable table({"vPLCs", "cycle error p50 (us)",
                         "cycle error p99 (us)", "p99.9 (us)", "max (us)",
                         "watchdog trips"});
  // Each consolidation level is its own 5 s simulation; sweep the levels
  // across the worker pool and tabulate in ascending-N order.
  const std::vector<std::size_t> levels{1, 4, 16, 32, 64};
  const auto slots = steelnet::core::SweepRunner{args.jobs}.run(
      levels.size(), [&](std::size_t i) { return run_one(levels[i], 5_s); });
  std::vector<double> p99s;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (!slots[i].ok()) {
      std::cerr << "ablation_vplc_scaling: N=" << levels[i]
                << " failed: " << slots[i].error << "\n";
      return 1;
    }
    const ScalingResult& r = *slots[i].value;
    p99s.push_back(r.cycle_error_us.percentile(99));
    table.add_row({std::to_string(levels[i]),
                   core::TextTable::num(r.cycle_error_us.percentile(50), 1),
                   core::TextTable::num(r.cycle_error_us.percentile(99), 1),
                   core::TextTable::num(r.cycle_error_us.percentile(99.9), 1),
                   core::TextTable::num(r.cycle_error_us.max(), 1),
                   std::to_string(r.watchdog_trips)});
  }
  table.print(std::cout);

  steelnet::bench::Checks checks{args};
  checks.out() << "\nshape check:\n";
  checks.check(p99s.back() > 2 * p99s.front(),
               "consolidation degrades tail cycle accuracy (>2x p99 from 1 "
               "to 64 vPLCs)");
  std::cout << "the paper's point: this scaling dimension is exactly what "
               "published vPLC evaluations leave out.\n";
  return checks.exit_code();
}
