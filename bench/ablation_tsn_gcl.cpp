// Ablation (§1.1): what the 802.1Qbv time-aware shaper buys a real-time
// flow that shares an egress port with bursty best-effort traffic.
//
// Without gates, an RT frame can arrive just after a 1500 B best-effort
// frame started (~12 us head-of-line at 1 GbE). With a protected window
// aligned to the RT cycle, the guard band keeps the wire clear.
#include <iostream>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "net/host_node.hpp"
#include "net/switch_node.hpp"
#include "sim/stats.hpp"
#include "tsn/gcl.hpp"

namespace {

using namespace steelnet;
using namespace steelnet::sim::literals;

sim::SampleSet run_one(bool with_gcl, int n_cycles) {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::SwitchConfig scfg;
  scfg.mac_learning = false;
  auto& sw = network.add_node<net::SwitchNode>("sw", scfg);
  auto& rt_tx = network.add_node<net::HostNode>("rt", net::MacAddress{1});
  auto& be_tx = network.add_node<net::HostNode>("be", net::MacAddress{2});
  auto& rx = network.add_node<net::HostNode>("rx", net::MacAddress{3});
  network.connect(rt_tx.id(), 0, sw.id(), 0);
  network.connect(be_tx.id(), 0, sw.id(), 1);
  network.connect(rx.id(), 0, sw.id(), 2);
  sw.add_fdb_entry(net::MacAddress{3}, 2);

  // Protected window: first 30 us of every 500 us cycle for pcp >= 6.
  const auto cycle = 500_us;
  tsn::GateControlList gcl =
      tsn::make_protected_window_gcl(cycle, 30_us, 6);
  if (with_gcl) sw.set_gate_controller(2, &gcl);

  sim::SampleSet latency_us;
  rx.set_receiver([&](net::Frame f, sim::SimTime at) {
    if (f.pcp == 6) latency_us.add((at - f.created_at).micros());
  });

  // RT sender: one 84 B frame at the start of each cycle (phase 1 us).
  sim::PeriodicTask rt_task(simulator, 1_us, cycle, [&] {
    net::Frame f;
    f.dst = net::MacAddress{3};
    f.pcp = 6;
    f.payload.resize(40);
    rt_tx.send(std::move(f));
  });
  // Best-effort blaster: 1500 B frames as fast as the wire allows.
  sim::PeriodicTask be_task(simulator, 0_ns, 12_us, [&] {
    net::Frame f;
    f.dst = net::MacAddress{3};
    f.pcp = 0;
    f.payload.resize(1500);
    be_tx.send(std::move(f));
  });

  simulator.run_until(cycle * n_cycles);
  return latency_us;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = steelnet::bench::BenchArgs::parse(argc, argv, {});

  std::cout << "=== Ablation: time-aware shaping (802.1Qbv) on a shared "
               "egress port ===\n"
            << "RT flow: 84 B every 500 us at pcp 6; best-effort: 1500 B "
               "line-rate at pcp 0; 1 GbE\n\n";

  const auto without = run_one(false, 4000);
  const auto with = run_one(true, 4000);

  std::cout << core::quantile_table(
                   {{"strict priority only", &without},
                    {"with protected window (GCL)", &with}},
                   "us")
            << '\n';

  const double spread_without =
      without.percentile(99.9) - without.percentile(1);
  const double spread_with = with.percentile(99.9) - with.percentile(1);
  core::TextTable table({"config", "p1..p99.9 spread (us)"});
  table.add_row({"strict priority only",
                 core::TextTable::num(spread_without, 3)});
  table.add_row({"with GCL", core::TextTable::num(spread_with, 3)});
  table.print(std::cout);

  steelnet::bench::Checks checks{args};
  checks.out() << "\nshape check:\n";
  checks.check(spread_with < spread_without / 4,
               "the gate removes best-effort head-of-line variance from the "
               "RT flow");
  return checks.exit_code();
}
