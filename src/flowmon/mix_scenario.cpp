#include "flowmon/mix_scenario.hpp"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "flowmon/flow_sender.hpp"
#include "net/host_node.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace steelnet::flowmon {
namespace {

// Deterministic MAC plan: one OUI-like prefix per role.
constexpr std::uint64_t kDcHostBase = 0x0a'0000'000001ULL;
constexpr std::uint64_t kVplcHostBase = 0x0b'0000'000001ULL;
constexpr std::uint64_t kFlowDstBase = 0x0c'0000'000001ULL;
constexpr std::uint64_t kSinkMac = 0x0c'ffff'ffff'01ULL & 0xffff'ffff'ffffULL;
constexpr std::uint64_t kExportMac = 0x0d'0000'000001ULL;
constexpr std::uint64_t kCollectorMac = 0x0e'0000'000001ULL;

}  // namespace

MeasuredMixResult run_measured_mix(const MeasuredMixSpec& spec) {
  sim::Simulator sim;
  net::Network net{sim};

  auto& sw = net.add_node<net::SwitchNode>("sw0");

  std::vector<net::HostNode*> dc_hosts;
  std::vector<net::HostNode*> vplc_hosts;
  net::PortId port = 0;
  for (std::size_t i = 0; i < spec.dc_hosts; ++i) {
    auto& h = net.add_node<net::HostNode>(
        "dc" + std::to_string(i), net::MacAddress{kDcHostBase + i});
    net.connect(sw.id(), port++, h.id(), net::HostNode::kNicPort);
    dc_hosts.push_back(&h);
  }
  for (std::size_t i = 0; i < spec.vplc_hosts; ++i) {
    auto& h = net.add_node<net::HostNode>(
        "vplc" + std::to_string(i), net::MacAddress{kVplcHostBase + i});
    net.connect(sw.id(), port++, h.id(), net::HostNode::kNicPort);
    vplc_hosts.push_back(&h);
  }
  auto& sink = net.add_node<net::HostNode>("sink", net::MacAddress{kSinkMac});
  const net::PortId sink_port = port++;
  net.connect(sw.id(), sink_port, sink.id(), net::HostNode::kNicPort);

  auto& export_nic = net.add_node<net::HostNode>(
      "meter-mgmt", net::MacAddress{kExportMac});
  net.connect(sw.id(), port++, export_nic.id(), net::HostNode::kNicPort);

  auto& collector = net.add_node<CollectorNode>(
      "collector", net::MacAddress{kCollectorMac});
  const net::PortId collector_port = port++;
  net.connect(sw.id(), collector_port, collector.id(), 0);
  sw.add_fdb_entry(collector.mac(), collector_port);

  MeterConfig meter_cfg = spec.meter;
  meter_cfg.collector_mac = collector.mac();
  auto meter = std::make_unique<MeterPoint>(sw, export_nic, meter_cfg);

  // --- offered workload ------------------------------------------------
  // Flow identity is (src, dst, pcp, ethertype); every flow gets a unique
  // destination MAC (pre-routed via the static FDB) so concurrent flows
  // from one host stay distinct at the meter.
  MeasuredMixResult result;
  sim::Rng root{spec.seed};
  std::vector<std::unique_ptr<FlowSender>> flows;
  std::uint64_t next_dst = 0;
  std::uint64_t flow_id = 0;

  auto add_flow = [&](net::HostNode& host, FlowSender::Plan plan,
                      sim::Rng rng) {
    plan.dst = net::MacAddress{kFlowDstBase + next_dst++};
    sw.add_fdb_entry(plan.dst, sink_port);
    plan.flow_id = flow_id++;
    flows.push_back(std::make_unique<FlowSender>(
        sim, host, plan, std::move(rng), spec.observation,
        result.frames_sent));
  };

  // Byte-bounded flows finish well inside the window (by ~60% of it) so
  // the idle sweep closes them before the final flush; only the vPLC
  // flows are still live then, which is exactly what makes them measure
  // as open-ended.
  const double window_s = spec.observation.seconds();
  sim::Rng mice_rng = root.derive("mice");
  for (std::size_t i = 0; i < spec.mice; ++i) {
    FlowSender::Plan p;
    p.payload_bytes = 800;
    p.total_bytes =
        static_cast<std::uint64_t>(mice_rng.uniform(200, 9.0 * 1024));
    p.start = sim::SimTime{static_cast<std::int64_t>(
        mice_rng.uniform(0, 0.5 * window_s * 1e9))};
    p.gap_lo = sim::microseconds(20);
    p.gap_hi = sim::microseconds(200);
    add_flow(*dc_hosts[i % dc_hosts.size()], p, mice_rng.fork());
  }
  sim::Rng medium_rng = root.derive("medium");
  for (std::size_t i = 0; i < spec.medium; ++i) {
    FlowSender::Plan p;
    p.payload_bytes = 1400;
    p.total_bytes = static_cast<std::uint64_t>(
        medium_rng.lognormal(std::log(150.0 * 1024), 0.4));
    p.start = sim::SimTime{static_cast<std::int64_t>(
        medium_rng.uniform(0, 0.2 * window_s * 1e9))};
    p.gap_lo = sim::microseconds(500);
    p.gap_hi = sim::microseconds(2000);
    add_flow(*dc_hosts[i % dc_hosts.size()], p, medium_rng.fork());
  }
  sim::Rng ele_rng = root.derive("elephant");
  for (std::size_t i = 0; i < spec.elephants; ++i) {
    FlowSender::Plan p;
    p.payload_bytes = 1400;
    p.total_bytes = static_cast<std::uint64_t>(
        ele_rng.uniform(1.25, 3.0) * 1024 * 1024);
    p.start = sim::SimTime{
        static_cast<std::int64_t>(ele_rng.uniform(0, 0.05 * window_s * 1e9))};
    p.gap_lo = sim::microseconds(100);
    p.gap_hi = sim::microseconds(500);
    add_flow(*dc_hosts[i % dc_hosts.size()], p, ele_rng.fork());
  }
  sim::Rng vplc_rng = root.derive("vplc");
  for (std::size_t i = 0; i < spec.vplc_flows; ++i) {
    // §2.3 vPLC cadences: < 2 ms cycles with 20-50 B payloads, or 1-10 ms
    // with up to 250 B -- exactly periodic and never-ending.
    FlowSender::Plan p;
    const bool fast = vplc_rng.bernoulli(0.5);
    p.ethertype = net::EtherType::kProfinetRt;
    p.pcp = 6;
    p.periodic = true;
    p.cycle = sim::SimTime{static_cast<std::int64_t>(
        fast ? vplc_rng.uniform(250e3, 2e6) : vplc_rng.uniform(1e6, 10e6))};
    p.payload_bytes = static_cast<std::size_t>(
        fast ? vplc_rng.uniform(20, 50) : vplc_rng.uniform(40, 250));
    p.start = sim::SimTime{
        static_cast<std::int64_t>(vplc_rng.uniform(0, 1e6))};
    add_flow(*vplc_hosts[i % vplc_hosts.size()], p, vplc_rng.fork());
  }
  result.flows_offered = flows.size();

  // --- run, flush, drain ------------------------------------------------
  sim.run_until(spec.observation);
  meter->flush();
  sim.run_until(spec.observation + sim::milliseconds(50));

  result.meter = meter->stats();
  result.cache = meter->cache().stats();
  meter.reset();  // detach before nodes go away

  result.flows = collector.flows();
  result.measured = collector.measured_stats();
  result.collector = collector.counters();
  result.fingerprint = collector.fingerprint();
  return result;
}

}  // namespace steelnet::flowmon
