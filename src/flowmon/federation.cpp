#include "flowmon/federation.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "flowmon/flow_sender.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "obs/hub.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace steelnet::flowmon {
namespace {

// Deterministic MAC plan: one OUI-like prefix per role, cell in the
// second octet group.
constexpr std::uint64_t kHostBase = 0x1a'0000'000001ULL;
constexpr std::uint64_t kSinkBase = 0x1c'0000'000001ULL;
constexpr std::uint64_t kMgmtBase = 0x1d'0000'000001ULL;
constexpr std::uint64_t kCellColBase = 0x1e'0000'000001ULL;
constexpr std::uint64_t kUplinkBase = 0x1f'0000'000001ULL;
constexpr std::uint64_t kFlowDstBase = 0x2c'0000'000001ULL;
constexpr std::uint64_t kPlantColMac = 0x20'0000'000001ULL;
constexpr std::uint64_t kCellStride = 0x100;

TierRow row_of(std::string tier, const CollectorNode& col) {
  TierRow row;
  row.tier = std::move(tier);
  const CollectorCounters& c = col.counters();
  row.received = c.records;
  row.lost = c.lost_records;
  row.reordered = c.sequence_reordered;
  row.template_misses = c.records_without_template;
  row.malformed = c.malformed;
  row.transform_dropped = c.transform_dropped;
  row.reexported = c.reexported_records;
  row.flows = col.tracked_flows();
  const sim::SampleSet& lag = col.export_lag_us();
  if (!lag.empty()) {
    row.lag_mean_us = lag.mean();
    row.lag_p95_us = lag.percentile(95.0);
  }
  return row;
}

}  // namespace

FederationResult run_federation(const FederationSpec& spec) {
  sim::Simulator sim;
  net::Network net{sim};
  obs::ObsHub hub{obs::TraceConfig{.trace_frames = false}};
  net.set_obs(&hub);

  // --- plant tier -------------------------------------------------------
  auto& plant_sw = net.add_node<net::SwitchNode>("plant-sw");
  auto& plant_col = net.add_node<CollectorNode>(
      "plant-col", net::MacAddress{kPlantColMac});
  const net::PortId plant_col_port = static_cast<net::PortId>(spec.cells);
  net.connect(plant_sw.id(), plant_col_port, plant_col.id(), 0);
  plant_sw.add_fdb_entry(plant_col.mac(), plant_col_port);

  // --- cells ------------------------------------------------------------
  struct Cell {
    net::SwitchNode* sw = nullptr;
    std::vector<net::HostNode*> hosts;
    net::HostNode* uplink = nullptr;
    CollectorNode* col = nullptr;
    std::unique_ptr<MeterPoint> meter;
  };
  std::vector<Cell> cells{spec.cells};
  std::uint64_t next_dst = 0;
  FederationResult result;
  sim::Rng root{spec.seed};
  std::vector<std::unique_ptr<FlowSender>> flows;

  for (std::size_t c = 0; c < spec.cells; ++c) {
    Cell& cell = cells[c];
    const std::string label = "cell" + std::to_string(c);
    const std::uint64_t base = c * kCellStride;

    cell.sw = &net.add_node<net::SwitchNode>(label + "-sw");

    net::PortId port = 0;
    for (std::size_t i = 0; i < spec.hosts_per_cell; ++i) {
      auto& h = net.add_node<net::HostNode>(
          label + "-h" + std::to_string(i),
          net::MacAddress{kHostBase + base + i});
      net.connect(cell.sw->id(), port++, h.id(), net::HostNode::kNicPort);
      cell.hosts.push_back(&h);
    }
    auto& sink = net.add_node<net::HostNode>(
        label + "-sink", net::MacAddress{kSinkBase + base});
    const net::PortId sink_port = port++;
    net.connect(cell.sw->id(), sink_port, sink.id(), net::HostNode::kNicPort);

    auto& mgmt = net.add_node<net::HostNode>(
        label + "-mgmt", net::MacAddress{kMgmtBase + base});
    net.connect(cell.sw->id(), port++, mgmt.id(), net::HostNode::kNicPort);

    cell.col = &net.add_node<CollectorNode>(
        label + "-col", net::MacAddress{kCellColBase + base});
    const net::PortId col_port = port++;
    net.connect(cell.sw->id(), col_port, cell.col->id(), 0);
    cell.sw->add_fdb_entry(cell.col->mac(), col_port);

    cell.uplink = &net.add_node<net::HostNode>(
        label + "-uplink", net::MacAddress{kUplinkBase + base});
    net.connect(cell.sw->id(), port++, cell.uplink->id(),
                net::HostNode::kNicPort);

    // Trunk to the plant switch; the plant collector is reached through it.
    const net::PortId trunk_port = port++;
    net.connect(cell.sw->id(), trunk_port, plant_sw.id(),
                static_cast<net::PortId>(c));
    cell.sw->add_fdb_entry(plant_col.mac(), trunk_port);

    // Meter on the cell switch, exporting to the cell collector with a
    // per-cell observation domain.
    MeterConfig meter_cfg = spec.meter;
    meter_cfg.collector_mac = cell.col->mac();
    meter_cfg.observation_domain = static_cast<std::uint32_t>(c + 1);
    cell.meter = std::make_unique<MeterPoint>(*cell.sw, mgmt, meter_cfg);
    cell.meter->register_metrics(hub, label + "-sw");

    // Cell collector mediates upward: per-cell re-export domain, the
    // spec's transform rules.
    ReExportConfig re = spec.reexport;
    re.upstream_mac = plant_col.mac();
    if (re.rules.rewrite_domain == 0) {
      re.rules.rewrite_domain = static_cast<std::uint32_t>(100 + c);
    }
    cell.col->enable_reexport(*cell.uplink, re);
    cell.col->register_metrics(hub);

    // --- offered workload for this cell --------------------------------
    const double window_s = spec.observation.seconds();
    sim::Rng cell_rng = root.derive(label);
    auto add_flow = [&](net::HostNode& host, FlowSender::Plan plan,
                        sim::Rng rng) {
      plan.dst = net::MacAddress{kFlowDstBase + next_dst++};
      cell.sw->add_fdb_entry(plan.dst, sink_port);
      flows.push_back(std::make_unique<FlowSender>(sim, host, plan,
                                                   std::move(rng),
                                                   spec.observation,
                                                   result.frames_sent));
    };
    sim::Rng bursty_rng = cell_rng.derive("bursty");
    for (std::size_t h = 0; h < spec.hosts_per_cell; ++h) {
      for (std::size_t f = 0; f < spec.bursty_per_host; ++f) {
        FlowSender::Plan p;
        p.payload_bytes = 600;
        p.total_bytes =
            static_cast<std::uint64_t>(bursty_rng.uniform(4, 40)) *
            p.payload_bytes;
        p.start = sim::SimTime{static_cast<std::int64_t>(
            bursty_rng.uniform(0, 0.4 * window_s * 1e9))};
        p.gap_lo = sim::microseconds(50);
        p.gap_hi = sim::microseconds(500);
        add_flow(*cell.hosts[h], p, bursty_rng.fork());
      }
    }
    sim::Rng vplc_rng = cell_rng.derive("vplc");
    for (std::size_t f = 0; f < spec.vplc_per_cell; ++f) {
      FlowSender::Plan p;
      p.ethertype = net::EtherType::kProfinetRt;
      p.pcp = 6;
      p.periodic = true;
      p.cycle = sim::SimTime{
          static_cast<std::int64_t>(vplc_rng.uniform(1e6, 8e6))};
      p.payload_bytes =
          static_cast<std::size_t>(vplc_rng.uniform(40, 250));
      p.start = sim::SimTime{
          static_cast<std::int64_t>(vplc_rng.uniform(0, 1e6))};
      add_flow(*cell.hosts[f % spec.hosts_per_cell], p, vplc_rng.fork());
    }
  }
  plant_col.register_metrics(hub);

  // --- run, flush tier by tier, drain -----------------------------------
  sim.run_until(spec.observation);
  for (Cell& cell : cells) cell.meter->flush();
  // Let the final meter exports reach the cell collectors...
  sim.run_until(spec.observation + sim::milliseconds(20));
  // ...push the mediated tail upstream...
  for (Cell& cell : cells) cell.col->flush_reexport();
  // ...and let it land at the plant collector.
  sim.run_until(spec.observation + sim::milliseconds(40));

  // --- per-tier rows + conservation -------------------------------------
  std::uint64_t meter_records_total = 0;
  std::uint64_t cell_received_total = 0;
  std::uint64_t cell_lost_total = 0;
  std::uint64_t reexported_total = 0;
  for (std::size_t c = 0; c < spec.cells; ++c) {
    Cell& cell = cells[c];
    TierRow row = row_of("cell" + std::to_string(c), *cell.col);
    row.offered = cell.meter->stats().records_exported;
    meter_records_total += row.offered;
    cell_received_total += row.received;
    cell_lost_total += row.lost;
    reexported_total += row.reexported;
    result.cell_flows_total += row.flows;
    result.cells.push_back(std::move(row));
  }
  result.plant = row_of("plant", plant_col);
  result.plant.offered = reexported_total;
  result.cell_conservation_ok =
      meter_records_total == cell_received_total + cell_lost_total;
  result.plant_conservation_ok =
      reexported_total == result.plant.received + result.plant.lost;
  result.plant_fingerprint = plant_col.fingerprint();
  // Render metrics while the meters (whose bound counters live in the
  // registry) are still alive; only then detach them from their nodes.
  result.metrics_prom = hub.metrics().to_prometheus();
  for (Cell& cell : cells) cell.meter.reset();
  return result;
}

}  // namespace steelnet::flowmon
