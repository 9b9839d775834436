#include "net/campus.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "faults/fault_plane.hpp"
#include "faults/scenario.hpp"
#include "net/cell_artifacts.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "profinet/controller.hpp"
#include "profinet/io_device.hpp"
#include "sim/random.hpp"

namespace steelnet::net {

namespace {

/// Everything one cell owns. Only its owning shard's worker thread ever
/// touches any of it, so no member needs synchronization.
struct CellPlant {
  explicit CellPlant(sim::Simulator& sim) : net(sim) {}

  Network net;
  Fabric fabric;
  std::vector<std::unique_ptr<profinet::CyclicController>> controllers;
  std::vector<std::unique_ptr<profinet::IoDevice>> devices;
  std::unique_ptr<faults::FaultPlane> plane;
  std::unique_ptr<sim::PeriodicTask> reporter;
  std::vector<std::uint32_t> report_dsts;

  // Sink-side accounting of inbound cross-cell reports.
  std::uint64_t reports_received = 0;
  std::uint64_t report_bytes = 0;
  std::int64_t report_latency_ns_total = 0;
  std::uint64_t reports_sent = 0;

  // Device safe-state windows: trip time -> outputs-running again.
  std::vector<std::int64_t> outage_started;  ///< per device, -1 = running
  std::uint64_t outages = 0;
  std::int64_t outage_ns_total = 0;
};

constexpr std::size_t kReportBytes = 32;
/// Backbone ring depth. A channel carries one report per report period,
/// so 64 slots leave ample headroom while keeping the 720 rings of a
/// 240-cell campus small (the 1024-slot default is ~155 KB per ring).
constexpr std::size_t kBackboneRingSlots = 64;
constexpr std::size_t kGwHost = 0;
constexpr std::size_t kSinkHost = 1;
constexpr std::size_t kFirstDeviceHost = 2;

std::string cell_name(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "cell_%03zu", i);
  return buf;
}

/// One deterministic per-cell fault script: the first controller's host
/// crashes mid-run and restarts, and the first device's link gets a lossy
/// window. All draws come from the cell's own derived stream, so the
/// script is a pure function of (campus seed, cell id).
faults::FaultScenario cell_scenario(sim::Rng& rng, const CampusOptions& opt,
                                    std::size_t devices) {
  faults::FaultScenario sc;
  sc.name = "campus-cell";
  sc.seed = rng.next_u64();
  const std::int64_t horizon = opt.horizon.nanos();
  const std::int64_t cycle = opt.cycle.nanos();

  faults::FaultSpec crash;
  crash.kind = faults::FaultKind::kNodeCrash;
  crash.node = "c-h" + std::to_string(kFirstDeviceHost + devices);
  crash.at = sim::SimTime{rng.uniform_int(horizon / 4, horizon / 2)};
  crash.duration = sim::SimTime{rng.uniform_int(5 * cycle, 15 * cycle)};
  sc.faults.push_back(crash);

  faults::FaultSpec loss;
  loss.kind = faults::FaultKind::kLoss;
  loss.node = "c-h" + std::to_string(kFirstDeviceHost);
  loss.port = HostNode::kNicPort;
  loss.at = sim::SimTime{rng.uniform_int(0, horizon / 4)};
  loss.duration = sim::SimTime{rng.uniform_int(10 * cycle, 20 * cycle)};
  loss.probability = 0.2;
  sc.faults.push_back(loss);
  return sc;
}

void build_cell(sim::ShardedSimulator::Cell& cell, CellPlant& plant,
                const CampusOptions& opt, sim::Rng cell_rng) {
  const std::size_t devices = opt.devices_per_cell;
  TopologyOptions topt;
  topt.name_prefix = "c";
  plant.fabric = build_star(plant.net, 2 + 2 * devices, topt);
  install_shortest_path_routes(plant.fabric);

  // Sink: terminates rebuilt cross-cell report frames, closes the pool
  // loop, samples origin-to-sink latency from the stamped send time.
  HostNode& sink = plant.fabric.host(kSinkHost);
  sink.set_receiver([&plant](Frame frame, sim::SimTime at) {
    ++plant.reports_received;
    plant.report_bytes += frame.payload.size();
    plant.report_latency_ns_total +=
        at.nanos() - static_cast<std::int64_t>(frame.read_u64(8));
    plant.net.frame_pool().recycle(std::move(frame));
  });

  // PROFINET plants: device d on host 2+d, its controller on host 2+D+d.
  sim::Rng connect_rng = cell_rng.derive("connect");
  plant.outage_started.assign(devices, -1);
  for (std::size_t d = 0; d < devices; ++d) {
    HostNode& dev_host = plant.fabric.host(kFirstDeviceHost + d);
    HostNode& ctl_host = plant.fabric.host(kFirstDeviceHost + devices + d);

    auto dev = std::make_unique<profinet::IoDevice>(dev_host);
    dev->set_output_handler(
        [&plant, &cell, d](const std::vector<std::uint8_t>&, bool run) {
          std::int64_t& started = plant.outage_started[d];
          const std::int64_t now = cell.sim().now().nanos();
          if (!run && started < 0) {
            started = now;
          } else if (run && started >= 0) {
            ++plant.outages;
            plant.outage_ns_total += now - started;
            started = -1;
          }
        });
    plant.devices.push_back(std::move(dev));

    profinet::ControllerConfig cfg;
    cfg.ar_id = static_cast<std::uint16_t>(d + 1);
    cfg.device_mac = dev_host.mac();
    cfg.cycle = opt.cycle;
    cfg.input_bytes = 16;
    cfg.output_bytes = 16;
    auto ctl = std::make_unique<profinet::CyclicController>(ctl_host,
                                                            std::move(cfg));
    profinet::CyclicController* ctl_raw = ctl.get();
    plant.controllers.push_back(std::move(ctl));

    // Stagger connection establishment inside the first cycle so the
    // cell's traffic is phase-shifted deterministically per device.
    const std::int64_t jitter =
        connect_rng.uniform_int(0, opt.cycle.nanos() - 1);
    cell.sim().schedule_at(sim::SimTime{jitter},
                           [ctl_raw] { ctl_raw->connect(); });
  }

  if (opt.faults) {
    plant.plane = std::make_unique<faults::FaultPlane>(
        plant.net, cell_rng.derive("faults").next_u64());
    plant.net.set_faults(plant.plane.get());
    for (std::size_t d = 0; d < devices; ++d) {
      const NodeId ctl_node =
          plant.fabric.hosts[kFirstDeviceHost + devices + d];
      profinet::CyclicController* ctl_raw = plant.controllers[d].get();
      plant.plane->set_crash_handler(ctl_node, [ctl_raw] { ctl_raw->stop(); });
      plant.plane->set_restart_handler(ctl_node,
                                       [ctl_raw] { ctl_raw->connect(); });
    }
    sim::Rng scen_rng = cell_rng.derive("scenario");
    plant.plane->schedule(cell_scenario(scen_rng, opt, devices));
  }

  // Periodic cross-cell telemetry: a 32-byte report to every backbone
  // neighbor. Cell::send stamps send_ns/seq, so the receiver's merge
  // order -- and everything downstream -- is shard-count independent.
  if (!plant.report_dsts.empty()) {
    const std::int64_t stagger =
        cell_rng.derive("report").uniform_int(0, opt.report_period.nanos() / 4);
    const sim::SimTime period = opt.report_period;
    const sim::SimTime first_report = period + sim::SimTime{stagger};
    // The reporter is this cell's only sender, so its ticks are the cell's
    // application lookahead: promising them lets neighbours run a whole
    // report period per visit instead of stopping at every PROFINET hop.
    cell.promise_no_send_before(first_report);
    plant.reporter = std::make_unique<sim::PeriodicTask>(
        cell.sim(), first_report, period, [&plant, &cell, period] {
          sim::ShardMsg msg;
          msg.kind = kCampusReportMsg;
          std::uint64_t tx = 0;
          for (const auto& c : plant.controllers) tx += c->counters().cyclic_tx;
          msg.a = tx;
          msg.b = plant.reports_received;
          std::uint8_t payload[kReportBytes] = {};
          msg.set_data(payload, kReportBytes);
          for (const std::uint32_t dst : plant.report_dsts) {
            cell.send(dst, msg);
            ++plant.reports_sent;
          }
          cell.promise_no_send_before(cell.sim().now() + period);
        });
  }
}

}  // namespace

CampusResult run_campus(const CampusOptions& opt) {
  if (opt.cells == 0) throw sim::SimError("run_campus: cells must be >= 1");
  sim::ShardedSimulator ss;
  ss.set_record_fire_log(opt.record_fire_log);
  // Declared weights stay uniform even under skew -- skew exists to make
  // the up-front guess wrong, so only a measured profile can fix it.
  for (std::size_t i = 0; i < opt.cells; ++i) {
    ss.add_cell(cell_name(i), opt.devices_per_cell);
  }
  const std::size_t hot_cells = opt.skew ? std::max<std::size_t>(1, opt.cells / 4) : 0;

  const bool measured = opt.partitioner == CampusPartitioner::kMeasuredRate;
  if (measured && opt.measured_weights.empty()) {
    throw sim::PartitionError(
        sim::PartitionErrorCode::kProfileMismatch,
        "run_campus: measured-rate partitioner needs measured_weights "
        "(run a calibration pass and feed its profile back)");
  }

  // Ring backbone with chords: cell i reports to (i+1 .. i+degree) mod n.
  std::vector<std::vector<std::uint32_t>> dsts(opt.cells);
  if (opt.cells > 1) {
    const std::size_t degree =
        std::min(opt.backbone_degree, opt.cells - 1);
    for (std::size_t i = 0; i < opt.cells; ++i) {
      for (std::size_t d = 1; d <= degree; ++d) {
        const auto dst = static_cast<std::uint32_t>((i + d) % opt.cells);
        ss.connect(static_cast<std::uint32_t>(i), dst, opt.backbone_latency,
                   kBackboneRingSlots);
        dsts[i].push_back(dst);
      }
    }
  }

  const sim::Rng root(opt.seed);
  std::vector<std::unique_ptr<CellPlant>> plants;
  plants.reserve(opt.cells);
  for (std::size_t i = 0; i < opt.cells; ++i) {
    sim::ShardedSimulator::Cell& cell = ss.cell(static_cast<std::uint32_t>(i));
    auto plant = std::make_unique<CellPlant>(cell.sim());
    plant->report_dsts = dsts[i];
    // Hot cells of the skew zone: 4x cyclic rate and a fault storm,
    // concentrated in the leading quarter so a contiguous equal-weight
    // split piles them onto the first shards.
    CampusOptions eff = opt;
    if (i < hot_cells) {
      eff.cycle = sim::SimTime{std::max<std::int64_t>(opt.cycle.nanos() / 4, 1)};
      eff.faults = true;
    }
    build_cell(cell, *plant, eff, root.derive(cell.name()));
    CellPlant* p = plant.get();
    // Inbound report: rebuild the frame from *this* cell's pool (the
    // allocation-free cross-shard handoff) and inject it at the gateway.
    cell.set_handler([p](sim::ShardedSimulator::Cell& c,
                         const sim::ShardMsg& msg) {
      if (msg.kind != kCampusReportMsg) return;
      Frame frame = p->net.frame_pool().make(msg.len);
      std::copy(msg.data, msg.data + msg.len, frame.payload.begin());
      HostNode& gw = p->fabric.host(kGwHost);
      HostNode& sink = p->fabric.host(kSinkHost);
      frame.dst = sink.mac();
      frame.src = gw.mac();
      frame.flow_id = msg.src_cell;
      frame.seq = msg.seq;
      frame.write_u64(0, msg.a);
      frame.write_u64(8, static_cast<std::uint64_t>(msg.send_ns));
      (void)c;
      gw.send(std::move(frame));
    });
    plants.push_back(std::move(plant));
  }

  CampusResult result;
  run_placed(ss, opt.horizon, opt.shards,
             measured ? opt.measured_weights : std::vector<std::uint64_t>{},
             result);

  result.cells.reserve(opt.cells);
  for (std::size_t i = 0; i < opt.cells; ++i) {
    sim::ShardedSimulator::Cell& cell = ss.cell(static_cast<std::uint32_t>(i));
    CellPlant& p = *plants[i];
    CellReport r;
    r.cell = static_cast<std::uint32_t>(i);
    r.name = cell.name();
    r.events_executed = cell.sim().events_executed();
    r.msgs_delivered = cell.msgs_delivered();
    for (const auto& c : p.controllers) {
      r.cyclic_tx += c->counters().cyclic_tx;
      r.cyclic_rx += c->counters().cyclic_rx;
      r.controller_trips += c->counters().device_watchdog_trips;
    }
    for (const auto& d : p.devices) {
      r.device_tx += d->counters().cyclic_tx;
      r.device_rx += d->counters().cyclic_rx;
      r.watchdog_trips += d->counters().watchdog_trips;
    }
    r.frames_offered = p.net.counters().frames_offered;
    r.frames_delivered = p.net.counters().frames_delivered;
    r.bytes_delivered = p.net.counters().bytes_delivered;
    r.pool_reused = p.net.frame_pool().stats().reused;
    r.reports_sent = p.reports_sent;
    r.reports_received = p.reports_received;
    r.report_bytes = p.report_bytes;
    r.report_latency_ns_total = p.report_latency_ns_total;
    if (p.plane) {
      const faults::FaultCounters& fc = p.plane->counters();
      r.node_crashes = fc.node_crashes;
      r.node_restarts = fc.node_restarts;
      r.dropped_loss = fc.dropped_loss;
      r.dropped_link_down = fc.dropped_link_down;
      r.dropped_sender_down = fc.dropped_sender_down;
      r.dropped_receiver_down = fc.dropped_receiver_down;
      r.conservation_residual = p.plane->conservation_residual();
    }
    r.outages = p.outages;
    r.outage_ns_total = p.outage_ns_total;
    result.cells.push_back(std::move(r));
  }
  return result;
}

// --- artifacts --------------------------------------------------------------

namespace {

using Column = CellColumn<CampusResult, CellReport>;
template <auto Member>
constexpr auto field = &member_value<Member, CampusResult, CellReport>;

using enum ColumnKind;
using enum TraceArg;

/// Every CellReport column, declared once: CSV name, Prometheus name (or
/// CSV-only), kind, and the trace arg it feeds.
constexpr Column kColumns[] = {
    {"cell", nullptr, kU64, field<&CellReport::cell>},
    {"name", nullptr, kString, field<&CellReport::name>},
    {"events", "events_executed", kU64, field<&CellReport::events_executed>,
     kOnSpan},
    {"cyclic_tx", "cyclic_tx", kU64, field<&CellReport::cyclic_tx>,
     kOnCounter, "tx"},
    {"cyclic_rx", "cyclic_rx", kU64, field<&CellReport::cyclic_rx>,
     kOnCounter, "rx"},
    {"device_tx", "device_tx", kU64, field<&CellReport::device_tx>},
    {"device_rx", "device_rx", kU64, field<&CellReport::device_rx>},
    {"watchdog_trips", "watchdog_trips", kU64,
     field<&CellReport::watchdog_trips>},
    {"controller_trips", "controller_trips", kU64,
     field<&CellReport::controller_trips>},
    {"frames_offered", "frames_offered", kU64,
     field<&CellReport::frames_offered>},
    {"frames_delivered", "frames_delivered", kU64,
     field<&CellReport::frames_delivered>},
    {"bytes_delivered", "bytes_delivered", kU64,
     field<&CellReport::bytes_delivered>},
    {"pool_reused", "pool_reused", kU64, field<&CellReport::pool_reused>},
    {"reports_sent", "reports_sent", kU64, field<&CellReport::reports_sent>},
    {"reports_received", "reports_received", kU64,
     field<&CellReport::reports_received>, kOnCounter, "reports"},
    {"report_bytes", "report_bytes", kU64, field<&CellReport::report_bytes>},
    {"report_latency_ns_total", "report_latency_ns_total", kI64,
     field<&CellReport::report_latency_ns_total>},
    {"node_crashes", "node_crashes", kU64, field<&CellReport::node_crashes>},
    {"node_restarts", "node_restarts", kU64,
     field<&CellReport::node_restarts>},
    {"dropped_loss", "dropped_loss", kU64, field<&CellReport::dropped_loss>},
    {"dropped_link_down", "dropped_link_down", kU64,
     field<&CellReport::dropped_link_down>},
    {"dropped_sender_down", "dropped_sender_down", kU64,
     field<&CellReport::dropped_sender_down>},
    {"dropped_receiver_down", "dropped_receiver_down", kU64,
     field<&CellReport::dropped_receiver_down>},
    {"conservation_residual", nullptr, kI64,
     field<&CellReport::conservation_residual>},
    {"outages", "outages", kU64, field<&CellReport::outages>},
    {"outage_ns_total", "outage_ns_total", kI64,
     field<&CellReport::outage_ns_total>},
    // The per-cell load-rate gauge: the same events + delivered-messages
    // sum a RateProfile row folds to, so a scrape of this family *is* a
    // calibration profile. Deterministic (both terms are part of the
    // determinism contract), hence safe inside the fingerprinted export.
    {.csv = nullptr,
     .prom = "load_rate",
     .kind = kU64,
     .get = [](const CampusResult&, const CellReport& r) -> CellValue {
       return r.events_executed + r.msgs_delivered;
     },
     .gauge = true},
};

constexpr CellSchema<CampusResult, CellReport> kSchema{
    "campus", "campus", "cyclic", kColumns};

}  // namespace

std::string CampusResult::to_prometheus() const {
  return render_prometheus(*this, kSchema);
}

std::string CampusResult::to_chrome_trace() const {
  return render_chrome_trace(*this, kSchema);
}

std::string CampusResult::to_csv() const { return render_csv(*this, kSchema); }

std::uint64_t CampusResult::fingerprint() const {
  return artifact_fingerprint(to_csv(), to_prometheus(), to_chrome_trace());
}

}  // namespace steelnet::net
