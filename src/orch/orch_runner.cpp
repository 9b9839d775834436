#include "orch/orch_runner.hpp"

#include <algorithm>

#include "net/switch_node.hpp"
#include "net/topology.hpp"
#include "obs/hub.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"

namespace steelnet::orch {

const char* to_string(OrchScenario s) {
  switch (s) {
    case OrchScenario::kSteady:
      return "steady";
    case OrchScenario::kRollingUpgrade:
      return "rolling";
    case OrchScenario::kRollingAggressive:
      return "rolling-aggressive";
    case OrchScenario::kRackFailure:
      return "rack-failure";
  }
  return "?";
}

std::uint64_t OrchOutcome::fingerprint() const {
  // The decimal offset basis with its last digit dropped, as this recipe
  // always had: the orch goldens and recorded fingerprints depend on it.
  sim::Fnv1aFields fold{sim::kFnv1aOffset / 10};
  fields(fold);
  return fold.h;
}

OrchOutcome OrchRunner::run(const OrchConfig& cfg) {
  OrchOutcome out;
  out.scenario = to_string(cfg.scenario);
  out.policy = to_string(cfg.policy);
  out.seed = cfg.seed;
  out.racks = cfg.racks;

  sim::Simulator sim;
  net::Network net(sim);
  faults::FaultPlane plane(net, cfg.seed);
  net.set_faults(&plane);

  FleetManager fleet(sim, cfg.policy);

  // --- leaf-spine topology: spine -> one ToR per rack -> compute hosts,
  //     manager on its own spine port. Heartbeats route to the manager
  //     via static FDB entries (the manager never transmits, so MAC
  //     learning alone would flood every heartbeat fleet-wide).
  const net::MacAddress mgr_mac = net::host_mac(0);
  auto& spine = net.add_node<net::SwitchNode>("spine");
  spine.add_fdb_entry(mgr_mac, static_cast<net::PortId>(cfg.racks));

  std::vector<net::NodeId> host_ids;  // rack-major, the storm victim order
  host_ids.reserve(static_cast<std::size_t>(cfg.racks) * cfg.nodes_per_rack);
  for (std::uint32_t r = 0; r < cfg.racks; ++r) {
    auto& tor = net.add_node<net::SwitchNode>("tor" + std::to_string(r));
    const auto uplink = static_cast<net::PortId>(cfg.nodes_per_rack);
    tor.add_fdb_entry(mgr_mac, uplink);
    net.connect(spine.id(), static_cast<net::PortId>(r), tor.id(), uplink);
    for (std::uint32_t j = 0; j < cfg.nodes_per_rack; ++j) {
      const auto idx = static_cast<std::uint32_t>(host_ids.size());
      auto& host = net.add_node<net::HostNode>(
          "node-r" + std::to_string(r) + "n" + std::to_string(j),
          net::host_mac(1 + idx));
      net.connect(tor.id(), static_cast<net::PortId>(j), host.id(), 0);
      host_ids.push_back(host.id());
      fleet.add_compute(host, r, cfg.node_capacity_mcpu);
    }
  }
  auto& mgr = net.add_node<net::HostNode>("fleet-mgr", mgr_mac);
  net.connect(spine.id(), static_cast<net::PortId>(cfg.racks), mgr.id(), 0);
  fleet.attach_manager(mgr);
  fleet.attach_faults(plane);
  out.compute_nodes = static_cast<std::uint32_t>(host_ids.size());

  // --- the fleet, drawn from named streams: same seed, same fleet.
  sim::Rng spec_rng = sim::Rng(cfg.seed).derive("orch/specs");
  std::vector<VplcSpec> specs;
  specs.reserve(cfg.vplcs);
  for (std::uint32_t v = 0; v < cfg.vplcs; ++v) {
    VplcSpec spec;
    const auto tier = spec_rng.uniform_int(0, 2);
    spec.cycle = sim::milliseconds(std::int64_t{1} << tier);  // 1/2/4 ms
    spec.preferred_rack = static_cast<std::uint32_t>(
        spec_rng.uniform_int(0, static_cast<std::int64_t>(cfg.racks) - 1));
    spec.twin_state_bytes =
        static_cast<std::uint32_t>(spec_rng.uniform_int(64, 4096));
    specs.push_back(spec);
  }
  if (const auto err = fleet.place_fleet(specs)) {
    out.place_error = std::string(err->primary ? "primary" : "twin") +
                      " vplc" + std::to_string(err->vplc) + ": " +
                      to_string(err->error);
    return out;
  }
  out.vplcs_placed = static_cast<std::uint32_t>(fleet.vplcs().size());

  // Heartbeats are bulk traffic: metrics only.
  obs::ObsHub hub{obs::TraceConfig{.trace_frames = false}};
  net.register_metrics(hub);
  plane.register_metrics(hub);
  fleet.register_metrics(hub);

  fleet.start();

  // --- scenario ------------------------------------------------------------
  switch (cfg.scenario) {
    case OrchScenario::kSteady:
      break;
    case OrchScenario::kRollingUpgrade: {
      RollingUpgradeOptions opts;
      opts.start = cfg.fail_at;
      opts.node_interval = sim::milliseconds(20);
      opts.grace = sim::milliseconds(10);
      opts.reboot = sim::milliseconds(5);
      fleet.rolling_upgrade(opts);
      break;
    }
    case OrchScenario::kRollingAggressive: {
      RollingUpgradeOptions opts;
      opts.start = cfg.fail_at;
      opts.node_interval = sim::milliseconds(10);
      opts.grace = sim::milliseconds(1);  // shorter than a twin warm-up
      opts.reboot = sim::milliseconds(5);
      fleet.rolling_upgrade(opts);
      break;
    }
    case OrchScenario::kRackFailure: {
      std::uint32_t victim_rack = cfg.victim_rack;
      if (victim_rack == kNoRack) {
        sim::Rng storm_rng = sim::Rng(cfg.seed).derive("orch/storm");
        victim_rack = static_cast<std::uint32_t>(storm_rng.uniform_int(
            0, static_cast<std::int64_t>(cfg.racks) - 1));
      }
      victim_rack = std::min(victim_rack, cfg.racks - 1);
      const std::uint32_t width =
          std::min(cfg.storm_nodes, cfg.nodes_per_rack);
      std::vector<net::NodeId> victims;
      victims.reserve(width);
      for (std::uint32_t j = 0; j < width; ++j) {
        victims.push_back(host_ids[static_cast<std::size_t>(victim_rack) *
                                       cfg.nodes_per_rack +
                                   j]);
      }
      sim.schedule_at(cfg.fail_at, [&plane, victims] {
        for (const net::NodeId id : victims) plane.crash_node(id);
      });
      break;
    }
  }

  sim.run_until(cfg.horizon);

  // --- collect -------------------------------------------------------------
  out.fleet = fleet.counters();
  out.ledger_residual = fleet.ledger_residual();
  out.currently_down = fleet.currently_down();
  out.unprotected = fleet.unprotected();
  out.availability = fleet.availability();
  out.rack_local_fraction = fleet.rack_local_fraction();
  out.utilization_spread = fleet.utilization_spread();
  out.watchdog_bound_ns =
      static_cast<std::uint64_t>(fleet.watchdog_bound().nanos());
  const sim::SampleSet& lat = fleet.switchover_latency_us();
  out.latency_count = lat.count();
  if (!lat.empty()) {
    out.latency_mean_us = lat.mean();
    out.latency_p50_us = lat.percentile(50.0);
    out.latency_p99_us = lat.percentile(99.0);
    out.latency_max_us = lat.max();
  }
  out.frames_delivered = net.counters().frames_delivered;
  out.conservation_residual = plane.conservation_residual();
  out.trace_fp = sim::fnv1a64(fleet.placement_trace());
  if (cfg.keep_exports) {
    out.metrics_prom = hub.metrics().to_prometheus();
    out.metrics_fp = sim::fnv1a64(out.metrics_prom);
  } else {
    out.metrics_fp = hub.metrics().prometheus_fingerprint();
  }
  if (cfg.keep_exports) out.trace_text = fleet.placement_trace();
  return out;
}

}  // namespace steelnet::orch
