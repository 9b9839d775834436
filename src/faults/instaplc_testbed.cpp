#include "faults/instaplc_testbed.hpp"

#include <algorithm>
#include <utility>

#include "obs/exporters.hpp"
#include "sim/hash.hpp"

namespace steelnet::faults {

InstaPlcTestbed::InstaPlcTestbed(sim::Simulator& sim, FaultScenario scenario,
                                 Config cfg)
    : sim_(sim),
      scenario_(std::move(scenario)),
      cfg_(std::move(cfg)),
      network_(sim) {
  const RunnerOptions& opts = cfg_.opts;

  sw_ = &network_.add_node<sdn::SdnSwitchNode>("sdn");
  dev_host_ = &network_.add_node<net::HostNode>("dev", net::MacAddress{0xD});
  v1_host_ = &network_.add_node<net::HostNode>("v1", net::MacAddress{0x1});
  v2_host_ = &network_.add_node<net::HostNode>("v2", net::MacAddress{0x2});
  if (cfg_.before_device_connect) {
    cfg_.before_device_connect(dev_host_->id(), 0, sw_->id(), 0);
  }
  network_.connect(dev_host_->id(), 0, sw_->id(), 0, cfg_.device_link,
                   cfg_.device_backend);
  network_.connect(v1_host_->id(), 0, sw_->id(), 1);
  network_.connect(v2_host_->id(), 0, sw_->id(), 2);

  device_.emplace(*dev_host_);
  app_.emplace(*sw_,
               instaplc::InstaPlcConfig{
                   .device_port = 0,
                   .switchover_cycles = opts.switchover_cycles});

  profinet::ControllerConfig c1;
  c1.ar_id = 1;
  c1.device_mac = dev_host_->mac();
  c1.cycle = opts.io_cycle;
  vplc1_.emplace(*v1_host_, c1);
  profinet::ControllerConfig c2 = c1;
  c2.ar_id = 2;
  vplc2_.emplace(*v2_host_, c2);

  plane_.emplace(network_, scenario_.seed);
  network_.set_faults(&*plane_);
  // A vPLC host's process dies and restarts with its node.
  plane_->set_crash_handler(v1_host_->id(), [this] { vplc1_->stop(); });
  plane_->set_restart_handler(v1_host_->id(), [this] { vplc1_->connect(); });
  plane_->set_crash_handler(v2_host_->id(), [this] { vplc2_->stop(); });
  plane_->set_restart_handler(v2_host_->id(), [this] { vplc2_->connect(); });

  if (opts.with_obs) {
    network_.set_obs(&hub_);
    network_.register_metrics(hub_);
    sw_->register_metrics(hub_);
    v1_host_->register_metrics(hub_);
    v2_host_->register_metrics(hub_);
    dev_host_->register_metrics(hub_);
    device_->register_metrics(hub_);
    vplc1_->register_metrics(hub_);
    vplc2_->register_metrics(hub_);
    app_->register_metrics(hub_, "sdn");
    plane_->register_metrics(hub_);
  }

  // Invariant probes.
  for (const FaultSpec& f : scenario_.faults) {
    if ((f.kind != FaultKind::kNodeCrash && f.kind != FaultKind::kNodeStop) ||
        f.duration != sim::SimTime::zero()) {
      continue;  // only permanent kills forbid later deliveries
    }
    const auto id = plane_->find_node(f.node);
    if (!id.has_value()) continue;
    if (*id == v1_host_->id()) post_kill_.watch(v1_host_->mac(), f.at);
    if (*id == v2_host_->id()) post_kill_.watch(v2_host_->mac(), f.at);
    if (*id == dev_host_->id()) post_kill_.watch(dev_host_->mac(), f.at);
  }
  dev_host_->add_frame_observer(&post_kill_);
  v1_host_->add_frame_observer(&post_kill_);
  v2_host_->add_frame_observer(&post_kill_);

  device_->set_output_handler(
      [this](const std::vector<std::uint8_t>&, bool run) {
        if (!run) return;
        const sim::SimTime now = sim_.now();
        if (saw_output_) {
          max_gap_ = std::max(max_gap_, now - last_valid_output_);
        }
        saw_output_ = true;
        last_valid_output_ = now;
      });

  app_->set_observer([this](instaplc::InstaPlcEvent ev, sim::SimTime at) {
    if (ev == instaplc::InstaPlcEvent::kPrimaryCyclic) {
      last_primary_seen_ = at;
    }
    if (ev == instaplc::InstaPlcEvent::kSwitchover) {
      switchover_latency_ =
          at - app_->stats().primary_last_seen.value_or(last_primary_seen_);
    }
  });
}

void InstaPlcTestbed::start() {
  if (started_) throw sim::SimError("InstaPlcTestbed: start() called twice");
  started_ = true;
  vplc1_->connect();
  sim_.schedule_at(cfg_.opts.secondary_connect_at,
                   [this] { vplc2_->connect(); });
  plane_->schedule(scenario_);
}

ScenarioOutcome InstaPlcTestbed::collect() {
  ScenarioOutcome out;
  out.scenario = scenario_.name;
  out.seed = scenario_.seed;
  out.switched_over = app_->switched_over();
  out.switchover_at =
      app_->stats().switchover_at.value_or(sim::SimTime::zero());
  out.switchover_latency = switchover_latency_;
  out.max_output_gap = max_gap_;
  out.device_watchdog_trips = device_->counters().watchdog_trips;
  out.post_kill_deliveries = post_kill_.violations();
  out.secondary_running =
      vplc2_->state() == profinet::ControllerState::kRunning;
  out.twin_synced = app_->twin().secondary_ar().has_value();
  out.net = network_.counters();
  out.faults = plane_->counters();
  out.residual = plane_->conservation_residual();
  // The fingerprints are streamed from the renderers; the text itself is
  // only built when the caller keeps it.
  if (cfg_.opts.with_obs && cfg_.opts.keep_exports) {
    out.metrics_prom = hub_.metrics().to_prometheus();
    out.trace_json = obs::chrome_trace_json(hub_.tracer());
    out.metrics_fp = sim::fnv1a64(out.metrics_prom);
    out.trace_fp = sim::fnv1a64(out.trace_json);
  } else if (cfg_.opts.with_obs) {
    out.metrics_fp = hub_.metrics().prometheus_fingerprint();
    out.trace_fp = obs::chrome_trace_fingerprint(hub_.tracer());
  }
  return out;
}

}  // namespace steelnet::faults
