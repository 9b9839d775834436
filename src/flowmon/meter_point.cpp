#include "flowmon/meter_point.hpp"

#include "net/network.hpp"
#include "obs/hub.hpp"

namespace steelnet::flowmon {

namespace {

FlowCacheConfig cache_config(const MeterConfig& cfg) {
  FlowCacheConfig c;
  c.idle_timeout = cfg.idle_timeout;
  c.active_timeout = cfg.active_timeout;
  // One wheel tick per export interval, so each sweep walks one slot.
  // Expiry is exact at any tick; the tick sets only that cost.
  c.wheel_tick = cfg.export_interval;
  return c;
}

}  // namespace

MeterPoint::MeterPoint(net::Node& observed, net::HostNode& export_nic,
                       MeterConfig cfg)
    : observed_(observed),
      cfg_(cfg),
      cache_(cache_config(cfg)),
      exporter_(export_nic, cfg.collector_mac, cfg.observation_domain,
                cfg.template_refresh_frames,
                CompiledTransform{TransformRules{}, flow_template()}) {
  observed_.add_frame_observer(this);
  sim::Simulator& sim = observed_.network().sim();
  sweeper_ = std::make_unique<sim::PeriodicTask>(
      sim, sim.now() + cfg_.export_interval, cfg_.export_interval,
      [this] { sweep(); });
}

MeterPoint::~MeterPoint() { observed_.remove_frame_observer(this); }

void MeterPoint::on_frame(const net::Frame& frame, net::PortId in_port) {
  (void)in_port;
  // Telemetry is not part of the measured mix.
  if (frame.ethertype == net::EtherType::kFlowmonExport) {
    ++stats_.frames_ignored;
    return;
  }
  ++stats_.frames_seen;
  cache_.record(frame, observed_.network().sim().now());
}

void MeterPoint::sweep() {
  const sim::SimTime now = observed_.network().sim().now();
  std::vector<ExportRecord> out;
  cache_.sweep(now, [&](const FlowRecord& r, EndReason reason) {
    out.push_back(to_export_record(r, reason));
    if (reason == EndReason::kIdleTimeout) {
      ++stats_.idle_expired;
    } else {
      ++stats_.active_checkpoints;
    }
  });
  if (!out.empty()) export_records(out);
}

void MeterPoint::flush() {
  std::vector<ExportRecord> out;
  cache_.flush([&](const FlowRecord& r, EndReason reason) {
    out.push_back(to_export_record(r, reason));
    ++stats_.flushed;
  });
  if (!out.empty()) export_records(out);
}

void MeterPoint::export_records(const std::vector<ExportRecord>& records) {
  stats_.export_frames +=
      exporter_.send(records, observed_.network().sim().now());
  stats_.records_exported += records.size();
}

void MeterPoint::register_metrics(obs::ObsHub& hub,
                                  const std::string& node_label) const {
  obs::MetricsRegistry& reg = hub.metrics();
  reg.bind_counter({node_label, "flowmon", "frames_seen"},
                   &stats_.frames_seen);
  reg.bind_counter({node_label, "flowmon", "frames_ignored"},
                   &stats_.frames_ignored);
  reg.bind_counter({node_label, "flowmon", "records_exported"},
                   &stats_.records_exported);
  reg.bind_counter({node_label, "flowmon", "export_frames"},
                   &stats_.export_frames);
  reg.bind_counter({node_label, "flowmon", "idle_expired"},
                   &stats_.idle_expired);
  reg.bind_counter({node_label, "flowmon", "active_checkpoints"},
                   &stats_.active_checkpoints);
  reg.bind_counter({node_label, "flowmon", "flushed"}, &stats_.flushed);
  const FlowCacheStats& cs = cache_.stats();
  reg.bind_counter({node_label, "flowcache", "lookups"}, &cs.lookups);
  reg.bind_counter({node_label, "flowcache", "hits"}, &cs.hits);
  reg.bind_counter({node_label, "flowcache", "inserts"}, &cs.inserts);
  reg.bind_counter({node_label, "flowcache", "erased"}, &cs.erased);
  reg.bind_counter({node_label, "flowcache", "probes"}, &cs.probes);
  reg.bind_counter({node_label, "flowcache", "dropped_full"},
                   &cs.dropped_full);
  reg.bind_counter({node_label, "flowcache", "wheel_fires"},
                   &cs.wheel_fires);
  reg.bind_counter({node_label, "flowcache", "wheel_rearms"},
                   &cs.wheel_rearms);
  reg.bind_gauge({node_label, "flowcache", "occupancy"},
                 [this] { return static_cast<double>(cache_.size()); });
}

}  // namespace steelnet::flowmon
