// steelnet::flowmon -- the in-network metering process.
//
// A MeterPoint attaches to any net::Node (switch, host, sdn switch) via
// the Node frame-observer hook -- a port mirror, invisible to the
// forwarding path -- meters every arriving frame into a FlowCache, and
// exports IPFIX-style records toward a collector. Export is real traffic:
// records are serialized into net::Frame payloads and sent through the
// attached export NIC (a HostNode, the meter's management port), so
// telemetry contends for the network like any other flow and identical
// seeds yield identical export traces.
//
// Expiry is event-driven: a periodic sweep (export_interval) evicts flows
// silent for idle_timeout (exported with EndReason::kIdleTimeout) and
// checkpoints long-lived flows every active_timeout
// (EndReason::kActiveTimeout) -- the standard IPFIX metering-process
// behaviour.
#pragma once

#include <cstdint>
#include <memory>

#include "flowmon/flow_cache.hpp"
#include "flowmon/transform.hpp"
#include "net/host_node.hpp"
#include "sim/simulator.hpp"

namespace steelnet::flowmon {

struct MeterConfig {
  /// Silence after which a flow is considered over and evicted.
  sim::SimTime idle_timeout = sim::milliseconds(500);
  /// Checkpoint interval for still-running flows.
  sim::SimTime active_timeout = sim::seconds(1);
  /// Sweep cadence (also bounds export latency and sets the cache's
  /// timer-wheel tick).
  sim::SimTime export_interval = sim::milliseconds(100);
  /// Destination of export frames.
  net::MacAddress collector_mac;
  std::uint32_t observation_domain = 1;
  /// Resend the template every N export frames (IPFIX re-advertisement).
  std::uint32_t template_refresh_frames = 16;
};

struct MeterStats {
  std::uint64_t frames_seen = 0;
  std::uint64_t frames_ignored = 0;  ///< export frames (never metered)
  std::uint64_t records_exported = 0;
  std::uint64_t export_frames = 0;
  std::uint64_t idle_expired = 0;
  std::uint64_t active_checkpoints = 0;
  std::uint64_t flushed = 0;
};

class MeterPoint : public net::FrameObserver {
 public:
  /// Taps `observed` and exports via `export_nic` (not owned; both must be
  /// attached to a Network already). Detaches itself on destruction.
  MeterPoint(net::Node& observed, net::HostNode& export_nic, MeterConfig cfg);
  ~MeterPoint() override;
  MeterPoint(const MeterPoint&) = delete;
  MeterPoint& operator=(const MeterPoint&) = delete;

  void on_frame(const net::Frame& frame, net::PortId in_port) override;

  /// Exports every remaining record (EndReason::kForcedEnd) and empties
  /// the cache -- call at the end of an observation window. Flows still
  /// live at flush time are what the collector reports as open-ended.
  void flush();

  [[nodiscard]] const FlowCache& cache() const { return cache_; }
  [[nodiscard]] const MeterStats& stats() const { return stats_; }
  [[nodiscard]] const MeterConfig& config() const { return cfg_; }

  /// Binds meter + flow-cache counters under `<node_label>/flowmon/...`.
  void register_metrics(obs::ObsHub& hub, const std::string& node_label) const;

 private:
  void sweep();
  void export_records(const std::vector<ExportRecord>& records);

  net::Node& observed_;
  MeterConfig cfg_;
  FlowCache cache_;
  Exporter exporter_;
  std::unique_ptr<sim::PeriodicTask> sweeper_;
  MeterStats stats_;
};

}  // namespace steelnet::flowmon
