// steelnet::flowmon -- the collecting process.
//
// A CollectorNode is a network endpoint (one NIC, like HostNode) that
// receives flowmon export frames, learns templates, reassembles data
// records, and maintains the measured per-flow state the rest of the
// repo consumes: core::FlowStats for the §2.3 classifier, derived not
// from configuration but from cadence observed in-network. A flow is
//   * open-ended  if its latest record says the flow was still live
//     (active-timeout checkpoint or forced flush), and
//   * periodic    if its cadence is steady: enough packets and measured
//     jitter below a fraction of the mean inter-arrival time.
//
// Collectors federate: a cell-tier collector can re-export everything it
// absorbs upward to a plant-tier collector over the simulated network
// (enable_reexport), applying declarative mediation rules in between --
// the IPFIX mediator role of RFC 6183, with transform_rules.c lineage.
// Sequence accounting is per (exporter session, observation domain)
// stream with RFC 7011 serial-number arithmetic, so 32-bit wraparound
// and multi-exporter domains are handled correctly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/traffic_mix.hpp"
#include "flowmon/transform.hpp"
#include "net/host_node.hpp"
#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace steelnet::obs {
class ObsHub;
}

namespace steelnet::flowmon {

struct CollectorCounters {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_filtered = 0;   ///< not ours / wrong ethertype
  std::uint64_t messages = 0;
  std::uint64_t malformed = 0;
  std::uint64_t records = 0;
  std::uint64_t templates_learned = 0;
  /// Loss/sequence counters live on the obs metrics plane (obs::Counter
  /// converts implicitly to uint64_t, so accessors are unchanged).
  obs::Counter records_without_template;
  /// Records lost upstream, from IPFIX sequence gaps (serial arithmetic
  /// per exporter-session/domain stream).
  obs::Counter lost_records;
  /// Messages whose sequence stepped backwards (late or replayed).
  obs::Counter sequence_reordered;
  /// Records the mediation filter refused to re-export.
  obs::Counter transform_dropped;
  /// Records re-exported to the upstream tier.
  obs::Counter reexported_records;
  obs::Counter reexport_frames;
};

/// Mediation settings for the upstream hop of a federated collector.
struct ReExportConfig {
  net::MacAddress upstream_mac;
  sim::SimTime interval = sim::milliseconds(100);
  /// rules.rewrite_domain sets the re-export observation domain (100
  /// when left at 0).
  TransformRules rules;
};

/// Merged view of one measured flow, across export checkpoints and
/// cache incarnations (idle-expire + restart).
struct FlowView {
  FlowKey key;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t wire_bytes = 0;
  sim::SimTime first_seen;
  sim::SimTime last_seen;
  sim::SimTime min_iat;
  sim::SimTime mean_iat;
  sim::SimTime jitter;
  std::uint32_t incarnations = 0;  ///< idle-expired-and-restarted count
  bool open_ended = false;
  bool periodic = false;

  [[nodiscard]] sim::SimTime duration() const {
    return last_seen - first_seen;
  }
  [[nodiscard]] std::size_t mean_packet_bytes() const {
    return packets == 0 ? 0 : static_cast<std::size_t>(bytes / packets);
  }
};

class CollectorNode : public net::Node {
 public:
  explicit CollectorNode(net::MacAddress mac);

  void handle_frame(net::Frame frame, net::PortId in_port) override;

  /// Turns this collector into a mediator: everything absorbed from the
  /// meters below is queued and periodically re-exported -- through
  /// `cfg.rules` -- via `uplink` (the collector's management NIC, which
  /// must already be attached to the same network) toward
  /// `cfg.upstream_mac`. Call after the node is attached.
  void enable_reexport(net::HostNode& uplink, ReExportConfig cfg);

  /// Drains the pending re-export queue now (also runs periodically).
  /// Call once after the last meter flush to push the tail upstream.
  void flush_reexport();

  [[nodiscard]] net::MacAddress mac() const { return mac_; }
  [[nodiscard]] const CollectorCounters& counters() const {
    return counters_;
  }
  /// Per-record staleness on arrival (now - record.last_seen) in
  /// microseconds: batching + transport + detection delay. At the plant
  /// tier this includes the extra federation hop, so the tier delta
  /// isolates the hop's cost.
  [[nodiscard]] const sim::SampleSet& export_lag_us() const {
    return export_lag_us_;
  }
  [[nodiscard]] std::size_t tracked_flows() const { return flows_.size(); }
  [[nodiscard]] std::size_t pending_reexport() const {
    return pending_.size();
  }

  /// All measured flows, merged, sorted by key (deterministic).
  [[nodiscard]] std::vector<FlowView> flows() const;

  /// Classifier inputs measured in-network -- drop-in replacement for
  /// core::generate_mix's synthesized stats, same ordering as flows().
  [[nodiscard]] std::vector<core::FlowStats> measured_stats() const;

  /// FNV-1a over every merged flow's fields -- pinned by golden tests:
  /// identical seeds must yield identical measured flow records.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Binds pipeline counters, occupancy gauges and the export-lag
  /// histogram under `<name>/flowmon/...`.
  void register_metrics(obs::ObsHub& hub) const;

 private:
  struct FlowAccum {
    // Totals from finished incarnations (idle-expired flows that may
    // restart later).
    std::uint64_t done_packets = 0;
    std::uint64_t done_bytes = 0;
    std::uint64_t done_wire_bytes = 0;
    /// Latest record of the current incarnation (absolute totals).
    ExportRecord live;
    bool has_live = false;
    sim::SimTime first_seen;
    sim::SimTime last_seen;
    sim::SimTime min_iat = sim::SimTime::max();
    /// Cadence of the *latest* record -- the freshest estimate.
    sim::SimTime mean_iat;
    sim::SimTime jitter;
    std::uint64_t cadence_packets = 0;
    std::uint32_t incarnations = 0;
    bool ended = false;  ///< last record closed the flow
  };

  void absorb(const ExportRecord& r);
  void account_sequence(std::uint64_t session, std::uint32_t domain,
                        std::uint32_t sequence, std::uint32_t n_records);
  [[nodiscard]] FlowView view_of(const FlowKey& key,
                                 const FlowAccum& a) const;

  net::MacAddress mac_;
  TemplateStore templates_;
  std::map<FlowKey, FlowAccum> flows_;
  /// Expected next sequence per (exporter session, observation domain).
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::uint32_t>
      next_sequence_;
  CollectorCounters counters_;
  sim::SampleSet export_lag_us_;
  mutable sim::Histogram* lag_hist_ = nullptr;  ///< registry-owned

  // Mediator state (enable_reexport).
  std::optional<Exporter> reexporter_;
  std::vector<ExportRecord> pending_;
  std::unique_ptr<sim::PeriodicTask> reexport_task_;
};

}  // namespace steelnet::flowmon
