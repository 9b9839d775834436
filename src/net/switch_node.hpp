// steelnet::net -- a store-and-forward Ethernet switch with 8 strict
// priority queues per port and optional MAC learning / TSN gating.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/egress_queue.hpp"
#include "net/node.hpp"

namespace steelnet::net {

struct SwitchConfig {
  std::size_t num_ports = 8;
  /// Fixed per-frame processing latency (lookup + crossbar).
  sim::SimTime processing_delay = sim::nanoseconds(600);
  /// Per-priority egress queue capacity (frames); 0 = unbounded.
  std::size_t queue_capacity = 1024;
  /// Learn source MACs from traffic; unknown unicast floods if true,
  /// otherwise unknown destinations are dropped.
  bool mac_learning = true;
};

struct SwitchCounters {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_forwarded = 0;
  std::uint64_t frames_flooded = 0;
  std::uint64_t frames_dropped_unknown = 0;
  /// Frames lost to full egress priority queues, summed over all ports
  /// (per-port breakdown: port_counters(p).dropped_overflow). Lives on
  /// the obs metrics plane; reads still convert to uint64_t implicitly.
  obs::Counter frames_dropped_overflow;
};

class SwitchNode : public Node {
 public:
  explicit SwitchNode(SwitchConfig cfg = {});

  void handle_frame(Frame frame, PortId in_port) override;
  void on_channel_idle(PortId port) override;
  void on_egress_drop(PortId port, const Frame& frame) override;

  /// Installs a static forwarding entry (used by Topology routing).
  void add_fdb_entry(MacAddress mac, PortId out_port);
  [[nodiscard]] std::optional<PortId> lookup(MacAddress mac) const;

  /// Installs a TSN gate controller on one egress port.
  void set_gate_controller(PortId port, const GateController* gates);

  [[nodiscard]] const SwitchCounters& counters() const { return counters_; }
  [[nodiscard]] const EgressCounters& port_counters(PortId port) const;
  [[nodiscard]] const SwitchConfig& config() const { return cfg_; }

  /// Binds switch + per-port egress counters under `<name>/switch/...`.
  /// Materializes the egress queue of every connected port so their
  /// counters exist before traffic flows (lazy creation is unchanged
  /// otherwise). Call after the node is attached and links connected.
  void register_metrics(obs::ObsHub& hub);

 private:
  EgressQueue& queue_for(PortId port);
  void forward(Frame frame, PortId out_port);

  SwitchConfig cfg_;
  std::unordered_map<std::uint64_t, PortId> fdb_;  ///< never iterated
  std::vector<std::unique_ptr<EgressQueue>> egress_;  // lazily sized
  std::uint32_t obs_track_ = static_cast<std::uint32_t>(-1);
  SwitchCounters counters_;
};

}  // namespace steelnet::net
