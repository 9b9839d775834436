// steelnet::net -- the Network: owns nodes and links, moves frames.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/frame_pool.hpp"
#include "net/link_backend.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace steelnet::obs {
class ObsHub;
}

namespace steelnet::net {

/// Aggregate per-network counters.
///
/// Conservation ledger: every transmit() offer resolves to exactly one of
/// {delivered, dropped_no_link, a backend drop, a FaultInjector drop
/// cause}, plus the frames currently between wire and peer
/// (frames_in_flight). With a fault plane attached,
///   frames_offered + duplicates == frames_delivered + frames_dropped_no_link
///                                  + frames_dropped_backend
///                                  + injector wire drops + frames_in_flight
/// holds at every instant -- the invariant the faults test harness sweeps.
struct NetworkCounters {
  std::uint64_t frames_offered = 0;    ///< transmit() calls
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped_no_link = 0;
  std::uint64_t frames_in_flight = 0;  ///< scheduled, not yet delivered
  std::uint64_t bytes_delivered = 0;
  /// Frames the link backend refused to carry (radio fades, scripted test
  /// impairment). Always 0 on wired links.
  std::uint64_t frames_dropped_backend = 0;
};

/// Owns all nodes and the channel (directed-link) table.
///
/// Transmission model: each directed channel serializes one frame at a
/// time (bandwidth), then the frame propagates (fixed delay) and is handed
/// to the peer's handle_frame. Nodes queue frames themselves (EgressQueue)
/// and are notified via on_channel_idle when the channel frees up, which
/// is what lets priority queueing and TSN gates reorder traffic.
class Network {
 public:
  explicit Network(sim::Simulator& sim);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a node; the network takes ownership. Returns its id.
  template <typename T, typename... Args>
  T& add_node(std::string name, Args&&... args) {
    auto node = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *node;
    const NodeId id = static_cast<NodeId>(nodes_.size());
    node->attach(*this, id, std::move(name));
    nodes_.push_back(std::move(node));
    return ref;
  }

  /// Connects a.port_a <-> b.port_b with symmetric parameters. Rejects
  /// unusable bit rates (zero or below kMinLinkBitRate) with a typed
  /// LinkError instead of letting serialization_time divide by zero or
  /// overflow SimTime mid-run. `backend` (not owned; must outlive the
  /// network) drives both directions; nullptr selects the network's
  /// built-in WiredBackend.
  void connect(NodeId a, PortId port_a, NodeId b, PortId port_b,
               LinkParams params = {}, LinkBackend* backend = nullptr);

  /// Dense index of a directed channel (stable for the network's life).
  using ChannelId = std::uint32_t;
  static constexpr ChannelId kNoChannel = static_cast<ChannelId>(-1);

  /// The channel out of (node, port), or kNoChannel if not connected.
  /// Two vector indexings -- hot paths resolve once and reuse the id.
  [[nodiscard]] ChannelId channel_at(NodeId node, PortId port) const {
    if (node >= port_index_.size()) return kNoChannel;
    const std::vector<ChannelId>& ports = port_index_[node];
    return port < ports.size() ? ports[port] : kNoChannel;
  }

  /// True if (node, port) has an attached idle channel.
  [[nodiscard]] bool channel_idle(NodeId node, PortId port) const;
  /// True if channel `ch` (a valid id) is idle.
  [[nodiscard]] bool channel_idle(ChannelId ch) const {
    return channels_[ch].busy_until <= sim_.now();
  }
  [[nodiscard]] bool has_channel(NodeId node, PortId port) const {
    return channel_at(node, port) != kNoChannel;
  }
  /// Channel bit rate of (node, port); throws if not connected.
  [[nodiscard]] std::uint64_t channel_rate(NodeId node, PortId port) const;
  /// Backend driving (node, port); throws if not connected.
  [[nodiscard]] LinkBackend& channel_backend(NodeId node, PortId port) const;
  /// Serialization time the head frame would take on (node, port), per
  /// the channel's backend (gate/guard-band checks). Throws if not
  /// connected. Non-const: a backend may advance lazy deterministic
  /// state (never its random streams) to answer.
  [[nodiscard]] sim::SimTime serialization_estimate(NodeId node, PortId port,
                                                    const Frame& frame);

  /// Starts transmitting `frame` out of (node, port).
  ///
  /// Precondition: the channel exists and is idle (assert via
  /// channel_idle); callers are expected to queue otherwise. Returns the
  /// time at which the channel becomes idle again.
  sim::SimTime transmit(NodeId node, PortId port, Frame frame);
  /// Same, on an already resolved channel (a valid id).
  sim::SimTime transmit(ChannelId ch, Frame frame);

  /// Kills the frame(s) still *serializing* out of (node, port) -- the
  /// fault plane calls this when a link hard-downs mid-frame, so the cut
  /// frame resolves to exactly one ledger cause instead of arriving off a
  /// dead wire. Cancels the pending delivery event(s) (primary plus any
  /// fault-plane duplicate), decrements frames_in_flight once per kill,
  /// and emits an obs fault event per traced frame. The channel still
  /// re-idles at the original tx_done: the NIC was occupied either way.
  /// Returns the number of frames killed (0 when the channel is idle,
  /// unconnected, or the frame already finished serializing).
  std::uint64_t kill_in_flight(NodeId node, PortId port, const char* cause);

  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const Node& node(NodeId id) const { return *nodes_.at(id); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Peer of (node, port): (peer_node, peer_port), if connected.
  [[nodiscard]] std::optional<std::pair<NodeId, PortId>> peer(
      NodeId node, PortId port) const;

  /// All (port, peer) pairs of a node, in port order.
  [[nodiscard]] std::vector<std::pair<PortId, NodeId>> ports_of(
      NodeId node) const;

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] const NetworkCounters& counters() const { return counters_; }

  /// Recycled payload buffers for the data path. Producers draw frames
  /// with `frame_pool().make(bytes)`; every frame the kernel kills (drop,
  /// filter, fault absorption) returns its buffer here, and application
  /// receivers may close the loop by recycling frames they consumed.
  [[nodiscard]] FramePool& frame_pool() { return pool_; }

  /// Attaches/detaches the observability plane. Not owned; must outlive
  /// the network (or be detached first). nullptr = observability off --
  /// every hook site in the data path then costs one pointer-null branch.
  void set_obs(obs::ObsHub* hub) { obs_ = hub; }
  [[nodiscard]] obs::ObsHub* obs() const { return obs_; }

  /// Attaches/detaches the fault-injection plane. Not owned; must outlive
  /// the network (or be detached first). nullptr = faults off -- every
  /// hook site in the data path then costs one pointer-null branch.
  void set_faults(FaultInjector* injector) { faults_ = injector; }
  [[nodiscard]] FaultInjector* faults() const { return faults_; }

  /// Binds the network-level delivery counters onto `registry` under
  /// `node_label/net/...`.
  void register_metrics(obs::ObsHub& hub,
                        const std::string& node_label = "network") const;

 private:
  /// Delivery at the peer: consults the fault plane (a crashed receiver
  /// absorbs the frame) and keeps the conservation ledger balanced.
  void deliver_frame(NodeId peer_node, PortId peer_port, std::size_t wire,
                     Frame frame);

  /// One not-yet-delivered frame of the current serialization window:
  /// the cancellable delivery event plus the trace id kill_in_flight
  /// reports to obs (the Frame itself lives inside the event's closure).
  struct PendingDelivery {
    sim::EventHandle ev;
    std::uint64_t trace_id = 0;
  };

  struct Channel {
    NodeId node;  ///< sending end
    PortId port;
    NodeId peer_node;
    PortId peer_port;
    LinkParams params;
    sim::SimTime busy_until;
    LinkBackend* backend = nullptr;
    std::uint64_t frames_sent = 0;
    /// Cached obs::TrackId of this directed channel (interned lazily on
    /// the first traced frame; invalid until then).
    std::uint32_t obs_track = static_cast<std::uint32_t>(-1);
    /// Deliveries scheduled by the most recent transmit (primary and an
    /// optional fault duplicate) -- the frames a mid-serialization
    /// hard-down can still cancel. Overwritten by the next transmit.
    PendingDelivery pending[2];
  };

  /// Interns (lazily) and returns the obs track of the directed channel.
  std::uint32_t link_track(Channel& ch);
  /// The channel out of (node, port); throws naming `what` if unconnected.
  const Channel& connected(NodeId node, PortId port, const char* what) const;

  sim::Simulator& sim_;
  /// Default driver for channels connected without an explicit backend.
  std::unique_ptr<LinkBackend> wired_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Every directed channel, in connect order, plus node -> port ->
  /// channel id (kNoChannel for unconnected ports).
  std::vector<Channel> channels_;
  std::vector<std::vector<ChannelId>> port_index_;
  FramePool pool_;
  NetworkCounters counters_;
  obs::ObsHub* obs_ = nullptr;
  FaultInjector* faults_ = nullptr;
};

}  // namespace steelnet::net
