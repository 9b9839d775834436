#include "net/network.hpp"

#include <stdexcept>

#include "obs/hub.hpp"

namespace steelnet::net {

Network::Network(sim::Simulator& sim)
    : sim_(sim), wired_(std::make_unique<WiredBackend>()) {}

Network::~Network() = default;

void Network::connect(NodeId a, PortId port_a, NodeId b, PortId port_b,
                      LinkParams params, LinkBackend* backend) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw sim::SimError("Network::connect: unknown node");
  }
  if (has_channel(a, port_a) || has_channel(b, port_b)) {
    throw sim::SimError("Network::connect: port already connected");
  }
  if (params.bits_per_second == 0) {
    throw LinkError(LinkErrorCode::kZeroBitRate,
                    "Network::connect: bits_per_second must be > 0 (" +
                        nodes_.at(a)->name() + ":p" + std::to_string(port_a) +
                        " <-> " + nodes_.at(b)->name() + ":p" +
                        std::to_string(port_b) + ")");
  }
  if (params.bits_per_second < kMinLinkBitRate) {
    throw LinkError(LinkErrorCode::kBitRateTooLow,
                    "Network::connect: bits_per_second " +
                        std::to_string(params.bits_per_second) + " below " +
                        std::to_string(kMinLinkBitRate) + " (" +
                        nodes_.at(a)->name() + ":p" + std::to_string(port_a) +
                        " <-> " + nodes_.at(b)->name() + ":p" +
                        std::to_string(port_b) + ")");
  }
  LinkBackend* be = backend != nullptr ? backend : wired_.get();
  be->validate_link(a, port_a, params);
  be->validate_link(b, port_b, params);
  const auto add = [this, &params, be](NodeId node, PortId port,
                                       NodeId peer, PortId peer_port) {
    if (port_index_.size() <= node) port_index_.resize(node + 1u);
    std::vector<ChannelId>& ports = port_index_[node];
    if (ports.size() <= port) ports.resize(port + 1u, kNoChannel);
    ports[port] = static_cast<ChannelId>(channels_.size());
    channels_.push_back(Channel{node, port, peer, peer_port, params,
                                sim::SimTime::zero(), be});
  };
  add(a, port_a, b, port_b);
  add(b, port_b, a, port_a);
}

const Network::Channel& Network::connected(NodeId node, PortId port,
                                           const char* what) const {
  const ChannelId id = channel_at(node, port);
  if (id == kNoChannel) {
    throw sim::SimError(std::string("Network::") + what +
                        ": port not connected");
  }
  return channels_[id];
}

bool Network::channel_idle(NodeId node, PortId port) const {
  const ChannelId id = channel_at(node, port);
  return id != kNoChannel && channel_idle(id);
}

std::uint64_t Network::channel_rate(NodeId node, PortId port) const {
  return connected(node, port, "channel_rate").params.bits_per_second;
}

LinkBackend& Network::channel_backend(NodeId node, PortId port) const {
  return *connected(node, port, "channel_backend").backend;
}

sim::SimTime Network::serialization_estimate(NodeId node, PortId port,
                                             const Frame& frame) {
  const Channel& ch = connected(node, port, "serialization_estimate");
  return ch.backend->serialize_estimate(node, port, frame, ch.params,
                                        sim_.now());
}

std::uint32_t Network::link_track(Channel& ch) {
  if (ch.obs_track == static_cast<std::uint32_t>(-1)) {
    ch.obs_track = obs_->track("link:" + nodes_.at(ch.node)->name() + ":p" +
                               std::to_string(ch.port));
  }
  return ch.obs_track;
}

sim::SimTime Network::transmit(NodeId node, PortId port, Frame frame) {
  const ChannelId id = channel_at(node, port);
  if (id == kNoChannel) {
    ++counters_.frames_offered;
    ++counters_.frames_dropped_no_link;
    pool_.recycle(std::move(frame));
    return sim_.now();
  }
  return transmit(id, std::move(frame));
}

sim::SimTime Network::transmit(ChannelId id, Frame frame) {
  ++counters_.frames_offered;
  Channel& ch = channels_[id];
  const NodeId node = ch.node;
  const PortId port = ch.port;
  if (ch.busy_until > sim_.now()) {
    throw sim::SimError("Network::transmit on busy channel from node " +
                        nodes_.at(node)->name());
  }
  // Backend verdict first: it sets how long the frame occupies the medium
  // and how long it flies, and may kill it outright (radio fade). Wired
  // reproduces the legacy fixed-rate math exactly.
  const LinkTxPlan plan =
      ch.backend->plan_transmit(node, port, frame, ch.params, sim_.now());
  const sim::SimTime tx_done = sim_.now() + plan.serialize;
  sim::SimTime arrival = tx_done + plan.propagate;
  ch.busy_until = tx_done;
  ++ch.frames_sent;

  // Fault verdict before the obs link span so the span reflects the true
  // (possibly jittered/reordered) arrival, or is replaced by the fault
  // event if the frame dies on this link.
  bool survives = true;
  bool duplicate = false;
  if (faults_ != nullptr) {
    const FaultInjector::TransitVerdict v =
        faults_->on_transit(node, port, frame, sim_.now());
    survives = !v.drop;
    duplicate = v.duplicate;
    arrival += v.extra_delay;
    if (obs_ != nullptr && frame.trace_id != 0) {
      if (v.corrupted) {
        obs_->fault_event(frame.trace_id, link_track(ch),
                          sim_.now(), "corrupt");
      }
      if (v.duplicate) {
        obs_->fault_event(frame.trace_id, link_track(ch),
                          sim_.now(), "duplicate");
      }
      if (v.reordered) {
        obs_->fault_event(frame.trace_id, link_track(ch),
                          sim_.now(), "reorder");
      }
      if (v.drop) {
        obs_->fault_event(frame.trace_id, link_track(ch),
                          sim_.now(), v.cause);
      }
    }
  }

  if (survives && !plan.survives) {
    // The medium itself killed the frame. The fault plane's verdict wins
    // when both fire (its cause was already counted above), so every
    // offered frame still resolves to exactly one ledger bucket.
    survives = false;
    ++counters_.frames_dropped_backend;
    if (obs_ != nullptr && frame.trace_id != 0) {
      obs_->fault_event(frame.trace_id, link_track(ch), sim_.now(),
                        plan.cause);
    }
  }

  if (survives) {
    if (obs_ != nullptr && frame.trace_id != 0) {
      obs_->link_transit(frame.trace_id, link_track(ch),
                         sim_.now(), arrival);
    }
    const NodeId peer_node = ch.peer_node;
    const PortId peer_port = ch.peer_port;
    const std::size_t wire = frame.wire_bytes();
    // The fault plane's duplicate re-enqueue draws its copy from the
    // pool, so steady duplication storms do not churn the allocator.
    std::optional<Frame> copy;
    if (duplicate) copy = pool_.clone(frame);
    const std::uint64_t trace_id = frame.trace_id;
    ++counters_.frames_in_flight;
    ch.pending[0].trace_id = trace_id;
    ch.pending[0].ev =
        sim_.schedule_at(arrival, [this, peer_node, peer_port, wire,
                                   f = std::move(frame)]() mutable {
          deliver_frame(peer_node, peer_port, wire, std::move(f));
        });
    ch.pending[1] = PendingDelivery{};
    if (copy.has_value()) {
      ++counters_.frames_in_flight;
      ch.pending[1].trace_id = trace_id;
      ch.pending[1].ev =
          sim_.schedule_at(arrival, [this, peer_node, peer_port, wire,
                                     f = std::move(*copy)]() mutable {
            deliver_frame(peer_node, peer_port, wire, std::move(f));
          });
    }
  } else {
    // Killed on the wire (link down, loss, sender down, backend): the
    // payload buffer goes back to the pool once the ledger has seen it.
    pool_.recycle(std::move(frame));
    ch.pending[0] = PendingDelivery{};
    ch.pending[1] = PendingDelivery{};
  }
  // Tell the sender its channel is free again (fires after the frame's
  // last bit leaves, before/independent of delivery at the peer -- even a
  // dead medium occupies the NIC for the serialization time).
  sim_.schedule_at(tx_done, [this, node, port] {
    nodes_.at(node)->on_channel_idle(port);
  });
  return tx_done;
}

std::uint64_t Network::kill_in_flight(NodeId node, PortId port,
                                      const char* cause) {
  const ChannelId id = channel_at(node, port);
  if (id == kNoChannel) return 0;
  Channel& ch = channels_[id];
  if (ch.busy_until <= sim_.now()) return 0;  // nothing mid-serialization
  std::uint64_t killed = 0;
  for (PendingDelivery& p : ch.pending) {
    if (!p.ev.pending()) continue;
    // Lazy cancel: the Frame inside the event's closure is destroyed when
    // the heap entry is reclaimed, so the buffer is freed, not pooled --
    // deterministic either way.
    p.ev.cancel();
    --counters_.frames_in_flight;
    ++killed;
    if (obs_ != nullptr && p.trace_id != 0) {
      obs_->fault_event(p.trace_id, link_track(ch), sim_.now(),
                        cause);
    }
    p = PendingDelivery{};
  }
  return killed;
}

void Network::deliver_frame(NodeId peer_node, PortId peer_port,
                            std::size_t wire, Frame frame) {
  --counters_.frames_in_flight;
  if (faults_ != nullptr && !faults_->node_alive(peer_node)) {
    if (obs_ != nullptr && frame.trace_id != 0) {
      obs_->fault_event(frame.trace_id,
                        obs_->track(nodes_.at(peer_node)->name()), sim_.now(),
                        "receiver_down");
    }
    faults_->on_receiver_down(peer_node, frame, sim_.now());
    pool_.recycle(std::move(frame));
    return;
  }
  ++counters_.frames_delivered;
  counters_.bytes_delivered += wire;
  nodes_.at(peer_node)->handle_frame(std::move(frame), peer_port);
}

void Network::register_metrics(obs::ObsHub& hub,
                               const std::string& node_label) const {
  obs::MetricsRegistry& reg = hub.metrics();
  reg.bind_counter({node_label, "net", "frames_offered"},
                   &counters_.frames_offered);
  reg.bind_counter({node_label, "net", "frames_delivered"},
                   &counters_.frames_delivered);
  reg.bind_counter({node_label, "net", "frames_dropped_no_link"},
                   &counters_.frames_dropped_no_link);
  reg.bind_counter({node_label, "net", "frames_in_flight"},
                   &counters_.frames_in_flight);
  reg.bind_counter({node_label, "net", "bytes_delivered"},
                   &counters_.bytes_delivered);
}

std::optional<std::pair<NodeId, PortId>> Network::peer(NodeId node,
                                                       PortId port) const {
  const ChannelId id = channel_at(node, port);
  if (id == kNoChannel) return std::nullopt;
  return std::make_pair(channels_[id].peer_node, channels_[id].peer_port);
}

std::vector<std::pair<PortId, NodeId>> Network::ports_of(NodeId node) const {
  std::vector<std::pair<PortId, NodeId>> out;
  if (node >= port_index_.size()) return out;
  const std::vector<ChannelId>& ports = port_index_[node];
  for (std::size_t p = 0; p < ports.size(); ++p) {
    if (ports[p] != kNoChannel) {
      out.emplace_back(static_cast<PortId>(p), channels_[ports[p]].peer_node);
    }
  }
  return out;
}

}  // namespace steelnet::net
