#include "faults/fault_plane.hpp"

#include "obs/hub.hpp"
#include "sim/simulator.hpp"

namespace steelnet::faults {

FaultPlane::FaultPlane(net::Network& net, std::uint64_t seed)
    : net_(net),
      loss_rng_(sim::Rng(seed).derive("faults/loss")),
      corrupt_rng_(sim::Rng(seed).derive("faults/corrupt")),
      duplicate_rng_(sim::Rng(seed).derive("faults/duplicate")),
      reorder_rng_(sim::Rng(seed).derive("faults/reorder")),
      jitter_rng_(sim::Rng(seed).derive("faults/jitter")) {}

// --- manual control ---------------------------------------------------------

void FaultPlane::set_link_down(net::NodeId node, net::PortId port, bool down) {
  bool& state = link_down_[key(node, port)];
  if (state == down) return;  // idempotent: flap trains may overlap windows
  state = down;
  const auto peer = net_.peer(node, port);
  if (peer) {
    link_down_[key(peer->first, peer->second)] = down;
  }
  if (down) {
    ++counters_.link_down_events;
    // A frame caught mid-serialization by the hard-down is cut on the
    // wire: cancel its delivery and book it here, so it resolves to
    // exactly one ledger cause (it was only in_flight until now). The
    // idempotence guard above makes overlapping flap windows kill each
    // frame at most once.
    counters_.dropped_link_down +=
        net_.kill_in_flight(node, port, "link_down");
    if (peer) {
      counters_.dropped_link_down +=
          net_.kill_in_flight(peer->first, peer->second, "link_down");
    }
  } else {
    ++counters_.link_up_events;
  }
}

bool FaultPlane::link_is_down(net::NodeId node, net::PortId port) const {
  const auto it = link_down_.find(key(node, port));
  return it != link_down_.end() && it->second;
}

LinkFaultProfile& FaultPlane::profile(net::NodeId node, net::PortId port) {
  return profiles_[key(node, port)];
}

void FaultPlane::crash_node(net::NodeId node) {
  // Every kill starts a new incarnation, superseding any pod restart
  // still pending from an earlier crash/stop spec.
  ++down_epoch_[node];
  if (crashed_.contains(node)) return;
  crashed_.emplace(node, net_.sim().now());
  ++counters_.node_crashes;
  if (const auto it = crash_handlers_.find(node);
      it != crash_handlers_.end() && it->second) {
    it->second();
  }
  notify_watchers(node, NodeEvent::Kind::kCrash);
}

void FaultPlane::restart_node(net::NodeId node) {
  ++down_epoch_[node];
  crashed_.erase(node);
  ++counters_.node_restarts;
  if (const auto it = restart_handlers_.find(node);
      it != restart_handlers_.end() && it->second) {
    it->second();
  }
  notify_watchers(node, NodeEvent::Kind::kRestart);
}

void FaultPlane::stop_node(net::NodeId node) {
  ++down_epoch_[node];
  ++counters_.node_stops;
  if (const auto it = crash_handlers_.find(node);
      it != crash_handlers_.end() && it->second) {
    it->second();
  }
  notify_watchers(node, NodeEvent::Kind::kStop);
}

void FaultPlane::add_node_watcher(std::function<void(const NodeEvent&)> fn) {
  watchers_.push_back(std::move(fn));
}

void FaultPlane::notify_watchers(net::NodeId node, NodeEvent::Kind kind) {
  if (watchers_.empty()) return;
  NodeEvent ev;
  ev.node = node;
  ev.kind = kind;
  ev.epoch = down_epoch_[node];
  ev.at = net_.sim().now();
  for (const auto& w : watchers_) w(ev);
}

std::uint64_t FaultPlane::incarnation(net::NodeId node) const {
  const auto it = down_epoch_.find(node);
  return it == down_epoch_.end() ? 0 : it->second;
}

bool FaultPlane::restart_node_if(net::NodeId node, std::uint64_t epoch) {
  if (down_epoch_[node] != epoch) return false;
  restart_node(node);
  return true;
}

void FaultPlane::set_crash_handler(net::NodeId node, std::function<void()> fn) {
  crash_handlers_[node] = std::move(fn);
}

void FaultPlane::set_restart_handler(net::NodeId node,
                                     std::function<void()> fn) {
  restart_handlers_[node] = std::move(fn);
}

std::optional<sim::SimTime> FaultPlane::crashed_at(net::NodeId node) const {
  const auto it = crashed_.find(node);
  if (it == crashed_.end()) return std::nullopt;
  return it->second;
}

std::optional<net::NodeId> FaultPlane::find_node(std::string_view name) const {
  for (net::NodeId id = 0; id < net_.node_count(); ++id) {
    if (net_.node(id).name() == name) return id;
  }
  return std::nullopt;
}

// --- scenario ---------------------------------------------------------------

net::NodeId FaultPlane::resolve(const std::string& name) const {
  const auto id = find_node(name);
  if (!id.has_value()) {
    throw sim::SimError("FaultPlane: unknown node '" + name + "'");
  }
  return *id;
}

void FaultPlane::apply_profile_field(net::NodeId node, net::PortId port,
                                     FaultKind kind, double probability,
                                     sim::SimTime delay) {
  const auto apply = [&](LinkFaultProfile& p) {
    switch (kind) {
      case FaultKind::kLoss:
        p.loss = probability;
        break;
      case FaultKind::kCorrupt:
        p.corrupt = probability;
        break;
      case FaultKind::kDuplicate:
        p.duplicate = probability;
        break;
      case FaultKind::kReorder:
        p.reorder = probability;
        p.reorder_delay = delay;
        break;
      case FaultKind::kJitter:
        p.jitter_max = delay;
        break;
      default:
        break;
    }
  };
  apply(profile(node, port));
  if (const auto peer = net_.peer(node, port)) {
    apply(profile(peer->first, peer->second));
  }
}

void FaultPlane::schedule_one(const FaultSpec& spec) {
  sim::Simulator& sim = net_.sim();
  const net::NodeId node = resolve(spec.node);
  const net::PortId port = spec.port;
  switch (spec.kind) {
    case FaultKind::kLinkDown:
      sim.schedule_at(spec.at,
                      [this, node, port] { set_link_down(node, port, true); });
      if (spec.duration != sim::SimTime::zero()) {
        sim.schedule_at(spec.at + spec.duration, [this, node, port] {
          set_link_down(node, port, false);
        });
      }
      break;
    case FaultKind::kLinkFlap:
      for (std::uint32_t i = 0; i < spec.count; ++i) {
        const sim::SimTime t = spec.at + spec.period * i;
        sim.schedule_at(t,
                        [this, node, port] { set_link_down(node, port, true); });
        sim.schedule_at(t + spec.duration, [this, node, port] {
          set_link_down(node, port, false);
        });
      }
      break;
    case FaultKind::kLoss:
    case FaultKind::kCorrupt:
    case FaultKind::kDuplicate:
    case FaultKind::kReorder:
    case FaultKind::kJitter:
      sim.schedule_at(spec.at, [this, node, port, kind = spec.kind,
                                p = spec.probability, d = spec.delay] {
        apply_profile_field(node, port, kind, p, d);
      });
      if (spec.duration != sim::SimTime::zero()) {
        sim.schedule_at(spec.at + spec.duration,
                        [this, node, port, kind = spec.kind] {
                          apply_profile_field(node, port, kind, 0.0,
                                              sim::SimTime::zero());
                        });
      }
      break;
    case FaultKind::kNodeCrash:
    case FaultKind::kNodeStop: {
      const bool crash = spec.kind == FaultKind::kNodeCrash;
      sim.schedule_at(spec.at, [this, node, crash, dur = spec.duration] {
        if (crash) {
          crash_node(node);
        } else {
          stop_node(node);
        }
        if (dur == sim::SimTime::zero()) return;  // permanent kill
        // The restart belongs to this incarnation: a later overlapping
        // kill spec bumps the epoch and vetoes it, so a permanent kill
        // scheduled after us stays permanent.
        const std::uint64_t epoch = down_epoch_[node];
        net_.sim().schedule_in(dur, [this, node, epoch] {
          if (down_epoch_[node] == epoch) restart_node(node);
        });
      });
      break;
    }
  }
}

void FaultPlane::schedule(const FaultScenario& scenario) {
  for (const FaultSpec& spec : scenario.faults) schedule_one(spec);
}

// --- ledger -----------------------------------------------------------------

std::int64_t FaultPlane::conservation_residual() const {
  const net::NetworkCounters& c = net_.counters();
  const std::int64_t offered =
      static_cast<std::int64_t>(c.frames_offered + counters_.duplicated);
  const std::int64_t accounted = static_cast<std::int64_t>(
      c.frames_delivered + c.frames_dropped_no_link +
      c.frames_dropped_backend + counters_.wire_drops() + c.frames_in_flight);
  return offered - accounted;
}

void FaultPlane::register_metrics(obs::ObsHub& hub,
                                  const std::string& label) const {
  const auto bind = [&](const char* metric, const std::uint64_t& v) {
    hub.metrics().bind_counter({label, "faults", metric}, &v);
  };
  counters_.fields(bind);
  bind("link_down_events", counters_.link_down_events);
  bind("link_up_events", counters_.link_up_events);
  bind("node_crashes", counters_.node_crashes);
  bind("node_restarts", counters_.node_restarts);
  bind("node_stops", counters_.node_stops);
}

// --- net::FaultInjector -----------------------------------------------------

bool FaultPlane::node_alive(net::NodeId node) const {
  return !crashed_.contains(node);
}

FaultPlane::TransitVerdict FaultPlane::on_transit(net::NodeId node,
                                                  net::PortId port,
                                                  net::Frame& frame,
                                                  sim::SimTime now) {
  (void)now;
  TransitVerdict v;
  if (crashed_.contains(node)) {
    // Stale transmit from a crashed node (most paths suppress earlier).
    v.drop = true;
    v.cause = "sender_down";
    ++counters_.dropped_sender_down;
    return v;
  }
  if (link_is_down(node, port)) {
    v.drop = true;
    v.cause = "link_down";
    ++counters_.dropped_link_down;
    return v;
  }
  const auto it = profiles_.find(key(node, port));
  if (it == profiles_.end()) return v;
  const LinkFaultProfile& p = it->second;
  if (p.loss > 0 && loss_rng_.bernoulli(p.loss)) {
    v.drop = true;
    v.cause = "loss";
    ++counters_.dropped_loss;
    return v;
  }
  if (p.corrupt > 0 && corrupt_rng_.bernoulli(p.corrupt) &&
      !frame.payload.empty()) {
    const std::int64_t bit = corrupt_rng_.uniform_int(
        0, static_cast<std::int64_t>(frame.payload.size()) * 8 - 1);
    frame.payload[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    v.corrupted = true;
    ++counters_.corrupted;
  }
  if (p.duplicate > 0 && duplicate_rng_.bernoulli(p.duplicate)) {
    v.duplicate = true;
    ++counters_.duplicated;
  }
  if (p.reorder > 0 && reorder_rng_.bernoulli(p.reorder)) {
    // Reordering by delayed re-enqueue: this frame arrives reorder_delay
    // late, so frames serialized after it on the same link overtake it.
    v.reordered = true;
    v.extra_delay += p.reorder_delay;
    ++counters_.reordered;
  }
  if (p.jitter_max > sim::SimTime::zero()) {
    v.extra_delay +=
        sim::nanoseconds(jitter_rng_.uniform_int(0, p.jitter_max.nanos()));
    ++counters_.jittered;
  }
  return v;
}

void FaultPlane::on_receiver_down(net::NodeId node, const net::Frame& frame,
                                  sim::SimTime now) {
  (void)node;
  (void)frame;
  (void)now;
  ++counters_.dropped_receiver_down;
}

void FaultPlane::on_tx_suppressed(net::NodeId node, const net::Frame& frame) {
  (void)node;
  (void)frame;
  ++counters_.suppressed_tx;
}

void FaultPlane::on_rx_suppressed(net::NodeId node, const net::Frame& frame) {
  (void)node;
  (void)frame;
  ++counters_.suppressed_rx;
}

}  // namespace steelnet::faults
