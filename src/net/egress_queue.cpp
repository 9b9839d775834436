#include "net/egress_queue.hpp"

#include "obs/hub.hpp"

namespace steelnet::net {

EgressQueue::EgressQueue(Node& owner, PortId port,
                         std::size_t capacity_per_queue)
    : owner_(owner), port_(port), capacity_(capacity_per_queue) {}

std::uint32_t EgressQueue::obs_track(obs::ObsHub& hub) {
  if (obs_track_ == static_cast<std::uint32_t>(-1)) {
    obs_track_ =
        hub.track(owner_.name() + "/p" + std::to_string(port_));
  }
  return obs_track_;
}

void EgressQueue::register_metrics(obs::ObsHub& hub) const {
  obs::MetricsRegistry& reg = hub.metrics();
  const std::string module = "p" + std::to_string(port_) + "/egress";
  reg.bind_counter({owner_.name(), module, "enqueued"}, &counters_.enqueued);
  reg.bind_counter({owner_.name(), module, "transmitted"},
                   &counters_.transmitted);
  reg.bind_counter({owner_.name(), module, "dropped_overflow"},
                   &counters_.dropped_overflow);
}

void EgressQueue::enqueue(Frame frame) {
  // A crashed node's egress path is dead: the frame is suppressed at the
  // fault plane instead of queueing (and stale frames are purged by
  // drain() below when the crash hits a non-empty queue).
  if (FaultInjector* fp = owner_.network().faults();
      fp != nullptr && !fp->node_alive(owner_.id())) {
    if (obs::ObsHub* hub = owner_.network().obs();
        hub != nullptr && frame.trace_id != 0) {
      hub->fault_event(frame.trace_id, obs_track(*hub),
                       owner_.network().sim().now(), "tx_suppressed");
    }
    fp->on_tx_suppressed(owner_.id(), frame);
    owner_.network().frame_pool().recycle(std::move(frame));
    return;
  }
  const std::uint8_t pcp = frame.pcp & 0x7;
  obs::ObsHub* hub = owner_.network().obs();
  if (capacity_ != 0 && queues_[pcp].size() >= capacity_) {
    ++counters_.dropped_overflow;
    if (hub != nullptr && frame.trace_id != 0) {
      hub->queue_drop(frame.trace_id, obs_track(*hub));
    }
    owner_.on_egress_drop(port_, frame);
    owner_.network().frame_pool().recycle(std::move(frame));
    return;
  }
  ++counters_.enqueued;
  if (hub != nullptr && frame.trace_id != 0) {
    hub->queue_enter(frame.trace_id, obs_track(*hub),
                     owner_.network().sim().now());
  }
  queues_[pcp].push_back(std::move(frame));
  drain();
}

std::size_t EgressQueue::depth() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

void EgressQueue::drain() {
  Network& net = owner_.network();
  obs::ObsHub* hub = net.obs();
  if (FaultInjector* fp = net.faults();
      fp != nullptr && !fp->node_alive(owner_.id())) {
    // The owning node crashed with frames still queued: purge them (a
    // dead NIC's buffers do not survive), keeping the fault ledger exact.
    for (auto& q : queues_) {
      while (!q.empty()) {
        if (hub != nullptr && q.front().trace_id != 0) {
          hub->queue_drop(q.front().trace_id, obs_track(*hub));
          hub->fault_event(q.front().trace_id, obs_track(*hub),
                           net.sim().now(), "tx_suppressed");
        }
        fp->on_tx_suppressed(owner_.id(), q.front());
        net.frame_pool().recycle(std::move(q.front()));
        q.pop_front();
      }
    }
    return;
  }
  // One channel lookup serves the connected check, the idle check and
  // the transmit below.
  const Network::ChannelId ch = net.channel_at(owner_.id(), port_);
  if (ch == Network::kNoChannel) {
    // Unconnected port: drain everything into the network's drop counter
    // (transmit() on a missing channel counts frames_dropped_no_link).
    for (auto& q : queues_) {
      while (!q.empty()) {
        if (hub != nullptr && q.front().trace_id != 0) {
          hub->queue_exit(q.front().trace_id, obs_track(*hub),
                          net.sim().now());
        }
        net.transmit(owner_.id(), port_, std::move(q.front()));
        q.pop_front();
      }
    }
    return;
  }
  if (!net.channel_idle(ch)) return;  // re-drained on idle

  const sim::SimTime now = net.sim().now();
  // Gate checks need the head frame's wire occupancy; the channel's link
  // backend supplies the estimate (wired: occupancy at the channel rate,
  // recomputed identically by Network::transmit; radio: the currently
  // adapted rate).
  sim::SimTime best_retry = sim::SimTime::max();
  for (int pcp = static_cast<int>(kPriorities) - 1; pcp >= 0; --pcp) {
    auto& q = queues_[static_cast<std::size_t>(pcp)];
    if (q.empty()) continue;
    Frame& head = q.front();
    if (gates_ != nullptr) {
      const sim::SimTime dur =
          net.serialization_estimate(owner_.id(), port_, head);
      if (!gates_->can_start(static_cast<std::uint8_t>(pcp), now, dur)) {
        const sim::SimTime t =
            gates_->next_opportunity(static_cast<std::uint8_t>(pcp), now, dur);
        if (t < best_retry) best_retry = t;
        continue;  // lower priorities may still be eligible
      }
    }
    Frame f = std::move(head);
    q.pop_front();
    ++counters_.transmitted;
    if (hub != nullptr && f.trace_id != 0) {
      hub->queue_exit(f.trace_id, obs_track(*hub), now);
    }
    net.transmit(ch, std::move(f));
    return;
  }
  // Nothing eligible now; if a gate opens later, retry then.
  if (best_retry != sim::SimTime::max()) {
    gate_retry_.cancel();
    gate_retry_ = net.sim().schedule_at(best_retry, [this] { drain(); });
  }
}

}  // namespace steelnet::net
