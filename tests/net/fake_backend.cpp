#include "fake_backend.hpp"

namespace steelnet::net {

FakeAction FakeBackend::next_action(NodeId node, PortId port) {
  if (const auto it = scripts_.find(link_key(node, port));
      it != scripts_.end() && !it->second.empty()) {
    FakeAction a = it->second.front();
    it->second.pop_front();
    return a;
  }
  if (!global_.empty()) {
    FakeAction a = global_.front();
    global_.pop_front();
    return a;
  }
  return {};
}

sim::SimTime FakeBackend::serialize_estimate(NodeId node, PortId port,
                                             const Frame& frame,
                                             const LinkParams& params,
                                             sim::SimTime now) {
  (void)now;
  // Peek-only (estimates must not consume script actions): use the rate
  // the next scripted action would apply, if any.
  std::uint64_t bps = params.bits_per_second;
  if (const auto it = scripts_.find(link_key(node, port));
      it != scripts_.end() && !it->second.empty()) {
    if (it->second.front().rate_override != 0) {
      bps = it->second.front().rate_override;
    }
  } else if (!global_.empty() && global_.front().rate_override != 0) {
    bps = global_.front().rate_override;
  }
  return serialization_time(frame.occupancy_bytes(), bps);
}

LinkTxPlan FakeBackend::plan_transmit(NodeId node, PortId port,
                                      const Frame& frame,
                                      const LinkParams& params,
                                      sim::SimTime now) {
  (void)now;
  ++frames_seen_;
  const FakeAction a = next_action(node, port);
  LinkTxPlan plan;
  const std::uint64_t bps =
      a.rate_override != 0 ? a.rate_override : params.bits_per_second;
  plan.bits_per_second = bps;
  plan.serialize = serialization_time(frame.occupancy_bytes(), bps);
  plan.propagate = params.propagation + a.extra_propagation;
  if (a.drop) {
    plan.survives = false;
    plan.cause = a.cause;
    ++frames_dropped_;
  }
  return plan;
}

std::size_t FakeBackend::pending_actions() const {
  std::size_t n = global_.size();
  for (const auto& [k, q] : scripts_) n += q.size();
  return n;
}

}  // namespace steelnet::net
