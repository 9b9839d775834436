#include "sdn/sdn_switch.hpp"

#include "obs/hub.hpp"

namespace steelnet::sdn {

namespace {
/// Per-frame pipeline traversal latency (SWX software switches run a few
/// hundred ns per packet per core).
constexpr sim::SimTime kPipelineLatency = sim::nanoseconds(800);
constexpr std::size_t kQueueCapacity = 4096;
}  // namespace

net::EgressQueue& SdnSwitchNode::queue_for(net::PortId port) {
  if (egress_.size() <= port) egress_.resize(port + 1u);
  if (!egress_[port]) {
    egress_[port] =
        std::make_unique<net::EgressQueue>(*this, port, kQueueCapacity);
  }
  return *egress_[port];
}

void SdnSwitchNode::handle_frame(net::Frame frame, net::PortId in_port) {
  observe_frame(frame, in_port);
  ++counters_.frames_in;
  if (inspector_) inspector_(frame, in_port);
  if (obs::ObsHub* hub = network().obs();
      hub != nullptr && frame.trace_id != 0) {
    if (obs_track_ == static_cast<std::uint32_t>(-1)) {
      obs_track_ = hub->track(name());
    }
    const sim::SimTime now = network().sim().now();
    hub->proc(frame.trace_id, obs_track_, now, now + kPipelineLatency);
  }
  network().sim().schedule_in(
      kPipelineLatency,
      [this, f = std::move(frame), in_port]() mutable {
        net::Frame frame = std::move(f);
        const PipelineResult r = pipeline_.process(frame, in_port);
        if (r.punted) ++counters_.punted;
        if (r.dropped) {
          ++counters_.dropped;
          network().frame_pool().recycle(std::move(frame));
          return;
        }
        if (r.egress.empty()) {
          network().frame_pool().recycle(std::move(frame));
          return;
        }
        for (std::size_t i = 0; i < r.egress.size(); ++i) {
          ++counters_.frames_out;
          // Multicast copies draw their payload buffers from the pool.
          net::Frame copy = i + 1 == r.egress.size()
                                ? std::move(frame)
                                : network().frame_pool().clone(frame);
          if (r.egress[i].dst_override.has_value()) {
            copy.dst = *r.egress[i].dst_override;
          }
          if (r.egress[i].rewrite.has_value()) {
            const auto& rw = *r.egress[i].rewrite;
            for (std::size_t b = 0; b < rw.bytes.size(); ++b) {
              if (rw.offset + b < copy.payload.size()) {
                copy.payload[rw.offset + b] = rw.bytes[b];
              }
            }
          }
          queue_for(r.egress[i].port).enqueue(std::move(copy));
        }
      });
}

void SdnSwitchNode::inject(net::Frame frame, net::PortId port) {
  ++counters_.injected;
  queue_for(port).enqueue(std::move(frame));
}

void SdnSwitchNode::on_channel_idle(net::PortId port) {
  if (port < egress_.size() && egress_[port]) egress_[port]->drain();
}

void SdnSwitchNode::register_metrics(obs::ObsHub& hub) {
  obs::MetricsRegistry& reg = hub.metrics();
  reg.bind_counter({name(), "sdn", "frames_in"}, &counters_.frames_in);
  reg.bind_counter({name(), "sdn", "frames_out"}, &counters_.frames_out);
  reg.bind_counter({name(), "sdn", "dropped"}, &counters_.dropped);
  reg.bind_counter({name(), "sdn", "punted"}, &counters_.punted);
  reg.bind_counter({name(), "sdn", "injected"}, &counters_.injected);
  for (const auto& [port, peer] : network().ports_of(id())) {
    (void)peer;
    queue_for(port).register_metrics(hub);
  }
}

}  // namespace steelnet::sdn
