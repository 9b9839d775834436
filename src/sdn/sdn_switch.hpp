// steelnet::sdn -- the programmable software switch node.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/egress_queue.hpp"
#include "net/node.hpp"
#include "sdn/pipeline.hpp"

namespace steelnet::sdn {

struct SdnSwitchCounters {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t dropped = 0;
  std::uint64_t punted = 0;
  std::uint64_t injected = 0;
};

/// A switch whose entire forwarding behaviour is its Pipeline.
///
/// The control application can: edit tables (via pipeline()), observe
/// every ingress frame (inspector -- models mirror-to-CPU), and inject
/// frames out of any port (in-network endpoint behaviour, e.g. InstaPLC's
/// digital twin answering a vPLC). Punted frames are counted.
class SdnSwitchNode final : public net::Node {
 public:
  void handle_frame(net::Frame frame, net::PortId in_port) override;
  void on_channel_idle(net::PortId port) override;

  [[nodiscard]] Pipeline& pipeline() { return pipeline_; }

  /// Sees every ingress frame before the pipeline runs (read-only spy).
  void set_inspector(
      std::function<void(const net::Frame&, net::PortId)> fn) {
    inspector_ = std::move(fn);
  }

  /// Emits a control-application-crafted frame out of `port`.
  void inject(net::Frame frame, net::PortId port);

  [[nodiscard]] const SdnSwitchCounters& counters() const {
    return counters_;
  }

  /// Binds switch + per-port egress counters under `<name>/sdn/...`.
  /// Materializes egress queues of connected ports; call after links are
  /// connected.
  void register_metrics(obs::ObsHub& hub);

 private:
  net::EgressQueue& queue_for(net::PortId port);

  Pipeline pipeline_;
  std::vector<std::unique_ptr<net::EgressQueue>> egress_;
  std::uint32_t obs_track_ = static_cast<std::uint32_t>(-1);
  std::function<void(const net::Frame&, net::PortId)> inspector_;
  SdnSwitchCounters counters_;
};

}  // namespace steelnet::sdn
