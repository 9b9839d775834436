// steelnet::tap -- a passive network TAP with hardware timestamping.
//
// §3: "all packet capture timestamps come from a single clock (the tap's
// clock), avoiding measurement errors caused by clock synchronization
// problems. ... the network taps have their own timestamping precision,
// which is acceptably low with 8 ns."
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/node.hpp"
#include "tsn/ptp.hpp"

namespace steelnet::tap {

/// Direction of a frame through the tap, from port A (0) or port B (1).
enum class TapDirection : std::uint8_t { kAtoB = 0, kBtoA = 1 };

struct TapObservation {
  sim::SimTime stamp;  ///< quantized tap-clock timestamp
  TapDirection direction;
  std::uint64_t flow_id;
  std::uint64_t seq;
  std::size_t wire_bytes;
};

/// Two-port inline tap: forwards A<->B with a fixed pass-through latency
/// and records every frame with its own (quantized) clock.
class TapNode final : public net::Node {
 public:
  static constexpr net::PortId kPortA = 0;
  static constexpr net::PortId kPortB = 1;

  explicit TapNode(sim::SimTime timestamp_resolution = sim::nanoseconds(8),
                   sim::SimTime passthrough_latency = sim::nanoseconds(50));

  void handle_frame(net::Frame frame, net::PortId in_port) override;

  [[nodiscard]] const std::vector<TapObservation>& observations() const {
    return log_;
  }

  /// First observation matching (flow, seq, direction), if captured.
  [[nodiscard]] std::optional<sim::SimTime> find_stamp(
      std::uint64_t flow_id, std::uint64_t seq, TapDirection dir) const;

  [[nodiscard]] std::uint64_t frames_seen() const { return frames_seen_; }

 private:
  tsn::QuantizedTimestamper stamper_;
  sim::SimTime passthrough_;
  std::vector<TapObservation> log_;
  std::uint64_t frames_seen_ = 0;
};

}  // namespace steelnet::tap
