// steelnet::net -- per-port egress queueing with strict priority and an
// optional TSN gate controller.
#pragma once

#include <array>
#include <cstdint>

#include "net/frame.hpp"
#include "net/node.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/ring_queue.hpp"

namespace steelnet::net {

/// Per-priority drop/transmit counters of one egress port. The overflow
/// drop counter lives on the obs metrics plane (an obs::Counter is a
/// plain uint64 with a name-bindable address); the accessor API is
/// unchanged -- it converts implicitly wherever a uint64_t was read.
struct EgressCounters {
  std::uint64_t enqueued = 0;
  std::uint64_t transmitted = 0;
  obs::Counter dropped_overflow;
};

/// Eight strict-priority FIFO queues in front of one channel.
///
/// Owned by a Node for each of its ports. The owning node must forward
/// on_channel_idle(port) to drain(). If a GateController is installed,
/// frames only start when their gate is open for the frame's whole
/// duration (802.1Qbv semantics, including the implicit guard band).
class EgressQueue {
 public:
  static constexpr std::size_t kPriorities = 8;

  /// `capacity_per_queue` == 0 means unbounded.
  EgressQueue(Node& owner, PortId port, std::size_t capacity_per_queue = 1024);

  /// Queues the frame (by pcp) and drains if possible.
  void enqueue(Frame frame);

  /// Attempts to start transmitting the best eligible frame. Called on
  /// enqueue, on channel idle, and when a gate opens.
  void drain();

  void set_gate_controller(const GateController* gates) { gates_ = gates; }

  [[nodiscard]] std::size_t depth(std::uint8_t pcp) const {
    return queues_[pcp].size();
  }
  [[nodiscard]] const EgressCounters& counters() const { return counters_; }

  /// Binds this port's counters onto the hub's registry under
  /// `<owner>/pN/egress/...`.
  void register_metrics(obs::ObsHub& hub) const;

 private:
  /// Interned "owner/pN" obs track, lazily resolved (the owner's name is
  /// only known after Network::add_node attaches it).
  std::uint32_t obs_track(obs::ObsHub& hub);

  Node& owner_;
  PortId port_;
  std::size_t capacity_;
  /// Ring buffers, not deques: steady-state push/pop at depth 0-1 must
  /// not touch the allocator (deque block churn breaks the kernel's
  /// allocation-free guarantee; see sim/ring_queue.hpp).
  std::array<sim::RingQueue<Frame>, kPriorities> queues_;
  const GateController* gates_ = nullptr;
  sim::EventHandle gate_retry_;
  std::uint32_t obs_track_ = static_cast<std::uint32_t>(-1);
  EgressCounters counters_;
};

}  // namespace steelnet::net
