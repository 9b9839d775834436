// steelnet::flowmon -- the offered-traffic source of the flowmon
// scenarios (run_measured_mix, run_federation); not part of the library
// API.
#pragma once

#include <cstdint>
#include <utility>

#include "net/host_node.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace steelnet::flowmon {

/// One offered flow: either byte-bounded with randomized inter-packet
/// gaps (mice / medium / elephant / bursty) or cycle-periodic and
/// open-ended (vPLC). Self-schedules its frames; stops at the window end
/// or when the byte budget is spent.
class FlowSender {
 public:
  struct Plan {
    net::MacAddress dst;
    net::EtherType ethertype = net::EtherType::kIpv4;
    std::uint8_t pcp = 0;
    std::size_t payload_bytes = 0;
    std::uint64_t total_bytes = 0;  ///< 0 = unbounded (periodic flows)
    sim::SimTime start;
    bool periodic = false;
    sim::SimTime cycle;            ///< periodic flows
    sim::SimTime gap_lo, gap_hi;   ///< randomized flows
    std::uint64_t flow_id = 0;
  };

  FlowSender(sim::Simulator& sim, net::HostNode& host, Plan plan,
             sim::Rng rng, sim::SimTime window_end,
             std::uint64_t& frames_sent)
      : sim_(sim),
        host_(host),
        plan_(plan),
        rng_(std::move(rng)),
        window_end_(window_end),
        frames_sent_(frames_sent) {
    sim_.schedule_at(plan_.start, [this] { fire(); });
  }

 private:
  void fire() {
    net::Frame frame =
        host_.network().frame_pool().make(plan_.payload_bytes);
    frame.dst = plan_.dst;
    frame.ethertype = plan_.ethertype;
    frame.pcp = plan_.pcp;
    frame.flow_id = plan_.flow_id;
    frame.seq = seq_++;
    host_.send(std::move(frame));
    ++frames_sent_;
    sent_bytes_ += plan_.payload_bytes;

    if (plan_.total_bytes != 0 && sent_bytes_ >= plan_.total_bytes) return;
    const sim::SimTime gap =
        plan_.periodic
            ? plan_.cycle
            : sim::SimTime{static_cast<std::int64_t>(rng_.uniform(
                  double(plan_.gap_lo.nanos()), double(plan_.gap_hi.nanos())))};
    const sim::SimTime next = sim_.now() + gap;
    if (next > window_end_) return;
    sim_.schedule_at(next, [this] { fire(); });
  }

  sim::Simulator& sim_;
  net::HostNode& host_;
  Plan plan_;
  sim::Rng rng_;
  sim::SimTime window_end_;
  std::uint64_t& frames_sent_;
  std::uint64_t seq_ = 0;
  std::uint64_t sent_bytes_ = 0;
};

}  // namespace steelnet::flowmon
