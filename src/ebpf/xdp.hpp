// steelnet::ebpf -- XDP attachment point: plugs a Vm into a HostNode NIC.
#pragma once

#include <cstdint>
#include <functional>

#include "ebpf/verifier.hpp"
#include "ebpf/vm.hpp"
#include "net/host_node.hpp"

namespace steelnet::ebpf {

struct XdpStats {
  std::uint64_t runs = 0;
  std::uint64_t pass = 0;
  std::uint64_t drop = 0;
  std::uint64_t tx = 0;
  std::uint64_t aborted = 0;
};

/// An XDP-native hook: verifies the program at attach time (like the
/// kernel: unverifiable programs never load), then executes it per frame.
/// On XDP_TX it swaps the Ethernet addresses, making the programs in
/// programs.hpp true reflectors.
class XdpHook final : public net::NicProcessor {
 public:
  /// Throws std::invalid_argument (verifier message) if `program` is
  /// rejected.
  XdpHook(Program program, CostParams cost = {}, std::uint64_t seed = 1);

  net::NicAction process(net::Frame& frame, sim::SimTime now,
                         sim::SimTime& cost_out) override;

  /// Observer invoked after every run (measurement harnesses).
  void set_observer(std::function<void(const RunResult&)> fn) {
    observer_ = std::move(fn);
  }

  /// Concurrency pressure on the hook (Fig. 4-right knob).
  void set_concurrent_flows(std::size_t flows) {
    vm_.cost_model().set_concurrent_flows(flows);
  }

  [[nodiscard]] const XdpStats& stats() const { return stats_; }
  [[nodiscard]] Vm& vm() { return vm_; }

 private:
  Vm vm_;
  XdpStats stats_;
  std::function<void(const RunResult&)> observer_;
};

}  // namespace steelnet::ebpf
