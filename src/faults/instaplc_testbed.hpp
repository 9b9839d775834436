// steelnet::faults -- the canonical InstaPLC high-availability testbed
// as a reusable component.
//
// Extracted from ScenarioRunner::run so workloads other than the seed
// sweep can stand the same testbed up against an external simulator --
// most importantly the radio floor (net::run_radio_floor), which builds
// one testbed per sharded cell with a LossyRadioBackend injected on the
// device link. The InstaPLC benches (Fig. 5, the hop breakdown, the
// availability table and the watchdog sweep) stand it up too; a primary
// failure is a `stop node=v1` fault. Construction order, obs
// registration order and RNG stream derivations are exactly the
// pre-extraction ScenarioRunner sequence, which is what keeps the wired
// golden fingerprints byte-identical.
//
// Lifecycle: construct against a simulator, attach whatever the caller
// measures (an app observer, a host path), call start() once (connects
// the primary, schedules the secondary and the fault scenario), drive the
// simulator (run_until or a sharded cell's execution), then collect().
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "faults/fault_plane.hpp"
#include "faults/scenario.hpp"
#include "faults/scenario_runner.hpp"
#include "instaplc/instaplc.hpp"
#include "obs/hub.hpp"
#include "profinet/controller.hpp"
#include "profinet/io_device.hpp"

namespace steelnet::faults {

class InstaPlcTestbed {
 public:
  struct Config {
    RunnerOptions opts{};
    /// Link driver for the device link; nullptr = the network's built-in
    /// wired backend (byte-identical to the pre-backend testbed).
    net::LinkBackend* device_backend = nullptr;
    /// Invoked after the nodes exist but before the device link connects
    /// -- the hook a radio backend uses to bind its station to the final
    /// (node, port) endpoints.
    std::function<void(net::NodeId dev_host, net::PortId dev_port,
                       net::NodeId sw, net::PortId sw_port)>
        before_device_connect{};
  };

  InstaPlcTestbed(sim::Simulator& sim, FaultScenario scenario, Config cfg);

  /// Connects the primary vPLC, schedules the secondary and the fault
  /// scenario. Call exactly once, before driving the simulator.
  void start();

  /// Reads every outcome field (counters, invariants, obs fingerprints).
  /// Valid any time after start(); normally called once the simulator
  /// reached the horizon.
  [[nodiscard]] ScenarioOutcome collect();

  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] FaultPlane& plane() { return *plane_; }
  [[nodiscard]] obs::ObsHub& hub() { return hub_; }
  [[nodiscard]] const RunnerOptions& options() const { return cfg_.opts; }
  /// The InstaPLC app on "sdn". The testbed sets no observer on it, so a
  /// caller may install one without changing the outcome.
  [[nodiscard]] instaplc::InstaPlcApp& app() { return *app_; }
  /// The I/O device on "dev" (switch port 0).
  [[nodiscard]] profinet::IoDevice& device() { return *device_; }
  /// The primary vPLC's host, "v1" (switch port 1).
  [[nodiscard]] net::HostNode& primary_host() { return *v1_host_; }
  /// Time of the last valid (run-state) device output; zero + !saw_output
  /// when the device never produced one. The radio floor folds the dead
  /// tail (horizon - last output) into its degradation metric.
  [[nodiscard]] sim::SimTime last_valid_output() const {
    return last_valid_output_;
  }
  [[nodiscard]] bool saw_output() const { return saw_output_; }

 private:
  /// Counts frames delivered anywhere whose source node was already dead
  /// (permanently crashed/stopped) when the frame was created -- the
  /// "no delivery after a kill" invariant.
  class PostKillProbe final : public net::FrameObserver {
   public:
    void watch(net::MacAddress mac, sim::SimTime killed_at) {
      kills_[mac.bits()] = killed_at;
    }
    void on_frame(const net::Frame& frame, net::PortId in_port) override {
      (void)in_port;
      const auto it = kills_.find(frame.src.bits());
      if (it != kills_.end() && frame.created_at > it->second) ++violations_;
    }
    [[nodiscard]] std::uint64_t violations() const { return violations_; }

   private:
    std::unordered_map<std::uint64_t, sim::SimTime> kills_;
    std::uint64_t violations_ = 0;
  };

  sim::Simulator& sim_;
  FaultScenario scenario_;
  Config cfg_;

  net::Network network_;
  obs::ObsHub hub_;
  sdn::SdnSwitchNode* sw_ = nullptr;
  net::HostNode* dev_host_ = nullptr;
  net::HostNode* v1_host_ = nullptr;
  net::HostNode* v2_host_ = nullptr;
  std::optional<profinet::IoDevice> device_;
  std::optional<instaplc::InstaPlcApp> app_;
  std::optional<profinet::CyclicController> vplc1_;
  std::optional<profinet::CyclicController> vplc2_;
  std::optional<FaultPlane> plane_;
  PostKillProbe post_kill_;

  sim::SimTime last_valid_output_;
  sim::SimTime max_gap_;
  bool saw_output_ = false;
  bool started_ = false;
};

}  // namespace steelnet::faults
