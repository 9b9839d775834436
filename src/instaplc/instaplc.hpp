// steelnet::instaplc -- the in-network vPLC high-availability application.
//
// Implements §4's design on the sdn match-action switch:
//   * first vPLC to connect to an I/O device becomes PRIMARY;
//   * a later vPLC becomes SECONDARY and talks to the digital twin;
//   * rule (1) twin -> secondary config replies are injected in-network;
//   * rule (2) secondary packets go to the twin only (dropped on wire);
//   * rule (3) device packets are forwarded to BOTH vPLCs;
//   * rule (4) primary packets go to the physical device;
//   * a data-plane monitor counts primary cyclic frames and, after a
//     configurable number of silent I/O cycles, rewrites rule (2) so the
//     secondary's frames flow to the device -- the switchover.
// No dedicated links between the vPLCs are required.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "instaplc/digital_twin.hpp"
#include "sdn/sdn_switch.hpp"
#include "sim/simulator.hpp"

namespace steelnet::instaplc {

struct InstaPlcConfig {
  /// Switch port the physical I/O device is attached to.
  net::PortId device_port = 0;
  /// Silent I/O cycles before the data-plane monitor triggers the
  /// switchover (the paper: "a configurable number of I/O cycles").
  std::uint16_t switchover_cycles = 3;
};

enum class VplcRole : std::uint8_t { kPrimary, kSecondary };

struct VplcInfo {
  net::MacAddress mac;
  net::PortId port = 0;
  std::uint16_t ar_id = 0;
};

struct InstaPlcStats {
  std::uint64_t primary_cyclic = 0;
  std::uint64_t secondary_cyclic = 0;
  std::uint64_t to_device = 0;
  std::uint64_t from_device = 0;
  std::optional<sim::SimTime> primary_last_seen;
  std::optional<sim::SimTime> switchover_at;
  /// switchover_at - primary_last_seen at the switchover; zero until then.
  sim::SimTime switchover_latency;
};

/// Observable events, timestamped, for the Fig. 5 time series.
enum class InstaPlcEvent : std::uint8_t {
  kPrimaryCyclic,
  kSecondaryCyclic,
  kToDevice,
  kFromDevice,
  kSwitchover,
};

class InstaPlcApp {
 public:
  /// Binds to `sw` (installs its pipeline, inspector and monitor task).
  InstaPlcApp(sdn::SdnSwitchNode& sw, InstaPlcConfig cfg);

  void set_observer(
      std::function<void(InstaPlcEvent, sim::SimTime)> fn) {
    observer_ = std::move(fn);
  }

  [[nodiscard]] const DigitalTwin& twin() const { return twin_; }
  [[nodiscard]] const InstaPlcStats& stats() const { return stats_; }
  [[nodiscard]] std::optional<VplcInfo> primary() const { return primary_; }
  [[nodiscard]] std::optional<VplcInfo> secondary() const {
    return secondary_;
  }
  [[nodiscard]] bool switched_over() const {
    return stats_.switchover_at.has_value();
  }

  /// Binds switchover stats under `<node_label>/instaplc/...`. The
  /// switchover instant is exported as a gauge (ns; -1 until it happens).
  void register_metrics(obs::ObsHub& hub, const std::string& node_label) const;

 private:
  void on_ingress(const net::Frame& frame, net::PortId in_port);
  void designate_primary(const net::Frame& frame, net::PortId in_port,
                         const profinet::ConnectReq& req);
  void designate_secondary(const net::Frame& frame, net::PortId in_port,
                           const profinet::ConnectReq& req);
  void handle_secondary_pdu(const net::Frame& frame,
                            const profinet::Pdu& pdu);
  void monitor_tick();
  void do_switchover();
  void emit(InstaPlcEvent ev);

  sdn::SdnSwitchNode& sw_;
  InstaPlcConfig cfg_;
  DigitalTwin twin_;

  std::size_t table_ = 0;
  std::optional<sdn::EntryId> primary_to_device_;
  std::optional<sdn::EntryId> device_out_;
  std::optional<sdn::EntryId> secondary_rule_;

  std::optional<VplcInfo> primary_;
  std::optional<VplcInfo> secondary_;
  net::MacAddress device_mac_;
  sim::SimTime io_cycle_ = sim::milliseconds(2);

  std::unique_ptr<sim::PeriodicTask> monitor_;
  InstaPlcStats stats_;
  std::function<void(InstaPlcEvent, sim::SimTime)> observer_;
};

}  // namespace steelnet::instaplc
