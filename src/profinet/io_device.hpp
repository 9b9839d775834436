// steelnet::profinet -- the I/O device endpoint (field side).
//
// An I/O device collects sensor readings and drives actuators (§1.1). It
// accepts one application relationship, stores parameterization records,
// exchanges cyclic data, and -- crucially for the paper's availability
// story -- halts its outputs for safety when the controller's cyclic
// frames stop arriving for `watchdog_factor` cycles (PROFINET watchdog
// expiration, §2.1/§4).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/host_node.hpp"
#include "profinet/wire.hpp"
#include "sim/simulator.hpp"

namespace steelnet::profinet {

enum class DeviceState : std::uint8_t {
  kIdle,
  kConnected,       ///< AR open, awaiting parameterization
  kDataExchange,    ///< cyclic I/O running
  kWatchdogExpired, ///< outputs halted (safe state)
};

[[nodiscard]] const char* to_string(DeviceState s);

struct IoDeviceConfig {
  std::uint32_t device_id = 1;
  /// Resume data exchange automatically if cyclic frames return after a
  /// watchdog trip. Real devices often require re-parameterization; the
  /// flag exists so experiments can show both behaviours.
  bool auto_resume = true;
};

struct IoDeviceCounters {
  std::uint64_t cyclic_rx = 0;
  std::uint64_t cyclic_tx = 0;
  std::uint64_t watchdog_trips = 0;
  std::uint64_t alarms_sent = 0;
  std::uint64_t rejected_connects = 0;
  std::uint64_t malformed = 0;
};

class IoDevice {
 public:
  /// Binds to `host` (takes over its receiver callback).
  IoDevice(net::HostNode& host, IoDeviceConfig cfg = {});

  /// Sensor image: called once per device cycle to fill the cyclic frame
  /// toward the controller. Defaults to zero-filled data.
  void set_input_provider(
      std::function<std::vector<std::uint8_t>(std::size_t bytes)> fn) {
    input_provider_ = std::move(fn);
  }

  /// Actuator image: called whenever fresh output data arrives. The
  /// second argument is false when the device enters the safe state
  /// (outputs must be treated as zero / de-energized).
  void set_output_handler(
      std::function<void(const std::vector<std::uint8_t>&, bool run)> fn) {
    output_handler_ = std::move(fn);
  }

  [[nodiscard]] DeviceState state() const { return state_; }
  [[nodiscard]] const IoDeviceCounters& counters() const { return counters_; }
  [[nodiscard]] std::optional<std::uint16_t> active_ar() const {
    return state_ == DeviceState::kIdle ? std::nullopt
                                        : std::optional(ar_id_);
  }
  [[nodiscard]] const std::map<std::uint16_t, std::vector<std::uint8_t>>&
  param_records() const {
    return records_;
  }
  [[nodiscard]] sim::SimTime cycle_time() const { return cycle_; }
  [[nodiscard]] net::HostNode& host() { return host_; }

  /// Binds device counters under `<host name>/profinet/...` (including
  /// the watchdog-expiration count central to the availability story).
  void register_metrics(obs::ObsHub& hub) const;

 private:
  void on_frame(const net::Frame& frame, sim::SimTime at);
  void handle(const ConnectReq& p, net::MacAddress from);
  void handle(const ParamRecord& p);
  void handle(const ParamDone& p);
  void handle(const CyclicData& p, net::MacAddress from);
  void handle(const Release& p);
  void start_data_exchange();
  void device_cycle();
  void send_pdu(const Pdu& pdu);

  net::HostNode& host_;
  IoDeviceConfig cfg_;
  DeviceState state_ = DeviceState::kIdle;

  std::uint16_t ar_id_ = 0;
  net::MacAddress controller_mac_;
  sim::SimTime cycle_ = sim::milliseconds(2);
  std::uint16_t watchdog_factor_ = 3;
  std::uint16_t input_bytes_ = 8;
  std::map<std::uint16_t, std::vector<std::uint8_t>> records_;

  std::unique_ptr<sim::PeriodicTask> cycle_task_;
  sim::SimTime last_output_rx_ = sim::SimTime::zero();
  std::uint16_t tx_cycle_counter_ = 0;
  /// Reused every cycle / every received frame so the steady cyclic
  /// exchange never touches the allocator.
  Pdu tx_pdu_{CyclicData{}};
  Pdu rx_pdu_;

  std::function<std::vector<std::uint8_t>(std::size_t)> input_provider_;
  std::function<void(const std::vector<std::uint8_t>&, bool)> output_handler_;
  IoDeviceCounters counters_;
};

}  // namespace steelnet::profinet
