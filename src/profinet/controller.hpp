// steelnet::profinet -- the controller-side protocol driver (PLC side).
//
// Establishes the communication relationship ("the vPLC configures what
// data is exchanged with the I/O device and how often ... and how long
// each device can continue working without receiving new data", §4),
// then runs cyclic output transmission and input reception with its own
// watchdog on the device.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/host_node.hpp"
#include "profinet/wire.hpp"
#include "sim/simulator.hpp"

namespace steelnet::profinet {

enum class ControllerState : std::uint8_t {
  kIdle,
  kConnecting,
  kParameterizing,
  kRunning,
  kDeviceLost,  ///< device inputs stopped (controller-side watchdog)
  kStopped,     ///< stop() called -- the Fig. 5 failure injection
};

[[nodiscard]] const char* to_string(ControllerState s);

struct ControllerConfig {
  std::uint16_t ar_id = 1;
  net::MacAddress device_mac;
  sim::SimTime cycle = sim::milliseconds(2);
  std::uint16_t watchdog_factor = 3;
  std::uint16_t input_bytes = 8;   ///< device -> controller
  std::uint16_t output_bytes = 8;  ///< controller -> device
  /// Parameterization records written during connection establishment.
  std::vector<ParamRecord> records;
};

struct ControllerCounters {
  std::uint64_t cyclic_tx = 0;
  std::uint64_t cyclic_rx = 0;
  std::uint64_t connects_sent = 0;
  std::uint64_t device_watchdog_trips = 0;
  std::uint64_t alarms_rx = 0;
};

class CyclicController {
 public:
  /// ConnectReq retry interval / budget: after kMaxConnectRetries
  /// unanswered requests the controller gives up and reports failure.
  static constexpr sim::SimTime kConnectTimeout = sim::milliseconds(10);
  static constexpr std::size_t kMaxConnectRetries = 10;

  CyclicController(net::HostNode& host, ControllerConfig cfg);

  /// Starts connection establishment.
  void connect();
  /// Halts all transmission immediately (crash/failure injection).
  void stop();
  /// Jumps straight to kRunning without connection establishment --
  /// used by a redundancy standby whose AR state was replicated over a
  /// dedicated sync link. `resume_cycle_counter` continues the primary's
  /// numbering so the device sees one uninterrupted stream.
  void adopt_running(std::uint16_t resume_cycle_counter);

  /// Output image toward the device, sampled every cycle.
  void set_output_provider(
      std::function<std::vector<std::uint8_t>(std::size_t bytes)> fn) {
    output_provider_ = std::move(fn);
  }
  /// Fresh input data from the device.
  void set_input_handler(
      std::function<void(const std::vector<std::uint8_t>&)> fn) {
    input_handler_ = std::move(fn);
  }

  [[nodiscard]] ControllerState state() const { return state_; }
  [[nodiscard]] const ControllerCounters& counters() const {
    return counters_;
  }
  [[nodiscard]] const ControllerConfig& config() const { return cfg_; }
  [[nodiscard]] const std::vector<std::uint8_t>& last_inputs() const {
    return last_inputs_;
  }
  [[nodiscard]] net::HostNode& host() { return host_; }

  /// Binds controller counters under `<host name>/profinet/...`.
  void register_metrics(obs::ObsHub& hub) const;

 private:
  void on_frame(const net::Frame& frame, sim::SimTime at);
  void send_connect();
  void controller_cycle();
  void send_pdu(const Pdu& pdu);

  net::HostNode& host_;
  ControllerConfig cfg_;
  ControllerState state_ = ControllerState::kIdle;

  std::unique_ptr<sim::PeriodicTask> cycle_task_;
  sim::EventHandle connect_timer_;
  std::size_t connect_attempts_ = 0;
  std::uint16_t tx_cycle_counter_ = 0;
  sim::SimTime last_input_rx_ = sim::SimTime::zero();
  std::vector<std::uint8_t> last_inputs_;
  /// Reused every cycle / every received frame so the steady cyclic
  /// exchange never touches the allocator.
  Pdu tx_pdu_{CyclicData{}};
  Pdu rx_pdu_;

  std::function<std::vector<std::uint8_t>(std::size_t)> output_provider_;
  std::function<void(const std::vector<std::uint8_t>&)> input_handler_;
  ControllerCounters counters_;
};

}  // namespace steelnet::profinet
