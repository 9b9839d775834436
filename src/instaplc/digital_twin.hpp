// steelnet::instaplc -- the in-network digital twin of an I/O device.
//
// §4: "InstaPLC extracts information from the exchanged packets and, with
// this information, creates a digital twin of the I/O device. ... The
// secondary vPLC establishes a communication relationship with the
// digital twin I/O device. From the perspective of the secondary vPLC,
// communicating with the digital twin is identical to communicating with
// the actual I/O device."
//
// The twin learns purely by observing the primary's exchange (no device
// cooperation), then answers the secondary's connection establishment on
// the device's behalf. Cyclic input data is NOT generated by the twin --
// the real device's frames are mirrored to the secondary by rule (3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/mac.hpp"
#include "profinet/wire.hpp"

namespace steelnet::instaplc {

struct TwinCounters {
  std::uint64_t observed_pdus = 0;
  std::uint64_t answered_connects = 0;
  std::uint64_t absorbed_params = 0;
};

class DigitalTwin {
 public:
  /// Feeds one observed PDU from the primary <-> device exchange.
  /// `from_device` tells the direction.
  void observe(const profinet::Pdu& pdu, bool from_device);

  /// True once enough was learned to impersonate the device (its id and
  /// the communication-relationship parameters are known).
  [[nodiscard]] bool ready() const { return device_id_.has_value(); }

  /// Handles a PDU the secondary vPLC sent to the (virtual) device.
  /// Returns the twin's reply, if the protocol calls for one.
  [[nodiscard]] std::optional<profinet::Pdu> handle_from_secondary(
      const profinet::Pdu& pdu);

  [[nodiscard]] std::optional<std::uint32_t> device_id() const {
    return device_id_;
  }
  [[nodiscard]] std::optional<std::uint32_t> cycle_time_us() const {
    return cycle_time_us_;
  }
  [[nodiscard]] std::optional<std::uint16_t> watchdog_factor() const {
    return watchdog_factor_;
  }
  /// Parameterization records captured from the primary.
  [[nodiscard]] const std::map<std::uint16_t, std::vector<std::uint8_t>>&
  learned_records() const {
    return learned_records_;
  }
  /// Records the secondary wrote to the twin (diagnosable mismatches).
  [[nodiscard]] const std::map<std::uint16_t, std::vector<std::uint8_t>>&
  secondary_records() const {
    return secondary_records_;
  }
  [[nodiscard]] std::optional<std::uint16_t> secondary_ar() const {
    return secondary_ar_;
  }
  [[nodiscard]] const TwinCounters& counters() const { return counters_; }

 private:
  std::optional<std::uint32_t> device_id_;
  std::optional<std::uint32_t> cycle_time_us_;
  std::optional<std::uint16_t> watchdog_factor_;
  std::map<std::uint16_t, std::vector<std::uint8_t>> learned_records_;
  std::map<std::uint16_t, std::vector<std::uint8_t>> secondary_records_;
  std::optional<std::uint16_t> secondary_ar_;
  TwinCounters counters_;
};

}  // namespace steelnet::instaplc
