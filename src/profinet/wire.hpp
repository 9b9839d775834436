// steelnet::profinet -- the wire format of the cyclic real-time protocol.
//
// A PROFINET-RT-shaped protocol: connection establishment (an Application
// Relationship), parameterization records, then cyclic data exchange with
// cycle counters and a watchdog ("how long each device can continue
// working without receiving new data", §4). All PDUs are byte-serialized
// into the frame payload and parsed back out, so in-network applications
// (InstaPLC) can read and rewrite them exactly as a P4 pipeline would.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/frame.hpp"

namespace steelnet::profinet {

enum class PduType : std::uint8_t {
  kConnectReq = 1,
  kConnectResp = 2,
  kParamRecord = 3,
  kParamDone = 4,
  kCyclicData = 5,
  kAlarm = 6,
  kRelease = 7,
};

[[nodiscard]] std::string to_string(PduType t);

/// Controller -> device: open an application relationship.
struct ConnectReq {
  std::uint16_t ar_id = 0;
  std::uint32_t cycle_time_us = 2000;
  /// Watchdog expires after this many missed cycles (PROFINET's
  /// watchdog factor; devices halt for safety when it trips, §2.1).
  std::uint16_t watchdog_factor = 3;
  std::uint16_t input_bytes = 8;   ///< device -> controller
  std::uint16_t output_bytes = 8;  ///< controller -> device
};

/// Device -> controller: accept/reject.
struct ConnectResp {
  std::uint16_t ar_id = 0;
  std::uint8_t status = 0;  ///< 0 = ok
  std::uint32_t device_id = 0;
};

/// Controller -> device: one parameterization record.
struct ParamRecord {
  std::uint16_t ar_id = 0;
  std::uint16_t record_index = 0;
  std::vector<std::uint8_t> data;
};

/// Controller -> device: parameterization complete; start cyclic I/O.
struct ParamDone {
  std::uint16_t ar_id = 0;
};

/// Both directions: one cycle's process data.
struct CyclicData {
  std::uint16_t ar_id = 0;
  std::uint16_t cycle_counter = 0;
  /// bit0 = RUN, bit2 = data valid (mirrors PROFINET's DataStatus).
  std::uint8_t data_status = 0b0000'0101;
  std::vector<std::uint8_t> data;

  [[nodiscard]] bool running() const { return data_status & 0x1; }
  [[nodiscard]] bool valid() const { return data_status & 0x4; }
};

/// Device -> controller: diagnosis.
struct Alarm {
  std::uint16_t ar_id = 0;
  std::uint8_t alarm_type = 0;
  static constexpr std::uint8_t kWatchdogExpired = 1;
  static constexpr std::uint8_t kProcessAlarm = 2;
};

/// Either side: tear down the AR.
struct Release {
  std::uint16_t ar_id = 0;
};

using Pdu = std::variant<ConnectReq, ConnectResp, ParamRecord, ParamDone,
                         CyclicData, Alarm, Release>;

/// Byte offsets used by in-network match/rewrite rules.
namespace offsets {
constexpr std::size_t kPduType = 0;
constexpr std::size_t kArId = 1;  ///< u16, little-endian, all PDUs
constexpr std::size_t kCycleCounter = 3;
constexpr std::size_t kDataStatus = 5;
}  // namespace offsets

/// Serializes `pdu` into a frame payload (the frame's addressing is the
/// caller's business).
[[nodiscard]] std::vector<std::uint8_t> encode(const Pdu& pdu);

/// Serializes `pdu` into `out` (cleared first), reusing its capacity --
/// the allocation-free TX path when `out` is a pooled payload buffer.
void encode_into(const Pdu& pdu, std::vector<std::uint8_t>& out);

/// Parses a payload. Returns nullopt on malformed/truncated input.
[[nodiscard]] std::optional<Pdu> decode(
    const std::vector<std::uint8_t>& payload);

/// Parses a payload into `out`, reusing its storage when it already holds
/// the decoded PDU type -- the allocation-free RX path when `out` is a
/// long-lived member. Returns false on malformed/truncated input (`out`
/// is then unspecified).
[[nodiscard]] bool decode_into(const std::vector<std::uint8_t>& payload,
                               Pdu& out);

}  // namespace steelnet::profinet
