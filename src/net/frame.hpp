// steelnet::net -- the unit of transmission.
#pragma once

#include <cstdint>
#include <vector>

#include "net/mac.hpp"
#include "sim/time.hpp"

namespace steelnet::net {

/// An Ethernet-like frame plus simulation metadata.
///
/// The payload is real bytes: protocol modules (profinet, ptp, ...) serialize
/// their PDUs into it and parse them back out, exactly as on a wire.
struct Frame {
  MacAddress dst;
  MacAddress src;
  EtherType ethertype = EtherType::kExperimental;

  /// 802.1Q priority code point, 0 (best effort) .. 7 (highest).
  std::uint8_t pcp = 0;
  /// VLAN id; 0 means "untagged" (no 802.1Q header on the wire).
  std::uint16_t vlan_id = 0;

  std::vector<std::uint8_t> payload;

  // --- simulation metadata (not on the wire) ---
  std::uint64_t flow_id = 0;   ///< logical flow for bookkeeping
  std::uint64_t seq = 0;       ///< per-flow sequence number
  sim::SimTime created_at;     ///< when the sending application emitted it
  /// Observability causality key: stamped by the first sending host when
  /// an obs::ObsHub is attached to the Network, 0 otherwise. Carried
  /// through queues, links and rewrites so per-hop spans of one frame can
  /// be correlated into an end-to-end latency breakdown.
  std::uint64_t trace_id = 0;

  /// L2 bytes: header + optional 802.1Q tag + padded payload + FCS.
  [[nodiscard]] std::size_t wire_bytes() const;
  /// Wire bytes plus preamble/SFD/inter-frame gap -- what a link is
  /// occupied for while serializing this frame.
  [[nodiscard]] std::size_t occupancy_bytes() const;

  /// Little-endian u64 accessors into the payload, used by programs that
  /// stamp timestamps into packets (e.g. the TS-OW eBPF variant).
  /// All four accessors throw std::out_of_range when [offset, offset+n)
  /// does not fit the payload -- including offsets large enough that
  /// `offset + n` would wrap (a fault-corrupted offset must fail loudly,
  /// never read through an overflowed bounds check as UB).
  [[nodiscard]] std::uint64_t read_u64(std::size_t offset) const;
  void write_u64(std::size_t offset, std::uint64_t value);
  [[nodiscard]] std::uint32_t read_u32(std::size_t offset) const;
  void write_u32(std::size_t offset, std::uint32_t value);

 private:
  /// Overflow-safe range check: true iff [offset, offset + n) is inside
  /// the payload. Written subtraction-side so a huge `offset` cannot
  /// wrap the addition and sneak past the bound.
  [[nodiscard]] bool payload_range_ok(std::size_t offset,
                                      std::size_t n) const {
    return payload.size() >= n && offset <= payload.size() - n;
  }
};

/// Serialization time of `bytes` at `bits_per_second`.
[[nodiscard]] sim::SimTime serialization_time(std::size_t bytes,
                                              std::uint64_t bits_per_second);

}  // namespace steelnet::net
