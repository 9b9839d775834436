// steelnet::ebpf -- the six reflector programs measured in the paper.
//
// §3: "We evaluate six eBPF programs running in XDP native mode ... Each
// program builds on a base version: (1) the base program reflects packets
// back to the NIC (Base), (2) adds one timestamp (TS), (3) adds two
// timestamps (TS-TS), (4) adds timestamps to a ring buffer (TS-RB),
// (5) adds timestamps into the packet's payload (TS-OW), and (6) adds the
// difference of two timestamps to the ring buffer (TS-D-RB)."
//
// All variants end in XDP_TX; the XdpHook performs the L2 address swap
// that a real reflector does on the Ethernet header.
#pragma once

#include <string>
#include <vector>

#include "ebpf/isa.hpp"

namespace steelnet::ebpf {

enum class ReflectorVariant {
  kBase,
  kTs,
  kTsTs,
  kTsRb,
  kTsOw,
  kTsDRb,
};

[[nodiscard]] std::string to_string(ReflectorVariant v);

/// All six variants in paper order.
[[nodiscard]] std::vector<ReflectorVariant> all_reflector_variants();

/// Builds (and does NOT verify) the given variant. Every program the
/// builder returns passes the verifier; tests assert this property.
[[nodiscard]] Program make_reflector(ReflectorVariant variant);

/// Payload byte offset where TS-OW overwrites the timestamp.
constexpr std::int16_t kTsOwPayloadOffset = 8;

}  // namespace steelnet::ebpf
