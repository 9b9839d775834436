// steelnet::net -- the pluggable link-layer driver abstraction.
//
// Every directed channel of a Network dispatches its physical-layer
// decisions through a LinkBackend: how long a frame occupies the medium
// (serialization), how long it flies afterwards (propagation), and
// whether the medium itself kills it (a radio fade, a scripted test
// impairment). The Network keeps owning the ledger, the fault plane and
// the delivery schedule; the backend only answers questions, one frame at
// a time, in transmit order -- which is what keeps every driver as
// deterministic as the wired path it replaces.
//
// Drivers:
//   * WiredBackend      -- the ideal wire (bit-for-bit the pre-backend
//                          behavior; the Network's default).
//   * LossyRadioBackend -- seeded SNR/rate/roaming model (radio_backend.hpp).
//   * FakeBackend       -- scriptable impairment for tests
//                          (tests/net/fake_backend.hpp).
//
// Construction and configuration errors are typed (LinkError with a
// LinkErrorCode), mirroring the sharded kernel's ShardingError, so tests
// can assert the exact failure instead of matching message strings.
#pragma once

#include <cstdint>
#include <string>

#include "net/frame.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace steelnet::net {

/// Physical characteristics of one link (applied to both directions).
struct LinkParams {
  std::uint64_t bits_per_second = 1'000'000'000;  ///< 1 GbE default
  sim::SimTime propagation = sim::nanoseconds(500);  ///< ~100 m of fiber
};

/// Links slower than this are rejected at connect(): below ~1 kbit/s a
/// single frame's serialization time overflows any realistic horizon and
/// almost always indicates an uninitialized LinkParams.
inline constexpr std::uint64_t kMinLinkBitRate = 1'000;

enum class LinkErrorCode : std::uint8_t {
  kZeroBitRate,      ///< LinkParams::bits_per_second == 0 (divides by zero)
  kBitRateTooLow,    ///< below kMinLinkBitRate (SimTime overflow territory)
  kBadRadioConfig,   ///< RadioConfig rejected at construction
  kUnboundStation,   ///< radio link connected with no station bound
  kDuplicateBinding, ///< (node, port) already bound to a station
};

[[nodiscard]] const char* to_string(LinkErrorCode code);

/// Typed link-layer configuration error. Derives from sim::SimError so
/// pre-existing catch sites keep working.
class LinkError : public sim::SimError {
 public:
  LinkError(LinkErrorCode code, const std::string& what)
      : sim::SimError(std::string("LinkError[") + to_string(code) +
                      "]: " + what),
        code_(code) {}
  [[nodiscard]] LinkErrorCode code() const { return code_; }

 private:
  LinkErrorCode code_;
};

/// The backend's per-frame verdict: occupancy, flight time, and whether
/// the medium delivered the frame at all. When `survives` is false the
/// frame still occupies the sender's NIC for `serialize` (a dead medium
/// blocks the transmitter exactly like a live one) and `cause` names the
/// ledger bucket ("radio_snr", "fake_drop", ...).
struct LinkTxPlan {
  bool survives = true;
  const char* cause = nullptr;
  sim::SimTime serialize;
  sim::SimTime propagate;
  std::uint64_t bits_per_second = 0;  ///< rate actually used (telemetry)
};

/// Abstract link-layer driver. One instance may back any number of
/// directed channels; all per-link state is keyed on (node, port) inside
/// the backend. Backends never touch the simulator -- time arrives as an
/// argument and state machines advance lazily, which is what makes a
/// backend usable unchanged inside sharded cells.
class LinkBackend {
 public:
  virtual ~LinkBackend() = default;

  [[nodiscard]] virtual const char* kind() const = 0;

  /// Called once per Network::connect() that attaches this backend, for
  /// each direction. Throws LinkError when the backend cannot serve the
  /// link (e.g. a radio link with no bound station).
  virtual void validate_link(NodeId node, PortId port,
                             const LinkParams& params) {
    (void)node;
    (void)port;
    (void)params;
  }

  /// Serialization time the next frame on (node, port) would take, for
  /// gate/guard-band checks (EgressQueue). Must not draw randomness: the
  /// estimate may be requested any number of times without perturbing
  /// the per-frame streams.
  [[nodiscard]] virtual sim::SimTime serialize_estimate(
      NodeId node, PortId port, const Frame& frame, const LinkParams& params,
      sim::SimTime now) = 0;

  /// The per-frame verdict, called exactly once per offered frame in
  /// transmit order. May advance internal (deterministic) state and draw
  /// from the backend's seeded streams.
  [[nodiscard]] virtual LinkTxPlan plan_transmit(NodeId node, PortId port,
                                                 const Frame& frame,
                                                 const LinkParams& params,
                                                 sim::SimTime now) = 0;
};

/// The ideal wire: fixed rate from LinkParams, fixed propagation, no
/// loss. Byte-for-byte the pre-backend transmit math -- pinned by the
/// golden-artifact equality tests.
class WiredBackend final : public LinkBackend {
 public:
  [[nodiscard]] const char* kind() const override { return "wired"; }

  [[nodiscard]] sim::SimTime serialize_estimate(NodeId node, PortId port,
                                                const Frame& frame,
                                                const LinkParams& params,
                                                sim::SimTime now) override {
    (void)node;
    (void)port;
    (void)now;
    return serialization_time(frame.occupancy_bytes(), params.bits_per_second);
  }

  [[nodiscard]] LinkTxPlan plan_transmit(NodeId node, PortId port,
                                         const Frame& frame,
                                         const LinkParams& params,
                                         sim::SimTime now) override {
    (void)node;
    (void)port;
    (void)now;
    LinkTxPlan plan;
    plan.serialize =
        serialization_time(frame.occupancy_bytes(), params.bits_per_second);
    plan.propagate = params.propagation;
    plan.bits_per_second = params.bits_per_second;
    return plan;
  }
};

}  // namespace steelnet::net
