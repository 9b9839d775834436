// steelnet::net -- the lossy-radio link driver.
//
// Models the paper's missing scenario: mobile stations (AGVs, handheld
// HMIs) on a factory-floor radio segment. Per frame, the backend draws a
// shadow-fading sample around the deterministic mean SNR (log-distance
// path loss from the station's waypoint position to its access point),
// adapts the PHY rate to the faded SNR against a rate ladder, and kills
// the frame with an SNR-dependent error probability. On top of the
// per-frame channel sits a deterministic discovery/association protocol:
// stations scan on a fixed epoch grid, associate with the strongest AP
// above the association floor, and roam when another AP beats the current
// one by the hysteresis margin -- each handoff opening a dead-air window
// during which frames are lost to "radio_handoff".
//
// Determinism: association/roaming decisions are pure functions of sim
// time (fade-free mean SNR), advanced lazily from plan_transmit, and the
// only randomness is the per-station fade/loss streams drawn in transmit
// order -- so the same seed replays byte-identically at any shard or job
// count. All exported telemetry is integral (millidB via llround).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link_backend.hpp"
#include "sim/random.hpp"

namespace steelnet::net {

/// One access point: a fixed antenna position and transmit power.
struct RadioAp {
  std::string name;
  double x = 0.0;  ///< meters
  double y = 0.0;
  double tx_power_dbm = 20.0;
  std::uint32_t channel = 1;  ///< logical frequency slot
};

/// One rung of the rate-adaptation ladder: the slowest SNR at which this
/// MCS is selected, and the PHY bit rate it yields.
struct RadioRateStep {
  double min_snr_db = 0.0;
  std::uint64_t bits_per_second = 0;
};

/// One timed position sample of a station's waypoint track; positions
/// interpolate linearly between samples and clamp beyond the ends.
struct RadioWaypoint {
  sim::SimTime at;
  double x = 0.0;
  double y = 0.0;
};

struct RadioConfig {
  std::vector<RadioAp> aps;
  /// Ascending min_snr_db; the last affordable rung is selected per
  /// frame. Below rates.front().min_snr_db the frame is dropped outright
  /// (below receiver sensitivity).
  std::vector<RadioRateStep> rates;
  /// Global SNR shift in dB -- the "SNR ladder" knob tab_radio sweeps
  /// (interference, absorption, antenna misalignment).
  double snr_offset_db = 0.0;
  double roam_hysteresis_db = 4.0; ///< candidate must beat current by this
  std::uint64_t seed = 1;
};

/// Aggregate telemetry across every station of one backend instance --
/// integral only, so artifacts rendered from it stay byte-stable.
struct RadioCounters {
  std::uint64_t frames_planned = 0;
  std::uint64_t dropped_snr = 0;       ///< faded below sensitivity / FER
  std::uint64_t dropped_no_assoc = 0;  ///< no AP associated
  std::uint64_t dropped_handoff = 0;   ///< inside a handoff dead window
  std::uint64_t assoc_events = 0;
  std::uint64_t roam_events = 0;
  std::uint64_t disassoc_events = 0;
  std::uint64_t rate_bps_total = 0;  ///< sum of selected per-frame rates
  std::uint64_t rate_frames = 0;     ///< frames that selected a rate
  std::int64_t snr_millidb_total = 0;
  std::int64_t snr_millidb_min = INT64_MAX;
  std::int64_t snr_millidb_max = INT64_MIN;
};

class LossyRadioBackend final : public LinkBackend {
 public:
  /// Validates the configuration up front: throws LinkError
  /// (kBadRadioConfig) on an empty AP set, an empty/unsorted rate ladder
  /// or a rung below kMinLinkBitRate.
  explicit LossyRadioBackend(RadioConfig cfg);

  /// Registers a mobile station and returns its id. `waypoints` must be
  /// non-empty and time-sorted (LinkError kBadRadioConfig otherwise).
  std::size_t add_station(std::string name,
                          std::vector<RadioWaypoint> waypoints);

  /// Binds both directions of the (a, port_a) <-> (b, port_b) link to
  /// `station` -- uplink and downlink share the station's channel state.
  /// LinkError kDuplicateBinding when either direction is already bound.
  void bind_link(NodeId a, PortId port_a, NodeId b, PortId port_b,
                 std::size_t station);

  [[nodiscard]] const char* kind() const override { return "lossy_radio"; }
  void validate_link(NodeId node, PortId port,
                     const LinkParams& params) override;
  [[nodiscard]] sim::SimTime serialize_estimate(NodeId node, PortId port,
                                                const Frame& frame,
                                                const LinkParams& params,
                                                sim::SimTime now) override;
  [[nodiscard]] LinkTxPlan plan_transmit(NodeId node, PortId port,
                                         const Frame& frame,
                                         const LinkParams& params,
                                         sim::SimTime now) override;

  [[nodiscard]] const RadioCounters& counters() const { return counters_; }
  [[nodiscard]] const RadioConfig& config() const { return cfg_; }

  /// Post-run introspection of one station (tests, reports).
  struct StationStatus {
    bool associated = false;
    std::size_t ap = 0;  ///< valid when associated
    std::uint64_t assoc_events = 0;
    std::uint64_t roam_events = 0;
  };
  [[nodiscard]] StationStatus station_status(std::size_t station) const;

 private:
  struct Station {
    std::string name;
    std::vector<RadioWaypoint> waypoints;
    sim::Rng fade_rng{0};  ///< reseeded from cfg.seed in add_station
    sim::Rng loss_rng{0};
    std::int64_t next_scan_ns = 0;
    int assoc_ap = -1;
    /// Association handshake / roam handoff completes here; frames before
    /// this instant are dead air.
    std::int64_t air_ready_ns = 0;
    std::uint64_t assoc_events = 0;
    std::uint64_t roam_events = 0;
  };

  static std::uint64_t link_key(NodeId node, PortId port) {
    return (static_cast<std::uint64_t>(node) << 16) | port;
  }
  Station& station_of(NodeId node, PortId port);
  /// Station position at `t_ns` (piecewise-linear waypoint track).
  static void position_at(const Station& s, std::int64_t t_ns, double& x,
                          double& y);
  /// Fade-free mean SNR from station `s` to AP `ap` at `t_ns` -- the pure
  /// function every association/roaming decision is made from.
  [[nodiscard]] double mean_snr_db(const Station& s, std::size_t ap,
                                   std::int64_t t_ns) const;
  /// Advances the scan/associate/roam state machine through every scan
  /// epoch <= now. Draws no randomness.
  void advance(Station& s, std::int64_t now_ns);
  /// Highest affordable rung for `snr_db`, or -1 below sensitivity.
  [[nodiscard]] int rate_for(double snr_db) const;

  RadioConfig cfg_;
  std::vector<Station> stations_;
  std::unordered_map<std::uint64_t, std::size_t> bindings_;
  RadioCounters counters_;
};

}  // namespace steelnet::net
