// steelnet::net -- the lossy-radio factory floor.
//
// The paper's wired results assume the device link is a deterministic
// wire; this workload asks what happens to the InstaPLC availability
// story when that link is a factory-floor radio segment instead. Every
// cell of one sim::ShardedSimulator run is a complete InstaPlcTestbed
// (faults/instaplc_testbed.hpp) whose device <-> switch link dispatches
// through its own LossyRadioBackend:
//
//   * an SNR ladder -- the fault matrix (clean + the four canonical PR 3
//     scenarios) crossed with descending snr_offset_db rungs, measuring
//     how the (switchover_cycles + 1) x io_cycle watchdog bound degrades
//     as the radio worsens;
//   * roaming storms -- a station oscillating between two access points,
//     each handoff opening a dead-air window over the device link.
//
// Cells share no channels (each testbed is self-contained), so every
// cell's lookahead is infinite and shards run them embarrassingly
// parallel -- yet all artifacts are rendered post-run from per-cell
// integer state only, so the byte streams are identical at any shard
// count (the same contract as net::run_campus).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/sharded_plant.hpp"
#include "sim/time.hpp"

namespace steelnet::net {

/// Cells on the floor: the fault matrix times the SNR ladder, plus two
/// roaming-storm cells.
inline constexpr std::size_t kRadioFloorCells = 32;

struct RadioFloorOptions {
  sim::SimTime horizon = sim::seconds(3);
  std::uint64_t seed = 1;
  std::size_t shards = 1;
  /// Silent I/O cycles before the in-network monitor switches over, and
  /// the I/O cycle: every testbed runs at faults::RunnerOptions' default
  /// timing, which these name.
  static constexpr std::uint16_t switchover_cycles = 3;
  static constexpr sim::SimTime io_cycle = sim::milliseconds(2);
  /// Measured per-cell rates (one per cell, e.g. RateProfile::weights()
  /// of a calibration run). Non-empty places cells by LPT over them;
  /// empty keeps the prefix-quota walk over uniform declared weights. The
  /// SNR ladder is naturally skewed -- dead rungs execute far fewer
  /// events than healthy ones -- so a calibration profile has real
  /// signal here. Artifacts are byte-identical under either placement.
  std::vector<std::uint64_t> measured_weights;
};

/// Deterministic per-cell outcome -- the only state artifacts are
/// rendered from (columns declared once in radio_floor.cpp). All-integer
/// (SNR telemetry in millidB).
struct RadioCellReport {
  std::uint32_t cell = 0;
  std::string name;
  std::string scenario;  ///< fault-matrix row ("clean", "link_flap", ...)
  std::uint64_t seed = 0;
  std::int64_t snr_offset_millidb = 0;  ///< ladder rung (0 = healthy)
  std::uint64_t events_executed = 0;
  // InstaPLC behaviour.
  std::uint32_t switched_over = 0;
  std::int64_t switchover_latency_ns = 0;
  /// Worst device-output gap including the dead tail to the horizon;
  /// the full horizon when the device never produced an output.
  std::int64_t max_output_gap_ns = 0;
  std::uint64_t watchdog_trips = 0;
  // Ledger.
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t dropped_backend = 0;  ///< network-side radio-drop count
  std::int64_t residual = 0;          ///< conservation residual; must be 0
  // Radio channel.
  std::uint64_t radio_planned = 0;
  std::uint64_t radio_dropped_snr = 0;
  std::uint64_t radio_dropped_no_assoc = 0;
  std::uint64_t radio_dropped_handoff = 0;
  std::uint64_t assoc_events = 0;
  std::uint64_t roam_events = 0;
  std::uint64_t disassoc_events = 0;
  std::uint64_t rate_avg_bps = 0;      ///< mean selected PHY rate
  std::int64_t snr_avg_millidb = 0;    ///< mean faded SNR over drawn frames
  // Obs export fingerprints of the cell's testbed.
  std::uint64_t metrics_fp = 0;
  std::uint64_t trace_fp = 0;

  /// Radio drops per thousand planned frames (0 when nothing planned).
  [[nodiscard]] std::uint64_t drop_permille() const {
    const std::uint64_t dropped =
        radio_dropped_snr + radio_dropped_no_assoc + radio_dropped_handoff;
    return radio_planned == 0 ? 0 : dropped * 1000 / radio_planned;
  }

  [[nodiscard]] bool operator==(const RadioCellReport&) const = default;
};

struct RadioFloorResult : ShardedRunResult {
  std::vector<RadioCellReport> cells;
  /// (switchover_cycles + 1) x io_cycle -- the wired watchdog bound the
  /// degradation curve is measured against.
  std::int64_t watchdog_bound_ns = 0;
  std::int64_t io_cycle_ns = 0;

  /// Prometheus text exposition of every per-cell counter, path-ordered.
  [[nodiscard]] std::string to_prometheus() const;
  /// Chrome trace-event JSON: one span per cell plus counter samples.
  [[nodiscard]] std::string to_chrome_trace() const;
  /// `cell,name,...` rows in cell order (header included).
  [[nodiscard]] std::string to_csv() const;
  /// artifact_fingerprint() over all three -- one number that pins the
  /// entire export surface for cross-shard-count comparisons.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Builds the floor (fault matrix x SNR ladder + roaming-storm cells) and
/// runs it to `opt.horizon` on `opt.shards` worker threads.
/// Deterministic: identical options (ignoring `shards`) produce identical
/// RadioCellReports and artifacts at any shard count.
[[nodiscard]] RadioFloorResult run_radio_floor(const RadioFloorOptions& opt);

/// The acceptance curve: within every fault-matrix scenario family, both
/// the radio drop rate and the worst output gap must be non-decreasing
/// down the SNR ladder, and the worst rung must be strictly worse than
/// the healthy one. Gaps are compared in whole I/O cycles -- sub-cycle
/// timing jitter between rungs is noise, not degradation. Roaming-storm
/// cells are excluded.
[[nodiscard]] bool degradation_monotone(const RadioFloorResult& result);

}  // namespace steelnet::net
