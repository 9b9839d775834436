// steelnet::net -- the campus: hundreds of production cells on the
// sharded kernel.
//
// A campus is the paper's steel-plant network at fleet scale: every cell
// is a complete PROFINET island (star fabric, cyclic controllers and I/O
// devices, its own FramePool, optionally its own FaultPlane), mapped onto
// one sim::ShardedSimulator cell so the partitioner can spread cells over
// worker threads. Cells exchange periodic telemetry reports over a
// latency-stamped ring backbone -- the inter-cell channels whose minimum
// delay supplies the conservative lookahead -- and a report crossing a
// cell boundary is rebuilt from the *receiving* cell's FramePool, so the
// cross-shard handoff allocates nothing and never shares a buffer across
// threads.
//
// Everything exported (Prometheus, Chrome trace, CSV) is rendered after
// the run from per-cell deterministic state only, which is why the
// artifacts are byte-identical at any shard count -- the property the
// campus tier-1 test and the CI diff gate pin.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/sharded_plant.hpp"
#include "sim/time.hpp"

namespace steelnet::net {

/// ShardMsg.kind of an inter-cell telemetry report.
inline constexpr std::uint32_t kCampusReportMsg = 1;
/// Period of every cell's telemetry report to its backbone neighbours.
inline constexpr sim::SimTime kCampusReportPeriod = sim::milliseconds(10);

/// Unread; see CampusOptions::partitioner.
enum class CampusPartitioner : std::uint8_t { kPrefixQuota, kMeasuredRate };

struct CampusOptions {
  std::size_t cells = 8;
  std::size_t devices_per_cell = 4;
  sim::SimTime cycle = sim::milliseconds(4);      ///< PROFINET cyclic period
  sim::SimTime horizon = sim::milliseconds(200);  ///< simulated duration
  std::uint64_t seed = 1;
  std::size_t shards = 1;
  /// Outbound report channels per cell: neighbors (i+1 .. i+degree) mod n
  /// on the ring backbone.
  std::size_t backbone_degree = 2;
  /// Inject a deterministic controller-crash + link-loss scenario in
  /// every cell (per-cell FaultPlane, seed derived from `seed` and the
  /// cell id).
  bool faults = false;
  /// Skewed-load mode: the first quarter of the cells (at least one) runs
  /// at a 4x cyclic rate with fault storms enabled, while declared cell
  /// weights stay uniform -- the workload the static prefix-quota
  /// partition is deliberately wrong about, and the profile-guided one
  /// fixes. The hot zone is contiguous so it lands on few shards under a
  /// contiguous equal-weight split.
  bool skew = false;
  /// Unread: placement follows `measured_weights` alone. It exists only
  /// because perfbench's plant_bench assigns it; ROADMAP item 7(b) stops
  /// that, and item 2 then removes it.
  CampusPartitioner partitioner = CampusPartitioner::kPrefixQuota;
  /// Measured per-cell rates (one per cell, e.g. RateProfile::weights()
  /// of a calibration run). Non-empty places cells by LPT over them;
  /// empty keeps the prefix-quota walk over uniform declared weights.
  /// Placement decides wall-clock only; artifacts are byte-identical
  /// under either.
  std::vector<std::uint64_t> measured_weights;
};

/// Deterministic per-cell outcome -- the only state artifacts are
/// rendered from (columns declared once in campus.cpp).
struct CellReport {
  std::uint32_t cell = 0;
  std::string name;
  std::uint64_t events_executed = 0;
  std::uint64_t msgs_delivered = 0;  ///< cross-shard reports handled here
  // PROFINET plane (summed over the cell's controllers/devices).
  std::uint64_t cyclic_tx = 0;
  std::uint64_t cyclic_rx = 0;
  std::uint64_t device_tx = 0;
  std::uint64_t device_rx = 0;
  std::uint64_t watchdog_trips = 0;
  std::uint64_t controller_trips = 0;
  // Network plane.
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t pool_reused = 0;
  // Cross-cell reports.
  std::uint64_t reports_sent = 0;
  std::uint64_t reports_received = 0;  ///< sink deliveries in this cell
  std::uint64_t report_bytes = 0;
  std::int64_t report_latency_ns_total = 0;  ///< origin send -> sink rx
  // Fault plane (zero when faults are off).
  std::uint64_t node_crashes = 0;
  std::uint64_t node_restarts = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_link_down = 0;
  std::uint64_t dropped_sender_down = 0;
  std::uint64_t dropped_receiver_down = 0;
  std::int64_t conservation_residual = 0;
  // Device outage bookkeeping (safe-state windows).
  std::uint64_t outages = 0;
  std::int64_t outage_ns_total = 0;  ///< watchdog trip -> outputs running

  [[nodiscard]] bool operator==(const CellReport&) const = default;
};

struct CampusResult : ShardedRunResult {
  std::vector<CellReport> cells;

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

/// Builds the campus and runs it to `opt.horizon` on `opt.shards` worker
/// threads. Deterministic: identical options (ignoring `shards`) produce
/// identical CellReports and artifacts at any shard count.
[[nodiscard]] CampusResult run_campus(const CampusOptions& opt);

}  // namespace steelnet::net
