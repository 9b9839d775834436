// steelnet::plc -- the classical hardware high-availability baseline.
//
// §4: "Industrial automation achieves the strict service availability
// requirements ... by using redundant PLC pairs: one active primary and
// one passive secondary on standby. If the primary PLC fails, the
// secondary takes over, typically within 50 ms to 300 ms. Note that this
// setup requires special hardware settings such as dedicated links
// between the PLC pairs for synchronization and heartbeats."
//
// The dedicated sync link is modelled as a lossless out-of-band channel
// (simulator events), exactly the "special hardware" the paper contrasts
// with InstaPLC's link-free design.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "profinet/controller.hpp"

namespace steelnet::plc {

struct RedundancyStats {
  std::uint64_t heartbeats = 0;
  std::optional<sim::SimTime> primary_failed_at;
  std::optional<sim::SimTime> failure_detected_at;
  std::optional<sim::SimTime> switched_over_at;
};

/// Supervises a primary/secondary controller pair that target the same
/// I/O device with the same application relationship. The sync link
/// carries a heartbeat every 10 ms; after 3 missed ones the standby takes
/// over following a 100 ms role change.
class RedundantPlcPair {
 public:
  /// Both controllers must be configured identically (same ar_id, device,
  /// cycle). `secondary` must be idle -- it is armed on takeover.
  RedundantPlcPair(profinet::CyclicController& primary,
                   profinet::CyclicController& secondary, sim::Simulator& sim);

  /// Connects the primary and starts heartbeat supervision.
  void start();

  /// Kills the primary (controller stops transmitting, heartbeats cease)
  /// -- the failure injection used by the availability benches.
  void fail_primary();

  [[nodiscard]] const RedundancyStats& stats() const { return stats_; }
  [[nodiscard]] bool switched_over() const {
    return stats_.switched_over_at.has_value();
  }
  /// Detection + role change, when a switchover happened.
  [[nodiscard]] std::optional<sim::SimTime> takeover_latency() const;

 private:
  void tick();

  profinet::CyclicController& primary_;
  profinet::CyclicController& secondary_;
  sim::Simulator& sim_;
  std::unique_ptr<sim::PeriodicTask> task_;
  sim::SimTime last_heartbeat_ = sim::SimTime::zero();
  std::uint16_t synced_cycle_counter_ = 0;
  bool primary_failed_ = false;
  bool takeover_scheduled_ = false;
  RedundancyStats stats_;
};

}  // namespace steelnet::plc
