#include "plc/redundancy.hpp"

#include "net/network.hpp"

namespace steelnet::plc {

namespace {
constexpr sim::SimTime kHeartbeat = sim::milliseconds(10);
/// Heartbeats missed before the standby declares the primary dead.
constexpr std::int64_t kMissThreshold = 3;
/// Role-change time after detection (state transfer, bumpless output
/// alignment); vendors quote 50-300 ms.
constexpr sim::SimTime kSwitchoverDelay = sim::milliseconds(100);
}  // namespace

RedundantPlcPair::RedundantPlcPair(profinet::CyclicController& primary,
                                   profinet::CyclicController& secondary,
                                   sim::Simulator& sim)
    : primary_(primary), secondary_(secondary), sim_(sim) {}

void RedundantPlcPair::start() {
  primary_.connect();
  last_heartbeat_ = sim_.now();
  task_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + kHeartbeat, kHeartbeat, [this] { tick(); });
}

void RedundantPlcPair::fail_primary() {
  primary_failed_ = true;
  stats_.primary_failed_at = sim_.now();
  primary_.stop();
}

void RedundantPlcPair::tick() {
  if (!primary_failed_) {
    // Sync over the dedicated link: heartbeat + replicated AR state.
    ++stats_.heartbeats;
    last_heartbeat_ = sim_.now();
    synced_cycle_counter_ =
        static_cast<std::uint16_t>(primary_.counters().cyclic_tx);
    return;
  }
  if (takeover_scheduled_) return;
  if (sim_.now() - last_heartbeat_ > kHeartbeat * kMissThreshold) {
    stats_.failure_detected_at = sim_.now();
    takeover_scheduled_ = true;
    sim_.schedule_in(kSwitchoverDelay, [this] {
      secondary_.adopt_running(
          static_cast<std::uint16_t>(synced_cycle_counter_ + 1));
      stats_.switched_over_at = sim_.now();
    });
  }
}

std::optional<sim::SimTime> RedundantPlcPair::takeover_latency() const {
  if (!stats_.switched_over_at || !stats_.primary_failed_at) {
    return std::nullopt;
  }
  return *stats_.switched_over_at - *stats_.primary_failed_at;
}

}  // namespace steelnet::plc
