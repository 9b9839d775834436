// steelnet::orch -- the FleetManager: fleet-scale vPLC orchestration.
//
// One manager keeps thousands of vPLCs alive across racks of compute
// nodes:
//
//   * every vPLC gets a PRIMARY placement plus a warm InstaPLC twin
//     (SECONDARY) with rack anti-affinity -- the pair never shares a
//     failure domain;
//   * every compute node runs a NodeAgent that heartbeats the manager
//     over the *simulated network* (real frames through real switches,
//     visible to the obs/flowmon planes); the manager's per-node watchdog
//     declares a node dead after `kWatchdogHeartbeats` silent periods,
//     exactly the InstaPLC monitor discipline, so switchover latency is
//     bounded by (kWatchdogHeartbeats + 1) x kHeartbeatPeriod;
//   * a declared-dead node triggers a failover for every primary it
//     hosted: the warm twin is activated on its node (activation slots
//     per node serialize a storm -- the queueing is the measured tail),
//     promoted to primary, and a fresh twin is re-placed elsewhere;
//   * faults::FaultPlane crash/stop/restart transitions arrive through
//     the plane's node-watcher API; the manager uses them only for agent
//     lifecycle and accounting -- *detection* always goes through the
//     heartbeat path, so measured latencies are honest;
//   * rolling upgrades drain nodes one by one (make-before-break
//     handover while the primary still runs), reboot them through the
//     fault plane with an epoch-guarded restart, and re-admit them when
//     their heartbeats resume.
//
// Every decision iterates vectors in index order and all randomness stays
// with the caller, so the placement trace, the SLO ledger and the obs
// export are byte-identical for identical histories.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "faults/fault_plane.hpp"
#include "net/host_node.hpp"
#include "orch/compute.hpp"
#include "orch/placer.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace steelnet::obs {
class ObsHub;
}

namespace steelnet::orch {

/// What one vPLC needs from the fleet.
struct VplcSpec {
  sim::SimTime cycle = sim::milliseconds(2);  ///< control cycle (=> CPU)
  std::uint32_t preferred_rack = kNoRack;  ///< rack of its field devices
  /// Digital-twin state that must ship to warm a standby.
  std::uint32_t twin_state_bytes = 256;
};

// The fleet's fixed timing and cost model.
inline constexpr sim::SimTime kHeartbeatPeriod = sim::milliseconds(2);
/// Silent heartbeat periods before a node is declared dead.
inline constexpr std::uint16_t kWatchdogHeartbeats = 3;
/// Time to activate one warm twin (config swap + takeover).
inline constexpr sim::SimTime kActivationCost = sim::microseconds(500);
/// Concurrent activations one compute node can run; further ones queue.
inline constexpr std::uint32_t kActivationSlots = 2;
/// Base warm-sync time of a fresh twin, plus per-KiB shipping cost
/// (charged per begun KiB: even a sub-KiB snapshot ships one unit).
inline constexpr sim::SimTime kTwinWarmupBase = sim::milliseconds(20);
inline constexpr sim::SimTime kTwinSyncPerKib = sim::milliseconds(1);
/// CPU a parked warm twin costs, as a fraction of the vPLC demand.
inline constexpr double kTwinIdleFraction = 0.25;
/// CPU demand of a 1 kHz (1 ms cycle) vPLC, millicores.
inline constexpr std::uint32_t kMcpuPerKhz = 200;

/// The fleet ledger. Failover conservation:
///   failovers_started == switchovers + currently_down()
/// and every completed switchover is classified exactly once:
///   switchovers == switchovers_within_bound + slo_violations.
struct FleetCounters {
  std::uint64_t placements = 0;          ///< initial primary+twin placements
  std::uint64_t placement_failures = 0;  ///< typed rejections at runtime
  std::uint64_t migrations = 0;          ///< twin/primary moves after t=0
  std::uint64_t failovers_started = 0;   ///< primaries lost
  std::uint64_t switchovers = 0;         ///< failovers completed
  std::uint64_t switchovers_within_bound = 0;
  std::uint64_t slo_violations = 0;
  std::uint64_t violations_activation_queue = 0;  ///< warm, but queued late
  std::uint64_t violations_cold = 0;              ///< no warm twin left
  std::uint64_t cold_restarts = 0;
  std::uint64_t graceful_handovers = 0;  ///< drain promotions, zero gap
  std::uint64_t oversubscribed_promotions = 0;
  std::uint64_t nodes_declared_dead = 0;
  std::uint64_t nodes_fenced = 0;
  std::uint64_t nodes_rejoined = 0;
  std::uint64_t upgrades_started = 0;
  std::uint64_t heartbeats_tx = 0;
  std::uint64_t heartbeats_rx = 0;
  std::uint64_t twins_warmed = 0;
  std::uint64_t activations_run = 0;
  std::uint64_t activation_queue_peak = 0;
  std::uint64_t downtime_ns_total = 0;  ///< summed vPLC control-loss time

  /// Every counter, as f(name, value) in bind and fingerprint order: the
  /// one place their names are written.
  template <class F>
  void fields(F&& f) const {
    f("placements", placements);
    f("placement_failures", placement_failures);
    f("migrations", migrations);
    f("failovers_started", failovers_started);
    f("switchovers", switchovers);
    f("switchovers_within_bound", switchovers_within_bound);
    f("slo_violations", slo_violations);
    f("violations_activation_queue", violations_activation_queue);
    f("violations_cold", violations_cold);
    f("cold_restarts", cold_restarts);
    f("graceful_handovers", graceful_handovers);
    f("oversubscribed_promotions", oversubscribed_promotions);
    f("nodes_declared_dead", nodes_declared_dead);
    f("nodes_fenced", nodes_fenced);
    f("nodes_rejoined", nodes_rejoined);
    f("upgrades_started", upgrades_started);
    f("heartbeats_tx", heartbeats_tx);
    f("heartbeats_rx", heartbeats_rx);
    f("twins_warmed", twins_warmed);
    f("activations_run", activations_run);
    f("activation_queue_peak", activation_queue_peak);
    f("downtime_ns_total", downtime_ns_total);
  }
};

/// 16-byte node heartbeat payload: node index, agent incarnation, seq.
struct Heartbeat {
  std::uint32_t node = 0;
  std::uint32_t incarnation = 0;
  std::uint64_t seq = 0;

  static constexpr std::size_t kBytes = 16;
  void encode(net::Frame& f) const;
  [[nodiscard]] static std::optional<Heartbeat> decode(const net::Frame& f);
};

/// Orchestrator view of one vPLC.
struct VplcState {
  VplcSpec spec;
  std::uint32_t demand_mcpu = 0;
  std::optional<ComputeId> primary;
  std::optional<ComputeId> secondary;
  bool twin_warm = false;
  /// Bumped on every twin placement or loss; a warm-up completion only
  /// counts if the generation it was scheduled under is still current,
  /// so a stale timer can never warm a later twin on the same node.
  std::uint64_t twin_generation = 0;
  /// An activation (failover, cold restart or handover) is in flight.
  bool activating = false;
  /// Set while the primary is gone: when control was lost (last heartbeat
  /// received from the failed node -- the observable basis, matching the
  /// InstaPLC watchdog measurement).
  std::optional<sim::SimTime> down_since;
  /// Rack the failed primary lived in (downtime attribution).
  std::uint32_t failed_rack = kNoRack;
};

struct RollingUpgradeOptions {
  sim::SimTime start = sim::milliseconds(500);
  /// Gap between successive node drains.
  sim::SimTime node_interval = sim::milliseconds(200);
  /// Drain grace: the node is force-rebooted this long after its drain
  /// begins, whether or not every vPLC has moved off (an aggressive
  /// schedule turns stragglers into real failovers -- accounted, never
  /// lost).
  sim::SimTime grace = sim::milliseconds(150);
  /// Reboot duration before the upgraded node rejoins.
  sim::SimTime reboot = sim::milliseconds(100);
};

class FleetManager {
 public:
  FleetManager(sim::Simulator& sim, PolicyKind policy);
  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;
  ~FleetManager();

  // --- wiring (before start) ----------------------------------------------
  /// Registers a compute node backed by a simulated host. The host's
  /// frames carry the heartbeats; its net::NodeId is how fault-plane
  /// events map back to this node.
  ComputeId add_compute(net::HostNode& host, std::uint32_t rack,
                        std::uint32_t capacity_mcpu = 4000);
  /// The manager's own host: receives every heartbeat.
  void attach_manager(net::HostNode& mgr);
  /// Subscribes to the plane's node watcher (agent lifecycle, fencing,
  /// epoch-guarded upgrade reboots).
  void attach_faults(faults::FaultPlane& plane);

  /// Places primaries and rack-disjoint warm twins for every spec, in
  /// order. On failure returns the typed error and the vPLC it failed
  /// for; the fleet is then unusable (rebuild with more capacity).
  struct FleetError {
    PlaceError error = PlaceError::kNone;
    VplcId vplc = 0;
    bool primary = true;
  };
  [[nodiscard]] std::optional<FleetError> place_fleet(
      const std::vector<VplcSpec>& specs);

  /// Starts heartbeats (staggered per node) and arms the watchdogs.
  void start();

  /// Drains, reboots (through the fault plane, epoch-guarded) and
  /// re-admits every node, in index order. Requires attach_faults.
  void rolling_upgrade(const RollingUpgradeOptions& opts);

  // --- introspection -------------------------------------------------------
  [[nodiscard]] const FleetCounters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<ComputeNodeState>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] const std::vector<VplcState>& vplcs() const { return vplcs_; }
  /// Completed-switchover latency samples (us), in completion order.
  [[nodiscard]] const sim::SampleSet& switchover_latency_us() const {
    return latency_us_;
  }
  /// Watchdog bound on detection + activation:
  /// (kWatchdogHeartbeats + 1) x kHeartbeatPeriod.
  [[nodiscard]] sim::SimTime watchdog_bound() const;
  /// Warm-sync time of a twin with `bytes` of snapshot state.
  [[nodiscard]] sim::SimTime twin_warmup(std::uint32_t bytes) const;

  /// Failover-conservation residual; 0 means every lost primary is either
  /// recovered (classified within-bound or violation) or still accounted
  /// as down.
  [[nodiscard]] std::int64_t ledger_residual() const;
  /// vPLCs currently without a running primary.
  [[nodiscard]] std::uint64_t currently_down() const { return down_now_; }
  /// vPLCs lacking a warm twin right now (unprotected).
  [[nodiscard]] std::uint64_t unprotected() const;
  /// Fraction of primaries placed in their preferred rack.
  [[nodiscard]] double rack_local_fraction() const;
  /// max/mean node utilization over alive nodes (1.0 = perfectly even).
  [[nodiscard]] double utilization_spread() const;
  /// Fleet availability over [0, now]: 1 - downtime / (vplcs x window).
  [[nodiscard]] double availability() const;
  /// Per-rack accumulated control-loss time.
  [[nodiscard]] const std::vector<std::uint64_t>& rack_downtime_ns() const {
    return rack_downtime_ns_;
  }
  /// The placement trace: one CSV line per decision
  /// (`t_ns,vplc,role,node,cause`), appended in event order -- the
  /// byte-identical determinism artifact.
  [[nodiscard]] const std::string& placement_trace() const { return trace_; }

  /// Binds every fleet counter/gauge plus the switchover-latency
  /// histogram under `<label>/orch/...`, and per-rack downtime/death
  /// counters under `rack<r>/orch/...`. Call after add_compute and
  /// before traffic.
  void register_metrics(obs::ObsHub& hub, const std::string& label = "fleet");

 private:
  enum class ActKind : std::uint8_t {
    kFailover,  ///< warm-twin promotion after a declared death
    kCold,      ///< cold restart (no warm twin available)
    kHandover,  ///< drain-time make-before-break promotion
  };
  struct PendingActivation {
    VplcId vplc;
    ActKind kind;
    sim::SimTime extra;  ///< added to kActivationCost (cold warm-sync)
  };
  /// Runtime companion of nodes_[i] (simulation wiring, not placement
  /// state).
  struct NodeRuntime {
    net::HostNode* host = nullptr;
    std::unique_ptr<sim::PeriodicTask> hb_task;
    std::uint32_t agent_incarnation = 0;
    std::uint64_t hb_seq = 0;
    sim::SimTime last_hb_rx;
    sim::EventHandle deadline;
    std::uint32_t busy_slots = 0;
    std::deque<PendingActivation> queue;
    /// Activations dispatched but not yet acked, in dispatch order. An
    /// entry leaves on completion; a node death clears it; a sub-watchdog
    /// crash+restart re-dispatches it (the crash killed the work).
    std::vector<PendingActivation> inflight;
  };

  void send_heartbeat(ComputeId idx);
  void start_agent(ComputeId idx, sim::SimTime first);
  void on_heartbeat(const Heartbeat& hb, sim::SimTime at);
  void arm_deadline(ComputeId idx, sim::SimTime at);
  void on_node_silent(ComputeId idx, std::uint64_t incarnation);
  void on_plane_event(const faults::NodeEvent& ev);
  void mark_node_down(ComputeId idx, sim::SimTime impact);
  void rejoin(ComputeId idx);

  void failover(VplcId v, sim::SimTime impact);
  void cold_restart(VplcId v);
  void protect(VplcId v);  ///< place + warm a fresh twin
  void schedule_twin_warmup(VplcId v, ComputeId node);
  /// Releases a still-placed twin (reservation + secondaries entry) and
  /// voids any in-flight warm-up for it.
  void lose_twin(VplcId v);
  void set_down(VplcId v, sim::SimTime impact, std::uint32_t rack);
  void enqueue_activation(ComputeId node, VplcId v, ActKind kind,
                          sim::SimTime extra);
  void start_activation(ComputeId node, const PendingActivation& act);
  void on_activation_done(ComputeId node, std::uint64_t incarnation,
                          PendingActivation act);
  void complete_switchover(VplcId v, ComputeId node, ActKind kind,
                           sim::SimTime extra);
  void retry_pending();

  void drain_node(ComputeId idx, const RollingUpgradeOptions& opts);
  void reboot_node(ComputeId idx, sim::SimTime reboot);

  [[nodiscard]] PlaceResult place(const PlacementRequest& req);
  void reserve(ComputeId node, std::uint32_t mcpu);
  void release(ComputeId node, std::uint32_t mcpu);
  [[nodiscard]] std::uint32_t twin_idle_mcpu(std::uint32_t demand) const;
  void record_trace(VplcId v, char role, ComputeId node, const char* cause);

  sim::Simulator& sim_;
  Placer placer_;

  std::vector<ComputeNodeState> nodes_;
  std::vector<NodeRuntime> runtime_;
  std::vector<VplcState> vplcs_;
  std::unordered_map<net::NodeId, ComputeId> by_net_id_;
  net::HostNode* mgr_ = nullptr;
  faults::FaultPlane* plane_ = nullptr;
  bool started_ = false;

  /// vPLCs whose primary (or twin) could not be placed; retried in id
  /// order whenever capacity returns.
  std::vector<VplcId> pending_primary_;
  std::vector<VplcId> pending_twin_;

  FleetCounters counters_;
  std::uint64_t down_now_ = 0;
  sim::SampleSet latency_us_;
  std::vector<std::uint64_t> rack_downtime_ns_;
  std::vector<std::uint64_t> rack_deaths_;
  std::string trace_;
  sim::Histogram* latency_hist_ = nullptr;  ///< registry-owned, optional
};

}  // namespace steelnet::orch
