// steelnet::faults -- deterministic, sim-time-scheduled fault injection.
//
// The FaultPlane is the counterpart of the observability plane: an opt-in
// object attached to a Network via net::Network::set_faults. Detached,
// every hook site in the data path costs one pointer-null branch; attached,
// the plane decides the fate of every frame entering a wire (loss, bit
// corruption, duplication, reordering via delayed re-enqueue, added
// jitter), enforces link hard-down windows, and kills/restarts nodes.
//
// Everything the plane does is reproducible from a single seed: each fault
// category draws from its own named Rng stream (Rng::derive), so enabling
// corruption never perturbs the loss pattern, and the same seed + scenario
// replays byte-identically -- including the obs exports.
//
// Faults are described by a FaultScenario (scenario.hpp) and turned into
// simulator events by schedule(); tests can also drive the plane directly
// (set_link_down, crash_node, ...).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "faults/scenario.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"

namespace steelnet::obs {
class ObsHub;
}

namespace steelnet::faults {

/// Everything the plane did, by cause. The four dropped_* counters are
/// "wire drops": together with the Network's delivered/no-link/in-flight
/// counters they tile frames_offered (+ duplicated) exactly -- see
/// FaultPlane::conservation_residual.
struct FaultCounters {
  std::uint64_t dropped_link_down = 0;   ///< frame entered a downed link
  std::uint64_t dropped_loss = 0;        ///< random per-frame loss
  std::uint64_t dropped_sender_down = 0; ///< transmit() from a crashed node
  std::uint64_t dropped_receiver_down = 0;  ///< arrival at a crashed node
  std::uint64_t suppressed_tx = 0;  ///< sends/queued frames on a dead node
  std::uint64_t suppressed_rx = 0;  ///< handed to a dead node off-wire
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t jittered = 0;  ///< frames that crossed a jittered link
  std::uint64_t link_down_events = 0;
  std::uint64_t link_up_events = 0;
  std::uint64_t node_crashes = 0;
  std::uint64_t node_restarts = 0;
  std::uint64_t node_stops = 0;

  /// Frames removed from the wire by the plane (excludes pre-wire
  /// suppressions, which never reached transmit()).
  [[nodiscard]] std::uint64_t wire_drops() const {
    return dropped_link_down + dropped_loss + dropped_sender_down +
           dropped_receiver_down;
  }

  /// The ten ledger causes, as f(name, value) in bind and fingerprint
  /// order: the one place their names are written.
  template <class F>
  void fields(F&& f) const {
    f("dropped_link_down", dropped_link_down);
    f("dropped_loss", dropped_loss);
    f("dropped_sender_down", dropped_sender_down);
    f("dropped_receiver_down", dropped_receiver_down);
    f("suppressed_tx", suppressed_tx);
    f("suppressed_rx", suppressed_rx);
    f("corrupted", corrupted);
    f("duplicated", duplicated);
    f("reordered", reordered);
    f("jittered", jittered);
  }
};

/// Probabilistic behaviour of one *directed* channel (node, port). Link
/// hard-down state is kept separately and applied to both directions.
struct LinkFaultProfile {
  double loss = 0.0;       ///< per-frame drop probability
  double corrupt = 0.0;    ///< per-frame single-bit-flip probability
  double duplicate = 0.0;  ///< per-frame duplication probability
  double reorder = 0.0;    ///< per-frame delayed re-enqueue probability
  sim::SimTime reorder_delay;  ///< extra delay for reordered frames
  sim::SimTime jitter_max;     ///< uniform [0, jitter_max] per frame
};

/// One node-lifecycle transition, as seen by plane watchers (the
/// orchestration layer subscribes to these to keep its inventory and
/// per-rack crash accounting in step with the plane without claiming the
/// single per-node crash/restart handler slot).
struct NodeEvent {
  enum class Kind : std::uint8_t { kCrash, kStop, kRestart };
  net::NodeId node = 0;
  Kind kind = Kind::kCrash;
  /// Incarnation epoch *after* the transition (every crash/stop/restart
  /// bumps it).
  std::uint64_t epoch = 0;
  sim::SimTime at;
};

class FaultPlane final : public net::FaultInjector {
 public:
  /// Binds to `net` (callers still attach via net.set_faults(this)) and
  /// seeds the per-category fault streams.
  FaultPlane(net::Network& net, std::uint64_t seed);

  // --- scenario front door ------------------------------------------------
  /// Resolves node names against the network and schedules every spec as
  /// simulator events. Throws sim::SimError for unknown nodes. kNodeCrash
  /// and kNodeStop invoke the registered handlers so protocol stacks
  /// (vPLC processes) die and restart with their node.
  void schedule(const FaultScenario& scenario);

  // --- manual control (what schedule() composes) --------------------------
  /// Hard-down state of the full duplex link at (node, port); applied to
  /// both directions via the network's peer table. Idempotent.
  void set_link_down(net::NodeId node, net::PortId port, bool down);
  [[nodiscard]] bool link_is_down(net::NodeId node, net::PortId port) const;

  /// Mutable probabilistic profile of the *directed* channel out of
  /// (node, port).
  [[nodiscard]] LinkFaultProfile& profile(net::NodeId node, net::PortId port);

  /// NIC death: in-flight frames to the node are absorbed, its queues are
  /// purged, sends/receives are suppressed. Fires the crash handler.
  void crash_node(net::NodeId node);
  /// Brings a crashed node back (NIC only) and fires the restart handler.
  void restart_node(net::NodeId node);
  /// Graceful process stop: the NIC stays alive (the network still
  /// delivers frames) but the registered crash handler runs -- this is the
  /// "silent primary" case where only the application goes quiet.
  void stop_node(net::NodeId node);
  /// Process-level hooks run by crash_node/stop_node and restart_node.
  void set_crash_handler(net::NodeId node, std::function<void()> fn);
  void set_restart_handler(net::NodeId node, std::function<void()> fn);
  /// When the node is currently crashed: the crash time.
  [[nodiscard]] std::optional<sim::SimTime> crashed_at(net::NodeId node) const;

  /// Subscribes to every node-lifecycle transition (crash/stop/restart,
  /// with the post-transition epoch). Watchers are invoked in registration
  /// order, after the per-node handler -- any number may subscribe, so
  /// orchestration layers don't fight over the handler slots.
  void add_node_watcher(std::function<void(const NodeEvent&)> fn);

  /// Current incarnation epoch of `node` (0 until its first transition).
  [[nodiscard]] std::uint64_t incarnation(net::NodeId node) const;
  /// Restarts `node` only if its epoch still equals `epoch` -- the
  /// safe form for externally scheduled restarts (an orchestrator's
  /// "upgrade done, bring it back"): a crash or kill that lands in
  /// between bumps the epoch and vetoes the stale restart, so a node
  /// killed in a later epoch is never resurrected. Returns whether the
  /// restart happened.
  bool restart_node_if(net::NodeId node, std::uint64_t epoch);

  /// Node id by name, resolved against the bound network.
  [[nodiscard]] std::optional<net::NodeId> find_node(
      std::string_view name) const;

  // --- ledger -------------------------------------------------------------
  [[nodiscard]] const FaultCounters& counters() const { return counters_; }
  /// Frame-conservation residual, valid at any instant:
  ///   (offered + duplicated) - (delivered + dropped_no_link
  ///                             + dropped_backend + wire_drops + in_flight)
  /// Zero means every injected fault is accounted for by exactly one
  /// drop-cause counter.
  [[nodiscard]] std::int64_t conservation_residual() const;
  /// Binds every fault counter under `{label}/faults/...`.
  void register_metrics(obs::ObsHub& hub,
                        const std::string& label = "faults") const;

  // --- net::FaultInjector -------------------------------------------------
  [[nodiscard]] bool node_alive(net::NodeId node) const override;
  TransitVerdict on_transit(net::NodeId node, net::PortId port,
                            net::Frame& frame, sim::SimTime now) override;
  void on_receiver_down(net::NodeId node, const net::Frame& frame,
                        sim::SimTime now) override;
  void on_tx_suppressed(net::NodeId node, const net::Frame& frame) override;
  void on_rx_suppressed(net::NodeId node, const net::Frame& frame) override;

 private:
  static std::uint64_t key(net::NodeId node, net::PortId port) {
    return (static_cast<std::uint64_t>(node) << 16) | port;
  }
  void schedule_one(const FaultSpec& spec);
  void notify_watchers(net::NodeId node, NodeEvent::Kind kind);
  net::NodeId resolve(const std::string& name) const;
  /// Sets the profile field selected by `kind` on both directions of the
  /// duplex link at (node, port).
  void apply_profile_field(net::NodeId node, net::PortId port, FaultKind kind,
                           double probability, sim::SimTime delay);

  net::Network& net_;
  FaultCounters counters_;
  // Independent named streams: adding one fault category to a scenario
  // never perturbs the draws of the others.
  sim::Rng loss_rng_;
  sim::Rng corrupt_rng_;
  sim::Rng duplicate_rng_;
  sim::Rng reorder_rng_;
  sim::Rng jitter_rng_;
  std::unordered_map<std::uint64_t, bool> link_down_;     // directed
  std::unordered_map<std::uint64_t, LinkFaultProfile> profiles_;  // directed
  std::unordered_map<net::NodeId, sim::SimTime> crashed_;
  /// Incarnation counter per node, bumped by every crash/stop/restart.
  /// Scheduled restarts fire only for their own incarnation, so a later
  /// (possibly permanent) kill supersedes an earlier spec's pod restart.
  std::unordered_map<net::NodeId, std::uint64_t> down_epoch_;
  std::unordered_map<net::NodeId, std::function<void()>> crash_handlers_;
  std::unordered_map<net::NodeId, std::function<void()>> restart_handlers_;
  std::vector<std::function<void(const NodeEvent&)>> watchers_;
};

}  // namespace steelnet::faults
