// FleetManager behaviour on a small live testbed: heartbeats over real
// frames, watchdog detection + fencing, failover storms, rolling
// upgrades, and the failover-conservation ledger.
#include "orch/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "faults/fault_plane.hpp"
#include "net/switch_node.hpp"
#include "net/topology.hpp"
#include "orch/orch_runner.hpp"
#include "sim/simulator.hpp"
#include "small_orch_config.hpp"

namespace steelnet::orch {
namespace {

using namespace steelnet::sim::literals;

/// A flat testbed: every compute host plus the manager hangs off one
/// switch (heartbeats flood, which is fine at this scale), racks are
/// assigned round-robin.
struct FleetFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  faults::FaultPlane plane{network, 7};
  FleetManager fleet;
  std::vector<net::HostNode*> hosts;
  net::HostNode* mgr;

  explicit FleetFixture(std::uint32_t n_nodes, std::uint32_t n_racks,
                        std::uint32_t capacity_mcpu = 4000)
      : fleet(simulator, PolicyKind::kLatencyAware) {
    network.set_faults(&plane);
    auto& sw = network.add_node<net::SwitchNode>("sw");
    for (std::uint32_t i = 0; i < n_nodes; ++i) {
      auto& h = network.add_node<net::HostNode>("node" + std::to_string(i),
                                                net::host_mac(1 + i));
      network.connect(sw.id(), static_cast<net::PortId>(i), h.id(), 0);
      hosts.push_back(&h);
      fleet.add_compute(h, i % n_racks, capacity_mcpu);
    }
    mgr = &network.add_node<net::HostNode>("mgr", net::host_mac(0));
    network.connect(sw.id(), static_cast<net::PortId>(n_nodes), mgr->id(), 0);
    fleet.attach_manager(*mgr);
    fleet.attach_faults(plane);
  }

  std::optional<FleetManager::FleetError> place(std::size_t n_vplcs,
                                                sim::SimTime cycle = 2_ms) {
    std::vector<VplcSpec> specs(n_vplcs);
    for (auto& s : specs) s.cycle = cycle;
    return fleet.place_fleet(specs);
  }
};

/// Settled-state cross-check of the placement books: every vPLC's
/// primary/secondary pointer is mirrored by exactly one list entry on
/// that node (no stale or duplicated entries), and each alive node's
/// used_mcpu equals the sum of what its hosted vPLCs reserve. Only valid
/// once no activation is in flight.
void ExpectFleetBooksConsistent(const FleetManager& fleet) {
  const auto& nodes = fleet.nodes();
  const auto& vplcs = fleet.vplcs();
  const auto twin_idle = [&](std::uint32_t demand) {
    return std::max(1u,
                    static_cast<std::uint32_t>(demand * kTwinIdleFraction));
  };
  std::vector<std::uint32_t> want_mcpu(nodes.size(), 0);
  std::size_t want_primaries = 0;
  std::size_t want_secondaries = 0;
  for (VplcId v = 0; v < vplcs.size(); ++v) {
    const VplcState& s = vplcs[v];
    ASSERT_FALSE(s.activating) << "vPLC " << v << " not settled";
    if (s.primary.has_value()) {
      ++want_primaries;
      want_mcpu[*s.primary] += s.demand_mcpu;
      EXPECT_EQ(std::count(nodes[*s.primary].primaries.begin(),
                           nodes[*s.primary].primaries.end(), v),
                1)
          << "vPLC " << v << " primary list entry";
    }
    if (s.secondary.has_value()) {
      ++want_secondaries;
      want_mcpu[*s.secondary] += twin_idle(s.demand_mcpu);
      EXPECT_EQ(std::count(nodes[*s.secondary].secondaries.begin(),
                           nodes[*s.secondary].secondaries.end(), v),
                1)
          << "vPLC " << v << " secondary list entry";
    }
  }
  std::size_t have_primaries = 0;
  std::size_t have_secondaries = 0;
  for (ComputeId i = 0; i < nodes.size(); ++i) {
    have_primaries += nodes[i].primaries.size();
    have_secondaries += nodes[i].secondaries.size();
    if (nodes[i].alive) {
      EXPECT_EQ(nodes[i].used_mcpu, want_mcpu[i])
          << "node " << i << " CPU books";
    }
  }
  // Any excess here is a stale entry some cleanup path failed to erase.
  EXPECT_EQ(have_primaries, want_primaries);
  EXPECT_EQ(have_secondaries, want_secondaries);
}

TEST(Fleet, HeartbeatCodecRoundTrips) {
  Heartbeat hb;
  hb.node = 17;
  hb.incarnation = 3;
  hb.seq = 0x1122334455667788ULL;
  net::Frame f;
  f.payload.assign(Heartbeat::kBytes, 0);  // encode() fills, never grows
  hb.encode(f);
  const auto back = Heartbeat::decode(f);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->node, 17u);
  EXPECT_EQ(back->incarnation, 3u);
  EXPECT_EQ(back->seq, 0x1122334455667788ULL);

  net::Frame runt;
  runt.payload.assign(4, 0);
  EXPECT_FALSE(Heartbeat::decode(runt).has_value());
}

TEST(Fleet, WatchdogBoundAndWarmupFormulas) {
  sim::Simulator simulator;
  FleetManager fleet(simulator, PolicyKind::kLatencyAware);
  EXPECT_EQ(fleet.watchdog_bound(), 8_ms);
  EXPECT_EQ(fleet.twin_warmup(0), kTwinWarmupBase);
  // Per begun KiB, rounded up: sub-KiB snapshots (incl. the 256 B
  // default) are charged one full unit, never a truncated zero.
  EXPECT_EQ(fleet.twin_warmup(1), kTwinWarmupBase + kTwinSyncPerKib);
  EXPECT_EQ(fleet.twin_warmup(256), kTwinWarmupBase + kTwinSyncPerKib);
  EXPECT_EQ(fleet.twin_warmup(1025), kTwinWarmupBase + 2 * kTwinSyncPerKib);
  EXPECT_EQ(fleet.twin_warmup(2048), kTwinWarmupBase + 2 * kTwinSyncPerKib);
}

TEST(Fleet, PlaceFleetPairsAreRackDisjoint) {
  FleetFixture fx(6, 3);
  ASSERT_FALSE(fx.place(12).has_value());
  EXPECT_EQ(fx.fleet.vplcs().size(), 12u);
  for (const auto& v : fx.fleet.vplcs()) {
    ASSERT_TRUE(v.primary.has_value());
    ASSERT_TRUE(v.secondary.has_value());
    EXPECT_TRUE(v.twin_warm);
    EXPECT_NE(fx.fleet.nodes()[*v.primary].spec.rack,
              fx.fleet.nodes()[*v.secondary].spec.rack);
  }
  EXPECT_EQ(fx.fleet.unprotected(), 0u);
}

TEST(Fleet, OversubscribedFleetIsTypedErrorNotCrash) {
  // 2 nodes x 100 mcpu; a 1 ms-cycle vPLC needs 200 mcpu.
  FleetFixture fx(2, 2, /*capacity_mcpu=*/100);
  const auto err = fx.place(1, 1_ms);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->error, PlaceError::kInsufficientCapacity);
  EXPECT_TRUE(err->primary);
  EXPECT_EQ(err->vplc, 0u);
}

TEST(Fleet, SingleRackTopologyCannotProtectTwins) {
  FleetFixture fx(4, /*n_racks=*/1);
  const auto err = fx.place(1);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->error, PlaceError::kAntiAffinityUnsatisfiable);
  EXPECT_FALSE(err->primary) << "the twin is what anti-affinity blocks";
}

TEST(Fleet, SteadyStateHeartbeatsFlowAndNothingFails) {
  FleetFixture fx(4, 2);
  ASSERT_FALSE(fx.place(8).has_value());
  fx.fleet.start();
  fx.simulator.run_until(200_ms);
  const auto& c = fx.fleet.counters();
  EXPECT_GT(c.heartbeats_tx, 0u);
  // At most the final in-flight beat per node can be cut by the horizon.
  EXPECT_GE(c.heartbeats_rx + 4, c.heartbeats_tx);
  EXPECT_GT(c.heartbeats_rx, 0u);
  EXPECT_EQ(c.failovers_started, 0u);
  EXPECT_EQ(c.nodes_declared_dead, 0u);
  EXPECT_EQ(fx.fleet.currently_down(), 0u);
  EXPECT_EQ(fx.fleet.ledger_residual(), 0);
  EXPECT_DOUBLE_EQ(fx.fleet.availability(), 1.0);
}

TEST(Fleet, CrashedNodeFailsOverWithinWatchdogBound) {
  FleetFixture fx(4, 2);
  ASSERT_FALSE(fx.place(8).has_value());
  fx.fleet.start();
  fx.simulator.schedule_at(50_ms,
                           [&] { fx.plane.crash_node(fx.hosts[0]->id()); });
  fx.simulator.run_until(200_ms);
  const auto& c = fx.fleet.counters();
  EXPECT_EQ(c.nodes_declared_dead, 1u);
  EXPECT_GT(c.failovers_started, 0u);
  EXPECT_EQ(c.switchovers, c.failovers_started);
  EXPECT_EQ(c.switchovers, c.switchovers_within_bound + c.slo_violations);
  EXPECT_EQ(fx.fleet.currently_down(), 0u);
  EXPECT_EQ(fx.fleet.ledger_residual(), 0);
  // A lone node death with warm twins stays inside the bound.
  EXPECT_EQ(c.slo_violations, 0u);
  ASSERT_FALSE(fx.fleet.switchover_latency_us().empty());
  EXPECT_LE(fx.fleet.switchover_latency_us().max() * 1000.0,
            static_cast<double>(fx.fleet.watchdog_bound().nanos()));
  // The crashed node is already plane-dead: no fencing needed.
  EXPECT_EQ(c.nodes_fenced, 0u);
}

TEST(Fleet, SilentButAliveNodeIsFenced) {
  FleetFixture fx(4, 2);
  ASSERT_FALSE(fx.place(8).has_value());
  fx.fleet.start();
  // stop_node kills the agent process but leaves the NIC up -- the
  // "silent primary": the watchdog must declare it dead AND fence it
  // (crash through the plane) before promoting twins.
  fx.simulator.schedule_at(50_ms,
                          [&] { fx.plane.stop_node(fx.hosts[1]->id()); });
  fx.simulator.run_until(200_ms);
  const auto& c = fx.fleet.counters();
  EXPECT_EQ(c.nodes_declared_dead, 1u);
  EXPECT_EQ(c.nodes_fenced, 1u);
  EXPECT_FALSE(fx.plane.node_alive(fx.hosts[1]->id()));
  EXPECT_EQ(fx.fleet.currently_down(), 0u);
  EXPECT_EQ(fx.fleet.ledger_residual(), 0);
}

TEST(Fleet, ColdFailoverReleasesStaleTwinPlacement) {
  FleetFixture fx(4, 2);
  ASSERT_FALSE(fx.place(8).has_value());
  fx.fleet.start();
  // Kill a rack-1 node first: its hosted twins re-protect onto the other
  // rack-1 node and start a ~21 ms warm-up. Then kill a rack-0 node in
  // the middle of that window: vPLCs whose replacement twin is still
  // syncing must fail over COLD, and the not-yet-warm twin placement
  // (idle reservation + secondaries entry) must be fully released --
  // leaking it double-books the node and re-dispatches the vPLC a second
  // time if that node later dies.
  fx.simulator.schedule_at(51_ms,
                           [&] { fx.plane.crash_node(fx.hosts[1]->id()); });
  fx.simulator.schedule_at(62_ms,
                           [&] { fx.plane.crash_node(fx.hosts[0]->id()); });
  fx.simulator.run_until(400_ms);
  const auto& c = fx.fleet.counters();
  ASSERT_GT(c.cold_restarts, 0u) << "scenario must exercise the cold path";
  EXPECT_EQ(c.nodes_declared_dead, 2u);
  EXPECT_EQ(fx.fleet.currently_down(), 0u);
  EXPECT_EQ(fx.fleet.ledger_residual(), 0);
  EXPECT_EQ(c.switchovers, c.failovers_started);
  EXPECT_EQ(c.switchovers, c.switchovers_within_bound + c.slo_violations);
  ExpectFleetBooksConsistent(fx.fleet);
}

TEST(Fleet, SubWatchdogBlipOnActivationTargetDoesNotStrandVplcs) {
  FleetFixture fx(4, 2);
  ASSERT_FALSE(fx.place(16).has_value());
  fx.fleet.start();
  // Crash a rack-0 node; ~6 ms later the watchdog declares it dead and
  // failover activations (500 us each, 2 slots) start on the rack-1 twin
  // nodes. Crash one activation target mid-flight and restart it BEFORE
  // its own watchdog deadline: the manager never declares it dead, so
  // only the rejoin path can reclaim the node's activation slots and
  // re-dispatch the in-flight + queued work the crash killed. Without
  // that, those vPLCs stay activating/down forever.
  fx.simulator.schedule_at(51_ms,
                           [&] { fx.plane.crash_node(fx.hosts[0]->id()); });
  fx.simulator.schedule_at(51_ms + 5200_us,
                           [&] { fx.plane.crash_node(fx.hosts[1]->id()); });
  fx.simulator.schedule_at(58_ms,
                           [&] { fx.plane.restart_node(fx.hosts[1]->id()); });
  fx.simulator.run_until(300_ms);
  const auto& c = fx.fleet.counters();
  EXPECT_EQ(c.nodes_declared_dead, 1u) << "the blip must stay undetected";
  EXPECT_EQ(c.nodes_rejoined, 0u);
  // Re-dispatched activations run again: more runs than completions.
  EXPECT_GT(c.activations_run, c.switchovers)
      << "scenario must catch activations in flight on the blipped node";
  EXPECT_EQ(fx.fleet.currently_down(), 0u);
  EXPECT_EQ(fx.fleet.ledger_residual(), 0);
  EXPECT_EQ(c.switchovers, c.failovers_started);
  EXPECT_EQ(c.switchovers, c.switchovers_within_bound + c.slo_violations);
  ExpectFleetBooksConsistent(fx.fleet);
}

TEST(Fleet, RestartedNodeRejoinsAndHeartbeatsResume) {
  FleetFixture fx(4, 2);
  ASSERT_FALSE(fx.place(8).has_value());
  fx.fleet.start();
  fx.simulator.schedule_at(50_ms,
                           [&] { fx.plane.crash_node(fx.hosts[0]->id()); });
  fx.simulator.schedule_at(120_ms,
                           [&] { fx.plane.restart_node(fx.hosts[0]->id()); });
  fx.simulator.run_until(300_ms);
  const auto& c = fx.fleet.counters();
  EXPECT_EQ(c.nodes_rejoined, 1u);
  EXPECT_TRUE(fx.fleet.nodes()[0].alive);
  EXPECT_TRUE(fx.fleet.nodes()[0].placeable());
  EXPECT_EQ(fx.fleet.ledger_residual(), 0);
  EXPECT_EQ(fx.fleet.currently_down(), 0u);
}

TEST(Fleet, RollingUpgradeHandsOverAndReadmitsEveryNode) {
  OrchConfig cfg = small_orch_config(11);
  cfg.scenario = OrchScenario::kRollingUpgrade;
  const OrchOutcome out = OrchRunner::run(cfg);
  ASSERT_TRUE(out.place_error.empty()) << out.place_error;
  EXPECT_EQ(out.fleet.upgrades_started, 1u);
  EXPECT_GT(out.fleet.graceful_handovers, 0u);
  EXPECT_EQ(out.fleet.nodes_rejoined, out.compute_nodes);
  EXPECT_EQ(out.ledger_residual, 0);
  EXPECT_EQ(out.currently_down, 0u);
  EXPECT_EQ(out.fleet.switchovers,
            out.fleet.switchovers_within_bound + out.fleet.slo_violations);
}

TEST(Fleet, RackStormSettlesWithZeroResidual) {
  OrchConfig cfg = small_orch_config(3);
  cfg.scenario = OrchScenario::kRackFailure;
  const OrchOutcome out = OrchRunner::run(cfg);
  ASSERT_TRUE(out.place_error.empty()) << out.place_error;
  EXPECT_GT(out.fleet.failovers_started, 0u);
  EXPECT_EQ(out.fleet.switchovers, out.fleet.failovers_started);
  EXPECT_EQ(out.fleet.switchovers,
            out.fleet.switchovers_within_bound + out.fleet.slo_violations);
  EXPECT_EQ(out.ledger_residual, 0);
  EXPECT_EQ(out.currently_down, 0u);
  EXPECT_EQ(out.conservation_residual, 0);
  EXPECT_LT(out.availability, 1.0);
  if (out.fleet.slo_violations == 0) {
    EXPECT_LE(out.latency_max_us * 1000.0,
              static_cast<double>(out.watchdog_bound_ns));
  }
}

TEST(Fleet, PlacementTraceRecordsEveryDecision) {
  FleetFixture fx(4, 2);
  ASSERT_FALSE(fx.place(4).has_value());
  const std::string& trace = fx.fleet.placement_trace();
  EXPECT_NE(trace.find("t_ns,vplc,role,node,cause"), std::string::npos);
  // 4 primaries + 4 twins -> 8 decision lines after the header.
  std::size_t lines = 0;
  for (const char ch : trace) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 9u);
}

}  // namespace
}  // namespace steelnet::orch
