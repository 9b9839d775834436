// steelnet::faults unit behaviour: per-cause drop accounting, seeded
// reproducibility of every fault stream, node crash/restart semantics, and
// the frame-conservation ledger.
#include "faults/fault_plane.hpp"

#include <gtest/gtest.h>

#include "faults/scenario.hpp"
#include "net/host_node.hpp"
#include "obs/exporters.hpp"
#include "obs/hub.hpp"
#include "sim/simulator.hpp"

namespace steelnet::faults {
namespace {

using namespace steelnet::sim::literals;

// ---------------------------------------------------------------------
// A two-host wire for data-path behaviour.

struct WireFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::HostNode* a;
  net::HostNode* b;
  FaultPlane plane;
  std::vector<sim::SimTime> rx_times;
  std::vector<net::Frame> rx_frames;

  explicit WireFixture(std::uint64_t seed = 42)
      : a(&network.add_node<net::HostNode>("a", net::MacAddress{0xA})),
        b(&network.add_node<net::HostNode>("b", net::MacAddress{0xB})),
        plane(network, seed) {
    network.connect(a->id(), 0, b->id(), 0);
    network.set_faults(&plane);
    b->set_receiver([this](net::Frame f, sim::SimTime at) {
      rx_times.push_back(at);
      rx_frames.push_back(std::move(f));
    });
  }

  void send_burst(int n, sim::SimTime period,
                  sim::SimTime start = sim::SimTime::zero()) {
    for (int i = 0; i < n; ++i) {
      simulator.schedule_at(start + period * i, [this] {
        net::Frame f;
        f.dst = net::MacAddress{0xB};
        f.payload.assign(64, 0x55);
        a->send(std::move(f));
      });
    }
  }
};

TEST(FaultPlane, LinkDownDropsEveryFrameByCause) {
  WireFixture fx;
  fx.plane.set_link_down(fx.a->id(), 0, true);
  fx.send_burst(5, 1_ms);
  fx.simulator.run_until(100_ms);
  EXPECT_TRUE(fx.rx_times.empty());
  // The egress queue kept draining: a dead medium still serializes, so
  // all five frames were offered to the wire (no queue deadlock).
  EXPECT_EQ(fx.network.counters().frames_offered, 5u);
  EXPECT_EQ(fx.network.counters().frames_delivered, 0u);
  EXPECT_EQ(fx.plane.counters().dropped_link_down, 5u);
  EXPECT_EQ(fx.plane.counters().link_down_events, 1u);
  EXPECT_EQ(fx.plane.conservation_residual(), 0);

  // Back up: traffic flows again.
  fx.plane.set_link_down(fx.a->id(), 0, false);
  fx.send_burst(3, 1_ms, 200_ms);
  fx.simulator.run_until(300_ms);
  EXPECT_EQ(fx.rx_times.size(), 3u);
  EXPECT_EQ(fx.plane.counters().link_up_events, 1u);
  EXPECT_EQ(fx.plane.conservation_residual(), 0);
}

TEST(FaultPlane, LinkDownIsSymmetric) {
  WireFixture fx;
  // Down via the *peer's* endpoint: a's transmissions must die too.
  fx.plane.set_link_down(fx.b->id(), 0, true);
  EXPECT_TRUE(fx.plane.link_is_down(fx.a->id(), 0));
  fx.send_burst(2, 1_ms);
  fx.simulator.run_until(10_ms);
  EXPECT_TRUE(fx.rx_times.empty());
  EXPECT_EQ(fx.plane.counters().dropped_link_down, 2u);
}

TEST(FaultPlane, LossIsSeededAndConserved) {
  const auto dropped_with_seed = [](std::uint64_t seed) {
    WireFixture fx{seed};
    fx.plane.profile(fx.a->id(), 0).loss = 0.5;
    fx.send_burst(200, 100_us);
    fx.simulator.run_until(1_s);
    EXPECT_EQ(fx.rx_times.size() + fx.plane.counters().dropped_loss, 200u);
    EXPECT_EQ(fx.plane.conservation_residual(), 0);
    // Sanity: p=0.5 over 200 frames is never all-or-nothing.
    EXPECT_GT(fx.plane.counters().dropped_loss, 50u);
    EXPECT_LT(fx.plane.counters().dropped_loss, 150u);
    return fx.plane.counters().dropped_loss;
  };
  const std::uint64_t first = dropped_with_seed(7);
  EXPECT_EQ(first, dropped_with_seed(7));  // same seed, same losses
}

TEST(FaultPlane, CorruptionFlipsExactlyOneBit) {
  WireFixture fx;
  fx.plane.profile(fx.a->id(), 0).corrupt = 1.0;
  fx.send_burst(1, 1_ms);
  fx.simulator.run_until(10_ms);
  ASSERT_EQ(fx.rx_frames.size(), 1u);
  const auto& payload = fx.rx_frames[0].payload;
  ASSERT_EQ(payload.size(), 64u);
  int flipped_bits = 0;
  for (const std::uint8_t byte : payload) {
    for (int bit = 0; bit < 8; ++bit) {
      if (((byte >> bit) & 1) != ((0x55 >> bit) & 1)) ++flipped_bits;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(fx.plane.counters().corrupted, 1u);
  // Corrupted frames are delivered (a real NIC would FCS-drop them later;
  // here the protocol layer sees and rejects the damage), so the ledger
  // counts them as delivered, not dropped.
  EXPECT_EQ(fx.plane.conservation_residual(), 0);
}

TEST(FaultPlane, DuplicationDeliversTwiceAndBalances) {
  WireFixture fx;
  fx.plane.profile(fx.a->id(), 0).duplicate = 1.0;
  fx.send_burst(3, 1_ms);
  fx.simulator.run_until(10_ms);
  EXPECT_EQ(fx.rx_times.size(), 6u);
  EXPECT_EQ(fx.plane.counters().duplicated, 3u);
  EXPECT_EQ(fx.network.counters().frames_delivered, 6u);
  EXPECT_EQ(fx.plane.conservation_residual(), 0);
}

TEST(FaultPlane, ReorderedFrameIsOvertaken) {
  WireFixture fx;
  // Frame A passes a link that delays it 1 ms; the profile is cleared
  // before frame B follows, so B arrives first: a genuine reordering.
  fx.plane.profile(fx.a->id(), 0).reorder = 1.0;
  fx.plane.profile(fx.a->id(), 0).reorder_delay = 1_ms;
  fx.send_burst(1, 1_ms);
  fx.simulator.schedule_at(100_us, [&fx] {
    fx.plane.profile(fx.a->id(), 0).reorder = 0.0;
  });
  fx.send_burst(1, 1_ms, 200_us);
  fx.simulator.run_until(10_ms);
  ASSERT_EQ(fx.rx_times.size(), 2u);
  // Second arrival is the reordered first frame.
  EXPECT_GT(fx.rx_times[1], 1_ms);
  EXPECT_LT(fx.rx_times[0], 1_ms);
  EXPECT_EQ(fx.plane.counters().reordered, 1u);
  EXPECT_EQ(fx.plane.conservation_residual(), 0);
}

TEST(FaultPlane, JitterIsBoundedAndSeeded) {
  const auto arrivals_with_seed = [](std::uint64_t seed) {
    WireFixture fx{seed};
    fx.plane.profile(fx.a->id(), 0).jitter_max = 100_us;
    fx.send_burst(20, 1_ms);
    fx.simulator.run_until(100_ms);
    EXPECT_EQ(fx.rx_times.size(), 20u);
    EXPECT_EQ(fx.plane.counters().jittered, 20u);
    for (std::size_t i = 0; i < fx.rx_times.size(); ++i) {
      const sim::SimTime base = 1_ms * static_cast<std::int64_t>(i);
      EXPECT_GE(fx.rx_times[i], base);
      EXPECT_LE(fx.rx_times[i], base + 110_us);  // wire + <=100us jitter
    }
    return fx.rx_times;
  };
  const auto first = arrivals_with_seed(9);
  EXPECT_EQ(first, arrivals_with_seed(9));
  EXPECT_NE(first, arrivals_with_seed(10));
}

TEST(FaultPlane, CrashedReceiverAbsorbsInFlightFrames) {
  WireFixture fx;
  bool crash_seen = false;
  fx.plane.set_crash_handler(fx.b->id(), [&] { crash_seen = true; });
  fx.plane.crash_node(fx.b->id());
  EXPECT_TRUE(crash_seen);
  EXPECT_FALSE(fx.plane.node_alive(fx.b->id()));
  ASSERT_TRUE(fx.plane.crashed_at(fx.b->id()).has_value());
  fx.send_burst(4, 1_ms);
  fx.simulator.run_until(50_ms);
  EXPECT_TRUE(fx.rx_times.empty());
  EXPECT_EQ(fx.plane.counters().dropped_receiver_down, 4u);
  EXPECT_EQ(fx.b->counters().received, 0u);
  EXPECT_EQ(fx.plane.conservation_residual(), 0);
}

TEST(FaultPlane, CrashedSenderSuppressesBeforeTheWire) {
  WireFixture fx;
  fx.plane.crash_node(fx.a->id());
  fx.send_burst(3, 1_ms);
  fx.simulator.run_until(50_ms);
  EXPECT_TRUE(fx.rx_times.empty());
  // Suppressed at the host send hook: the frames never reached transmit().
  EXPECT_EQ(fx.plane.counters().suppressed_tx, 3u);
  EXPECT_EQ(fx.network.counters().frames_offered, 0u);
  EXPECT_EQ(fx.a->counters().sent, 0u);
  EXPECT_EQ(fx.plane.conservation_residual(), 0);
}

TEST(FaultPlane, RestartRestoresTrafficAndFiresHandler) {
  WireFixture fx;
  int restarts = 0;
  fx.plane.set_restart_handler(fx.b->id(), [&] { ++restarts; });
  fx.plane.crash_node(fx.b->id());
  fx.send_burst(2, 1_ms);
  fx.simulator.schedule_at(10_ms, [&fx] { fx.plane.restart_node(fx.b->id()); });
  fx.send_burst(2, 1_ms, 20_ms);
  fx.simulator.run_until(50_ms);
  EXPECT_EQ(restarts, 1);
  EXPECT_TRUE(fx.plane.node_alive(fx.b->id()));
  EXPECT_EQ(fx.rx_times.size(), 2u);
  EXPECT_EQ(fx.plane.counters().dropped_receiver_down, 2u);
  EXPECT_EQ(fx.plane.counters().node_crashes, 1u);
  EXPECT_EQ(fx.plane.counters().node_restarts, 1u);
}

TEST(FaultPlane, ScheduledScenarioDrivesTheWindows) {
  WireFixture fx;
  const FaultScenario sc{
      .name = "window",
      .seed = 42,
      .faults = {{.kind = FaultKind::kLoss,
                  .node = "a",
                  .port = 0,
                  .at = 10_ms,
                  .duration = 10_ms,
                  .probability = 1}}};
  fx.plane.schedule(sc);
  fx.send_burst(30, 1_ms);  // 0..29ms: frames in [10ms, 20ms) must die
  fx.simulator.run_until(100_ms);
  EXPECT_EQ(fx.plane.counters().dropped_loss, 10u);
  EXPECT_EQ(fx.rx_times.size(), 20u);
  EXPECT_EQ(fx.plane.conservation_residual(), 0);
}

TEST(FaultPlane, ScenarioRejectsUnknownNode) {
  WireFixture fx;
  const FaultScenario sc{
      .faults = {{.kind = FaultKind::kNodeCrash,
                  .node = "nonexistent",
                  .at = 1_ms}}};
  EXPECT_THROW(fx.plane.schedule(sc), sim::SimError);
}

TEST(FaultPlane, CountersExportToMetricsPlane) {
  WireFixture fx;
  obs::ObsHub hub;
  fx.network.set_obs(&hub);
  fx.plane.register_metrics(hub);
  fx.plane.set_link_down(fx.a->id(), 0, true);
  fx.send_burst(2, 1_ms);
  fx.simulator.run_until(10_ms);
  const std::string prom = hub.metrics().to_prometheus();
  EXPECT_NE(prom.find("steelnet_faults_dropped_link_down{node=\"faults\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("steelnet_faults_link_down_events{node=\"faults\"} 1"),
            std::string::npos);
}

TEST(FaultPlane, FaultEventsAppearInFrameBreakdown) {
  WireFixture fx;
  obs::ObsHub hub;
  fx.network.set_obs(&hub);
  fx.plane.set_link_down(fx.a->id(), 0, true);
  fx.send_burst(1, 1_ms);
  fx.simulator.run_until(10_ms);
  // The frame got a trace id; its breakdown ends in a fault:link_down
  // span on the link track instead of a delivery.
  bool found = false;
  for (const auto& row : hub.breakdown(1)) {
    if (row.hop == "fault:link_down") found = true;
  }
  EXPECT_TRUE(found);
  const std::string json = obs::chrome_trace_json(hub.tracer());
  EXPECT_NE(json.find("fault:link_down"), std::string::npos);
}

TEST(FaultPlane, QuietPlaneDoesNotPerturbObsExports) {
  // Attached-but-idle faults must leave the observability exports
  // byte-identical to a run with no fault plane at all.
  const auto run = [](bool with_plane) {
    sim::Simulator simulator;
    net::Network network{simulator};
    obs::ObsHub hub;
    auto& a = network.add_node<net::HostNode>("a", net::MacAddress{0xA});
    auto& b = network.add_node<net::HostNode>("b", net::MacAddress{0xB});
    network.connect(a.id(), 0, b.id(), 0);
    network.set_obs(&hub);
    network.register_metrics(hub);
    a.register_metrics(hub);
    b.register_metrics(hub);
    FaultPlane plane{network, 42};
    if (with_plane) network.set_faults(&plane);
    for (int i = 0; i < 10; ++i) {
      simulator.schedule_at(sim::milliseconds(i), [&a] {
        net::Frame f;
        f.dst = net::MacAddress{0xB};
        f.payload.assign(64, 1);
        a.send(std::move(f));
      });
    }
    simulator.run_until(100_ms);
    return hub.metrics().to_prometheus() + "\n---\n" +
           obs::chrome_trace_json(hub.tracer());
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------
// Incarnation epochs: overlapping crash/restart schedules across node
// lifetimes.

TEST(FaultPlane, StaleEpochRestartNeverResurrectsLaterKill) {
  WireFixture fx;
  const net::NodeId a = fx.a->id();

  // Crash #1; an orchestrator schedules "bring it back at 20 ms" with the
  // epoch it saw at crash time.
  fx.simulator.schedule_at(sim::milliseconds(1),
                           [&] { fx.plane.crash_node(a); });
  std::uint64_t epoch_at_crash1 = 0;
  fx.simulator.schedule_at(sim::milliseconds(2), [&] {
    epoch_at_crash1 = fx.plane.incarnation(a);
  });
  bool stale_restart_happened = true;
  fx.simulator.schedule_at(sim::milliseconds(20), [&] {
    stale_restart_happened = fx.plane.restart_node_if(a, epoch_at_crash1);
  });

  // Meanwhile the node restarts and is killed AGAIN in a later epoch,
  // both before the scheduled restart fires.
  fx.simulator.schedule_at(sim::milliseconds(5),
                           [&] { fx.plane.restart_node(a); });
  fx.simulator.schedule_at(sim::milliseconds(10),
                           [&] { fx.plane.crash_node(a); });

  fx.simulator.run_until(sim::milliseconds(30));
  // The stale restart must have been vetoed: the second kill wins.
  EXPECT_FALSE(stale_restart_happened);
  EXPECT_FALSE(fx.plane.node_alive(a));
  EXPECT_TRUE(fx.plane.crashed_at(a).has_value());

  // A restart keyed to the CURRENT epoch still works.
  bool fresh_restart_happened = false;
  fx.simulator.schedule_at(sim::milliseconds(40), [&] {
    fresh_restart_happened =
        fx.plane.restart_node_if(a, fx.plane.incarnation(a));
  });
  fx.simulator.run_until(sim::milliseconds(50));
  EXPECT_TRUE(fresh_restart_happened);
  EXPECT_TRUE(fx.plane.node_alive(a));
}

TEST(FaultPlane, NodeWatchersSeeEveryTransitionWithMonotonicEpochs) {
  WireFixture fx;
  const net::NodeId a = fx.a->id();

  std::vector<NodeEvent> seen;
  fx.plane.add_node_watcher([&](const NodeEvent& ev) {
    if (ev.node == a) seen.push_back(ev);
  });
  std::vector<NodeEvent> seen_too;  // multi-subscriber: both get the feed
  fx.plane.add_node_watcher([&](const NodeEvent& ev) {
    if (ev.node == a) seen_too.push_back(ev);
  });

  fx.simulator.schedule_at(sim::milliseconds(1),
                           [&] { fx.plane.crash_node(a); });
  fx.simulator.schedule_at(sim::milliseconds(5),
                           [&] { fx.plane.restart_node(a); });
  fx.simulator.schedule_at(sim::milliseconds(9),
                           [&] { fx.plane.stop_node(a); });
  fx.simulator.run_until(sim::milliseconds(20));

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].kind, NodeEvent::Kind::kCrash);
  EXPECT_EQ(seen[1].kind, NodeEvent::Kind::kRestart);
  EXPECT_EQ(seen[2].kind, NodeEvent::Kind::kStop);
  EXPECT_EQ(seen[0].at, sim::milliseconds(1));
  EXPECT_EQ(seen[1].at, sim::milliseconds(5));
  EXPECT_EQ(seen[2].at, sim::milliseconds(9));
  // Every transition bumps the epoch; the last event carries the current.
  EXPECT_LT(seen[0].epoch, seen[1].epoch);
  EXPECT_LT(seen[1].epoch, seen[2].epoch);
  EXPECT_EQ(seen[2].epoch, fx.plane.incarnation(a));
  ASSERT_EQ(seen_too.size(), 3u);
  EXPECT_EQ(seen_too[1].epoch, seen[1].epoch);
}

}  // namespace
}  // namespace steelnet::faults
