// The obs plane against a real simulated network: hop breakdowns must
// tile measured delivery latency exactly, and attaching the plane must
// not perturb the simulation at all.
#include <gtest/gtest.h>

#include <optional>

#include "net/host_node.hpp"
#include "net/switch_node.hpp"
#include "obs/exporters.hpp"
#include "obs/hub.hpp"
#include "sim/simulator.hpp"

namespace steelnet {
namespace {

using namespace steelnet::sim::literals;

struct Rig {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::SwitchNode* sw = nullptr;
  net::HostNode* a = nullptr;
  net::HostNode* b = nullptr;

  explicit Rig(obs::ObsHub* hub, std::size_t queue_capacity = 1024) {
    if (hub != nullptr) network.set_obs(hub);
    net::SwitchConfig cfg;
    cfg.mac_learning = false;
    cfg.queue_capacity = queue_capacity;
    sw = &network.add_node<net::SwitchNode>("sw", cfg);
    a = &network.add_node<net::HostNode>("a", net::MacAddress{1});
    b = &network.add_node<net::HostNode>("b", net::MacAddress{2});
    network.connect(a->id(), 0, sw->id(), 0);
    network.connect(b->id(), 0, sw->id(), 1);
    sw->add_fdb_entry(net::MacAddress{2}, 1);
  }

  void send_burst(int n) {
    for (int i = 0; i < n; ++i) {
      net::Frame f;
      f.dst = net::MacAddress{2};
      f.payload.resize(100);
      a->send(std::move(f));
    }
    simulator.run();
  }
};

TEST(ObsIntegration, HopBreakdownSumsToMeasuredLatency) {
  obs::ObsHub hub;
  Rig rig(&hub);
  std::optional<sim::SimTime> delivered_at;
  std::optional<sim::SimTime> created_at;
  rig.b->set_receiver([&](net::Frame f, sim::SimTime at) {
    if (!delivered_at) {
      delivered_at = at;
      created_at = f.created_at;
    }
  });
  // A burst deep enough that later frames actually queue behind earlier
  // transmissions, so the queue hop is non-trivial.
  rig.send_burst(8);

  ASSERT_EQ(hub.deliveries().size(), 8u);
  for (const auto& d : hub.deliveries()) {
    const auto rows = hub.breakdown(d.trace_id);
    ASSERT_GE(rows.size(), 5u) << "trace " << d.trace_id;
    sim::SimTime sum = sim::SimTime::zero();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      sum += rows[i].duration();
      if (i > 0) {
        // Path-ordered rows tile without gaps or overlap.
        EXPECT_EQ(rows[i].start, rows[i - 1].end) << "trace " << d.trace_id;
      }
    }
    EXPECT_EQ(sum, d.latency()) << "trace " << d.trace_id;
    EXPECT_EQ(rows.front().start, d.created_at);
    EXPECT_EQ(rows.back().end, d.delivered_at);
  }
  // The receiver callback and the ledger agree on the first frame.
  ASSERT_TRUE(delivered_at.has_value());
  EXPECT_EQ(hub.deliveries().front().delivered_at, *delivered_at);
  EXPECT_EQ(hub.deliveries().front().created_at, *created_at);
}

// Attaching the hub must change nothing observable: same event count,
// same counters, same delivery times.
TEST(ObsIntegration, TracingDoesNotPerturbTheSimulation) {
  auto run = [](obs::ObsHub* hub) {
    Rig rig(hub);
    std::vector<sim::SimTime> arrivals;
    rig.b->set_receiver(
        [&](net::Frame, sim::SimTime at) { arrivals.push_back(at); });
    rig.send_burst(16);
    return std::tuple{rig.simulator.events_executed(),
                      rig.network.counters().frames_delivered,
                      arrivals};
  };
  obs::ObsHub hub;
  const auto with = run(&hub);
  const auto without = run(nullptr);
  EXPECT_EQ(std::get<0>(with), std::get<0>(without));
  EXPECT_EQ(std::get<1>(with), std::get<1>(without));
  EXPECT_EQ(std::get<2>(with), std::get<2>(without));
  EXPECT_EQ(hub.deliveries().size(), 16u);
}

// Two identical runs must export byte-identical artifacts. Exports are
// rendered inside the run, while the bound counter owners are alive.
TEST(ObsIntegration, ExportsAreRunToRunDeterministic) {
  struct Artifacts {
    std::string chrome, spans, prom;
    std::size_t span_count = 0;
    std::uint64_t unmatched = 0;
  };
  auto run = [] {
    obs::ObsHub hub;
    Rig rig(&hub);
    rig.network.register_metrics(hub);
    rig.sw->register_metrics(hub);
    rig.a->register_metrics(hub);
    rig.b->register_metrics(hub);
    rig.send_burst(12);
    return Artifacts{obs::chrome_trace_json(hub.tracer()),
                     obs::spans_csv(hub.tracer()),
                     hub.metrics().to_prometheus(),
                     hub.tracer().spans().size(),
                     hub.tracer().unmatched_closes()};
  };
  const auto a1 = run();
  const auto a2 = run();
  EXPECT_EQ(a1.chrome, a2.chrome);
  EXPECT_EQ(a1.spans, a2.spans);
  EXPECT_EQ(a1.prom, a2.prom);
  EXPECT_GT(a1.span_count, 0u);
  EXPECT_EQ(a1.unmatched, 0u);
  EXPECT_NE(a1.prom.find("steelnet_switch_frames_forwarded{node=\"sw\"} 12"),
            std::string::npos);
}

// Frames that never reach an application (dropped at a full egress queue)
// must not leave dangling open hops behind.
TEST(ObsIntegration, QueueDropsCloseTheirHops) {
  obs::ObsHub hub;
  Rig rig(&hub, /*queue_capacity=*/2);
  // Two senders converge on b's switch port: ingress at twice the egress
  // rate overflows the 2-frame queue.
  auto& c = rig.network.add_node<net::HostNode>("c", net::MacAddress{3});
  rig.network.connect(c.id(), 0, rig.sw->id(), 2);
  for (int i = 0; i < 32; ++i) {
    net::Frame f;
    f.dst = net::MacAddress{2};
    f.payload.resize(100);
    net::Frame g = f;
    rig.a->send(std::move(f));
    c.send(std::move(g));
  }
  rig.simulator.run();
  EXPECT_GT(rig.sw->counters().frames_dropped_overflow.value(), 0u);
  EXPECT_LT(hub.deliveries().size(), 64u);
  EXPECT_EQ(hub.tracer().unmatched_closes(), 0u);
  for (const auto& d : hub.deliveries()) {
    sim::SimTime sum = sim::SimTime::zero();
    for (const auto& r : hub.breakdown(d.trace_id)) sum += r.duration();
    EXPECT_EQ(sum, d.latency());
  }
}

}  // namespace
}  // namespace steelnet
