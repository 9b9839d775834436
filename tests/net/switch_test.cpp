#include "net/switch_node.hpp"

#include <gtest/gtest.h>

#include "net/host_node.hpp"
#include "sim/simulator.hpp"

namespace steelnet::net {
namespace {

using namespace steelnet::sim::literals;

struct StarFixture {
  sim::Simulator sim;
  Network net{sim};
  SwitchNode* sw = nullptr;
  std::vector<HostNode*> hosts;

  explicit StarFixture(std::size_t n_hosts, SwitchConfig cfg = {}) {
    sw = &net.add_node<SwitchNode>("sw", cfg);
    for (std::size_t i = 0; i < n_hosts; ++i) {
      // Appended: GCC 12 at -O3 warns -Wrestrict inside libstdc++ on
      // `"h" + std::to_string(i)`.
      std::string name = "h";
      name += std::to_string(i);
      auto& h = net.add_node<HostNode>(name, MacAddress{i + 1});
      net.connect(h.id(), 0, sw->id(), static_cast<PortId>(i));
      hosts.push_back(&h);
    }
  }
};

Frame to(MacAddress dst, std::uint8_t pcp = 0) {
  Frame f;
  f.dst = dst;
  f.pcp = pcp;
  f.payload.resize(46);
  return f;
}

TEST(SwitchNode, ForwardsViaStaticFdb) {
  StarFixture fx{3, SwitchConfig{.mac_learning = false}};
  fx.sw->add_fdb_entry(MacAddress{2}, 1);
  int got = 0;
  fx.hosts[1]->set_receiver([&](Frame, sim::SimTime) { ++got; });
  fx.hosts[0]->send(to(MacAddress{2}));
  fx.sim.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(fx.sw->counters().frames_forwarded, 1u);
}

TEST(SwitchNode, UnknownUnicastDroppedWithoutLearning) {
  StarFixture fx{3, SwitchConfig{.mac_learning = false}};
  int got = 0;
  for (auto* h : fx.hosts) {
    h->set_receiver([&](Frame, sim::SimTime) { ++got; });
  }
  fx.hosts[0]->send(to(MacAddress{2}));
  fx.sim.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(fx.sw->counters().frames_dropped_unknown, 1u);
}

TEST(SwitchNode, LearningFloodsThenForwards) {
  StarFixture fx{3, SwitchConfig{.mac_learning = true}};
  int h1 = 0, h2 = 0;
  fx.hosts[1]->set_receiver([&](Frame, sim::SimTime) { ++h1; });
  fx.hosts[2]->set_receiver([&](Frame, sim::SimTime) { ++h2; });
  // Unknown dst: floods to all other ports; the addressed host accepts,
  // the bystander's NIC filter discards.
  fx.hosts[0]->send(to(MacAddress{2}));
  fx.sim.run();
  EXPECT_EQ(h1, 1);
  EXPECT_EQ(h2, 0);
  EXPECT_EQ(fx.hosts[2]->counters().filtered, 1u);
  EXPECT_EQ(fx.sw->counters().frames_flooded, 1u);
  // Reply: switch has learned h0's location from the first frame.
  fx.hosts[1]->send(to(MacAddress{1}));
  fx.sim.run();
  EXPECT_EQ(fx.sw->counters().frames_forwarded, 1u);
  // h0 -> h1 again: learned, so no more flooding toward h2.
  fx.hosts[0]->send(to(MacAddress{2}));
  fx.sim.run();
  EXPECT_EQ(fx.sw->counters().frames_forwarded, 2u);
  EXPECT_EQ(fx.hosts[2]->counters().filtered, 1u);
}

TEST(SwitchNode, BroadcastFloodsAllButIngress) {
  StarFixture fx{4};
  int got = 0, self = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    fx.hosts[i]->set_receiver([&](Frame, sim::SimTime) { ++got; });
  }
  fx.hosts[0]->set_receiver([&](Frame, sim::SimTime) { ++self; });
  fx.hosts[0]->send(to(MacAddress::broadcast()));
  fx.sim.run();
  EXPECT_EQ(got, 3);
  EXPECT_EQ(self, 0);
}

TEST(SwitchNode, ProcessingDelayApplied) {
  StarFixture fx{2, SwitchConfig{.processing_delay = 10_us,
                                 .mac_learning = false}};
  fx.sw->add_fdb_entry(MacAddress{2}, 1);
  sim::SimTime at = sim::SimTime::zero();
  fx.hosts[1]->set_receiver([&](Frame, sim::SimTime t) { at = t; });
  fx.hosts[0]->send(to(MacAddress{2}));
  fx.sim.run();
  // 672 ser + 500 prop + 10us processing + 672 ser + 500 prop.
  EXPECT_EQ(at.nanos(), 672 + 500 + 10'000 + 672 + 500);
}

TEST(SwitchNode, StrictPriorityAtCongestion) {
  // Two senders blast one receiver; high-pcp frames should win the
  // contended egress port.
  StarFixture fx{3, SwitchConfig{.processing_delay = 0_ns,
                                 .mac_learning = false}};
  fx.sw->add_fdb_entry(MacAddress{3}, 2);
  std::vector<std::uint8_t> order;
  fx.hosts[2]->set_receiver(
      [&](Frame f, sim::SimTime) { order.push_back(f.pcp); });
  // Burst of 5 low + 5 high from two hosts at t=0.
  for (int i = 0; i < 5; ++i) fx.hosts[0]->send(to(MacAddress{3}, 0));
  for (int i = 0; i < 5; ++i) fx.hosts[1]->send(to(MacAddress{3}, 7));
  fx.sim.run();
  ASSERT_EQ(order.size(), 10u);
  // Under strict priority the pcp-7 frames must on average be delivered
  // earlier than the pcp-0 frames, and the tail is all best-effort.
  double high_pos = 0, low_pos = 0;
  for (int i = 0; i < 10; ++i) {
    (order[size_t(i)] == 7 ? high_pos : low_pos) += i;
  }
  EXPECT_LT(high_pos / 5.0, low_pos / 5.0);
  EXPECT_EQ(order.back(), 0);
}

TEST(SwitchNode, QueueOverflowDrops) {
  StarFixture fx{3, SwitchConfig{.processing_delay = 0_ns,
                                 .queue_capacity = 2,
                                 .mac_learning = false}};
  fx.sw->add_fdb_entry(MacAddress{3}, 2);
  int got = 0;
  fx.hosts[2]->set_receiver([&](Frame, sim::SimTime) { ++got; });
  // 2:1 oversubscription of h2's link -> the egress queue (capacity 2
  // frames) must overflow.
  for (int i = 0; i < 20; ++i) fx.hosts[0]->send(to(MacAddress{3}));
  for (int i = 0; i < 20; ++i) fx.hosts[1]->send(to(MacAddress{3}));
  fx.sim.run();
  EXPECT_LT(got, 40);
  EXPECT_GT(fx.sw->port_counters(2).dropped_overflow, 0u);
  EXPECT_EQ(got + int(fx.sw->port_counters(2).dropped_overflow), 40);
  // The same drops must be visible at the switch level, aggregated over
  // all ports -- here only port 2 ever overflows.
  EXPECT_EQ(fx.sw->counters().frames_dropped_overflow,
            fx.sw->port_counters(2).dropped_overflow);
  EXPECT_EQ(fx.sw->counters().frames_in, 40u);
}

TEST(SwitchNode, HairpinDropped) {
  StarFixture fx{2, SwitchConfig{.mac_learning = false}};
  fx.sw->add_fdb_entry(MacAddress{2}, 0);  // wrong: points back at sender
  int got = 0;
  fx.hosts[1]->set_receiver([&](Frame, sim::SimTime) { ++got; });
  fx.hosts[0]->send(to(MacAddress{2}));
  fx.sim.run();
  EXPECT_EQ(got, 0);
}

}  // namespace
}  // namespace steelnet::net
