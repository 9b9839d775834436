#include "net/network.hpp"

#include <gtest/gtest.h>

#include "net/host_node.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"

namespace steelnet::net {
namespace {

using namespace steelnet::sim::literals;

struct TwoHosts {
  sim::Simulator sim;
  Network net{sim};
  HostNode* a = nullptr;
  HostNode* b = nullptr;

  explicit TwoHosts(LinkParams params = {}) {
    a = &net.add_node<HostNode>("a", MacAddress{1});
    b = &net.add_node<HostNode>("b", MacAddress{2});
    net.connect(a->id(), 0, b->id(), 0, params);
  }
};

Frame make_frame(MacAddress dst, std::size_t payload = 46) {
  Frame f;
  f.dst = dst;
  f.payload.resize(payload);
  return f;
}

TEST(Network, DeliversFrameWithSerializationAndPropagation) {
  TwoHosts t{LinkParams{1'000'000'000, 500_ns}};
  sim::SimTime rx_at = sim::SimTime::zero();
  t.b->set_receiver([&](Frame, sim::SimTime at) { rx_at = at; });
  t.a->send(make_frame(MacAddress{2}));
  t.sim.run();
  // 64B wire + 20B overhead = 672 ns serialization + 500 ns propagation.
  EXPECT_EQ(rx_at, 1172_ns);
}

TEST(Network, FramesQueueBehindBusyChannel) {
  TwoHosts t{LinkParams{1'000'000'000, 0_ns}};
  std::vector<sim::SimTime> rx;
  t.b->set_receiver([&](Frame, sim::SimTime at) { rx.push_back(at); });
  t.a->send(make_frame(MacAddress{2}));
  t.a->send(make_frame(MacAddress{2}));
  t.sim.run();
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0], 672_ns);
  EXPECT_EQ(rx[1], 1344_ns);
}

TEST(Network, HigherPcpOvertakesInHostQueue) {
  TwoHosts t{LinkParams{1'000'000'000, 0_ns}};
  std::vector<std::uint8_t> order;
  t.b->set_receiver([&](Frame f, sim::SimTime) { order.push_back(f.pcp); });
  // Three frames queued at once: first occupies the wire; among the two
  // waiting, pcp 6 must beat pcp 0 even though it was enqueued later.
  auto f0 = make_frame(MacAddress{2});
  f0.pcp = 0;
  auto f1 = make_frame(MacAddress{2});
  f1.pcp = 0;
  auto f2 = make_frame(MacAddress{2});
  f2.pcp = 6;
  t.a->send(std::move(f0));
  t.a->send(std::move(f1));
  t.a->send(std::move(f2));
  t.sim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 6);
  EXPECT_EQ(order[2], 0);
}

TEST(Network, SendWithoutLinkCountsDrop) {
  sim::Simulator sim;
  Network net{sim};
  auto& h = net.add_node<HostNode>("lonely", MacAddress{1});
  h.send(make_frame(MacAddress{2}));
  sim.run();
  EXPECT_EQ(net.counters().frames_delivered, 0u);
  EXPECT_EQ(net.counters().frames_dropped_no_link, 1u);
}

TEST(Network, ConnectValidation) {
  sim::Simulator sim;
  Network net{sim};
  auto& a = net.add_node<HostNode>("a", MacAddress{1});
  auto& b = net.add_node<HostNode>("b", MacAddress{2});
  net.connect(a.id(), 0, b.id(), 0);
  EXPECT_THROW(net.connect(a.id(), 0, b.id(), 1), sim::SimError);
  EXPECT_THROW(net.connect(99, 0, 98, 0), sim::SimError);
}

TEST(Network, PeerLookup) {
  TwoHosts t;
  const auto p = t.net.peer(t.a->id(), 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->first, t.b->id());
  EXPECT_EQ(p->second, 0);
  EXPECT_FALSE(t.net.peer(t.a->id(), 5).has_value());
}

TEST(Network, PortsOfIsPortOrderedAndPerNode) {
  // Ports connected out of order, with a node added after earlier
  // connects: ports_of lists only that node's ports, in port order.
  sim::Simulator sim;
  Network net{sim};
  auto& sw = net.add_node<SwitchNode>("sw");
  auto& a = net.add_node<HostNode>("a", MacAddress{1});
  net.connect(sw.id(), 7, a.id(), 0);
  auto& b = net.add_node<HostNode>("b", MacAddress{2});
  auto& c = net.add_node<HostNode>("c", MacAddress{3});
  net.connect(sw.id(), 3, b.id(), 0);
  net.connect(c.id(), 2, sw.id(), 0);

  using Ports = std::vector<std::pair<PortId, NodeId>>;
  EXPECT_EQ(net.ports_of(sw.id()),
            (Ports{{0, c.id()}, {3, b.id()}, {7, a.id()}}));
  EXPECT_EQ(net.ports_of(c.id()), (Ports{{2, sw.id()}}));
  EXPECT_TRUE(net.ports_of(99).empty());
  EXPECT_FALSE(net.has_channel(sw.id(), 1));
  EXPECT_FALSE(net.has_channel(sw.id(), 8));
  EXPECT_TRUE(net.has_channel(sw.id(), 7));
  EXPECT_EQ(net.peer(c.id(), 2), std::make_pair(sw.id(), PortId{0}));
}

TEST(Network, ChannelRate) {
  TwoHosts t{LinkParams{100'000'000, 0_ns}};
  EXPECT_EQ(t.net.channel_rate(t.a->id(), 0), 100'000'000u);
  EXPECT_THROW((void)t.net.channel_rate(t.a->id(), 9), sim::SimError);
}

TEST(Network, SrcMacAutofilledOnSend) {
  TwoHosts t;
  MacAddress seen_src;
  t.b->set_receiver([&](Frame f, sim::SimTime) { seen_src = f.src; });
  t.a->send(make_frame(MacAddress{2}));
  t.sim.run();
  EXPECT_EQ(seen_src, MacAddress{1});
}

TEST(Network, CountersTrackDelivery) {
  TwoHosts t;
  t.a->send(make_frame(MacAddress{2}));
  t.a->send(make_frame(MacAddress{2}));
  t.sim.run();
  EXPECT_EQ(t.net.counters().frames_delivered, 2u);
  EXPECT_EQ(t.net.counters().bytes_delivered, 128u);
  EXPECT_EQ(t.a->counters().sent, 2u);
  EXPECT_EQ(t.b->counters().received, 2u);
}

TEST(HostNode, NicProcessorDropAndTx) {
  struct Dropper : NicProcessor {
    NicAction process(Frame&, sim::SimTime, sim::SimTime& cost) override {
      cost = 100_ns;
      return NicAction::kDrop;
    }
  };
  TwoHosts t;
  Dropper d;
  t.b->set_nic_processor(&d);
  int received = 0;
  t.b->set_receiver([&](Frame, sim::SimTime) { ++received; });
  t.a->send(make_frame(MacAddress{2}));
  t.sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(t.b->counters().nic_drop, 1u);
}

TEST(HostNode, NicProcessorReflectsTx) {
  struct Reflector : NicProcessor {
    NicAction process(Frame& f, sim::SimTime, sim::SimTime& cost) override {
      std::swap(f.dst, f.src);
      cost = 250_ns;
      return NicAction::kTx;
    }
  };
  TwoHosts t{LinkParams{1'000'000'000, 0_ns}};
  Reflector r;
  t.b->set_nic_processor(&r);
  sim::SimTime echo_at = sim::SimTime::zero();
  t.a->set_receiver([&](Frame, sim::SimTime at) { echo_at = at; });
  t.a->send(make_frame(MacAddress{2}));
  t.sim.run();
  // 672 out + 250 prog + 672 back.
  EXPECT_EQ(echo_at, 1594_ns);
  EXPECT_EQ(t.b->counters().nic_tx, 1u);
}

}  // namespace
}  // namespace steelnet::net
