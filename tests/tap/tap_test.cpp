#include "tap/tap_node.hpp"

#include <gtest/gtest.h>

#include "net/host_node.hpp"
#include "sim/simulator.hpp"

namespace steelnet::tap {
namespace {

using namespace steelnet::sim::literals;

struct TapFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::HostNode* a;
  TapNode* tap;
  net::HostNode* b;

  TapFixture() {
    a = &network.add_node<net::HostNode>("a", net::MacAddress{1});
    tap = &network.add_node<TapNode>("tap");
    b = &network.add_node<net::HostNode>("b", net::MacAddress{2});
    network.connect(a->id(), 0, tap->id(), TapNode::kPortA);
    network.connect(tap->id(), TapNode::kPortB, b->id(), 0);
  }
};

net::Frame make(std::uint64_t flow, std::uint64_t seq) {
  net::Frame f;
  f.dst = net::MacAddress{2};
  f.flow_id = flow;
  f.seq = seq;
  f.payload.resize(46);
  return f;
}

TEST(TapNode, ForwardsThrough) {
  TapFixture fx;
  int got = 0;
  fx.b->set_receiver([&](net::Frame, sim::SimTime) { ++got; });
  fx.a->send(make(1, 0));
  fx.simulator.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(fx.tap->frames_seen(), 1u);
}

TEST(TapNode, RecordsDirectionAndIds) {
  TapFixture fx;
  fx.b->set_receiver([&](net::Frame f, sim::SimTime) {
    // bounce back
    f.dst = net::MacAddress{1};
    f.src = net::MacAddress{2};
    fx.b->send(std::move(f));
  });
  fx.a->send(make(7, 3));
  fx.simulator.run();
  ASSERT_EQ(fx.tap->observations().size(), 2u);
  EXPECT_EQ(fx.tap->observations()[0].direction, TapDirection::kAtoB);
  EXPECT_EQ(fx.tap->observations()[1].direction, TapDirection::kBtoA);
  EXPECT_EQ(fx.tap->observations()[0].flow_id, 7u);
  EXPECT_EQ(fx.tap->observations()[0].seq, 3u);
  EXPECT_LT(fx.tap->observations()[0].stamp,
            fx.tap->observations()[1].stamp);
}

TEST(TapNode, TimestampsQuantizedTo8ns) {
  TapFixture fx;
  fx.a->send(make(1, 0));
  fx.simulator.run();
  ASSERT_FALSE(fx.tap->observations().empty());
  EXPECT_EQ(fx.tap->observations()[0].stamp.nanos() % 8, 0);
}

TEST(TapNode, FindStamp) {
  TapFixture fx;
  fx.a->send(make(1, 0));
  fx.a->send(make(1, 1));
  fx.simulator.run();
  EXPECT_TRUE(fx.tap->find_stamp(1, 0, TapDirection::kAtoB).has_value());
  EXPECT_TRUE(fx.tap->find_stamp(1, 1, TapDirection::kAtoB).has_value());
  EXPECT_FALSE(fx.tap->find_stamp(1, 2, TapDirection::kAtoB).has_value());
  EXPECT_FALSE(fx.tap->find_stamp(1, 0, TapDirection::kBtoA).has_value());
}

}  // namespace
}  // namespace steelnet::tap
