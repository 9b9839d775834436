#include "sdn/sdn_switch.hpp"

#include <gtest/gtest.h>

#include "net/host_node.hpp"
#include "sim/simulator.hpp"

namespace steelnet::sdn {
namespace {

using namespace steelnet::sim::literals;

struct SdnFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  SdnSwitchNode* sw;
  std::vector<net::HostNode*> hosts;

  explicit SdnFixture(std::size_t n_hosts = 3) {
    sw = &network.add_node<SdnSwitchNode>("sdn");
    for (std::size_t i = 0; i < n_hosts; ++i) {
      // Appended: GCC 12 at -O3 warns -Wrestrict inside libstdc++ on
      // `"h" + std::to_string(i)`.
      std::string name = "h";
      name += std::to_string(i);
      auto& h = network.add_node<net::HostNode>(name, net::MacAddress{i + 1});
      network.connect(h.id(), 0, sw->id(), static_cast<net::PortId>(i));
      hosts.push_back(&h);
    }
  }

  /// Installs a match-all rule with `actions`.
  EntryId install(ActionList actions) {
    if (sw->pipeline().table_count() == 0) {
      sw->pipeline().add_table(Table("t", {{FieldKind::kInPort, 0}}));
    }
    TableEntry e;
    e.values = {0};
    e.masks = {0};
    e.actions = std::move(actions);
    return sw->pipeline().table(0).add_entry(std::move(e));
  }

  net::Frame frame_to(std::uint64_t dst) {
    net::Frame f;
    f.dst = net::MacAddress{dst};
    f.payload.resize(46);
    return f;
  }
};

TEST(SdnSwitch, EmptyPipelineDropsEverything) {
  SdnFixture fx;
  int got = 0;
  fx.hosts[1]->set_receiver([&](net::Frame, sim::SimTime) { ++got; });
  fx.hosts[0]->send(fx.frame_to(2));
  fx.simulator.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(fx.sw->counters().dropped, 1u);
  EXPECT_EQ(fx.sw->counters().frames_in, 1u);
}

TEST(SdnSwitch, ForwardRuleDelivers) {
  SdnFixture fx;
  fx.install({ActionPrimitive::set_egress(1)});
  int got = 0;
  fx.hosts[1]->set_receiver([&](net::Frame, sim::SimTime) { ++got; });
  fx.hosts[0]->send(fx.frame_to(2));
  fx.simulator.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(fx.sw->counters().frames_out, 1u);
}

TEST(SdnSwitch, PipelineLatencyApplied) {
  SdnFixture fx;
  fx.install({ActionPrimitive::set_egress(1)});
  sim::SimTime at;
  fx.hosts[1]->set_receiver([&](net::Frame, sim::SimTime t) { at = t; });
  fx.hosts[0]->send(fx.frame_to(2));
  fx.simulator.run();
  // 672 ser + 500 prop + 800 pipeline + 672 ser + 500 prop.
  EXPECT_EQ(at.nanos(), 672 + 500 + 800 + 672 + 500);
}

TEST(SdnSwitch, MirrorWithDstPassesNicFilter) {
  SdnFixture fx;
  fx.install({ActionPrimitive::set_egress(1),
              ActionPrimitive::add_mirror_with_dst(
                  2, fx.hosts[2]->mac())});
  int direct = 0, mirrored = 0;
  fx.hosts[1]->set_receiver([&](net::Frame, sim::SimTime) { ++direct; });
  fx.hosts[2]->set_receiver([&](net::Frame, sim::SimTime) { ++mirrored; });
  fx.hosts[0]->send(fx.frame_to(2));
  fx.simulator.run();
  EXPECT_EQ(direct, 1);
  EXPECT_EQ(mirrored, 1);  // NIC filter passed thanks to the dst rewrite
}

TEST(SdnSwitch, PlainMirrorBlockedByNicFilter) {
  SdnFixture fx;
  fx.install({ActionPrimitive::set_egress(1),
              ActionPrimitive::add_mirror(2)});
  int mirrored = 0;
  fx.hosts[2]->set_receiver([&](net::Frame, sim::SimTime) { ++mirrored; });
  fx.hosts[0]->send(fx.frame_to(2));
  fx.simulator.run();
  EXPECT_EQ(mirrored, 0);
  EXPECT_EQ(fx.hosts[2]->counters().filtered, 1u);
}

TEST(SdnSwitch, TransformedMirrorRewritesCopyOnly) {
  SdnFixture fx;
  fx.install({ActionPrimitive::set_egress(1),
              ActionPrimitive::add_mirror_transformed(
                  2, fx.hosts[2]->mac(), 0, {0xEE})});
  std::uint8_t direct_byte = 0, mirror_byte = 0;
  fx.hosts[1]->set_receiver(
      [&](net::Frame f, sim::SimTime) { direct_byte = f.payload[0]; });
  fx.hosts[2]->set_receiver(
      [&](net::Frame f, sim::SimTime) { mirror_byte = f.payload[0]; });
  auto f = fx.frame_to(2);
  f.payload[0] = 0x11;
  fx.hosts[0]->send(std::move(f));
  fx.simulator.run();
  EXPECT_EQ(direct_byte, 0x11);
  EXPECT_EQ(mirror_byte, 0xEE);
}

TEST(SdnSwitch, PuntIsCountedAndNotForwarded) {
  SdnFixture fx;
  fx.install({ActionPrimitive::punt(), ActionPrimitive::drop()});
  int got = 0;
  for (net::HostNode* h : fx.hosts) {
    h->set_receiver([&](net::Frame, sim::SimTime) { ++got; });
  }
  fx.hosts[1]->send(fx.frame_to(1));
  fx.simulator.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(fx.sw->counters().punted, 1u);
  EXPECT_EQ(fx.sw->counters().dropped, 1u);
  EXPECT_EQ(fx.sw->counters().frames_out, 0u);
}

TEST(SdnSwitch, InspectorSeesEverythingBeforePipeline) {
  SdnFixture fx;
  // No rules: everything drops -- the inspector must still see frames.
  fx.sw->pipeline().add_table(Table("t", {{FieldKind::kInPort, 0}}));
  int inspected = 0;
  fx.sw->set_inspector(
      [&](const net::Frame&, net::PortId) { ++inspected; });
  fx.hosts[0]->send(fx.frame_to(2));
  fx.hosts[1]->send(fx.frame_to(3));
  fx.simulator.run();
  EXPECT_EQ(inspected, 2);
}

TEST(SdnSwitch, InjectEmitsControlPlaneFrame) {
  SdnFixture fx;
  int got = 0;
  net::MacAddress src_seen;
  fx.hosts[2]->set_receiver([&](net::Frame f, sim::SimTime) {
    ++got;
    src_seen = f.src;
  });
  net::Frame crafted;
  crafted.dst = fx.hosts[2]->mac();
  crafted.src = net::MacAddress{0xFEED};  // impersonation is the point
  crafted.payload.resize(46);
  fx.sw->inject(std::move(crafted), 2);
  fx.simulator.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(src_seen, net::MacAddress{0xFEED});
  EXPECT_EQ(fx.sw->counters().injected, 1u);
}

TEST(SdnSwitch, RuleUpdateTakesEffectForInFlightTraffic) {
  SdnFixture fx;
  const auto id = fx.install({ActionPrimitive::set_egress(1)});
  int to1 = 0, to2 = 0;
  fx.hosts[1]->set_receiver([&](net::Frame f, sim::SimTime) {
    (void)f;
    ++to1;
  });
  fx.hosts[2]->set_receiver([&](net::Frame, sim::SimTime) { ++to2; });
  // Redirect to host 2 (with dst rewrite so the filter passes) mid-run.
  for (int i = 0; i < 10; ++i) {
    fx.simulator.schedule_at(sim::microseconds(10 * i), [&fx] {
      fx.hosts[0]->send(fx.frame_to(2));
    });
  }
  fx.simulator.schedule_at(sim::microseconds(45), [&] {
    fx.sw->pipeline().table(0).set_actions(
        id, {ActionPrimitive::set_dst(fx.hosts[2]->mac()),
             ActionPrimitive::set_egress(2)});
  });
  fx.simulator.run();
  EXPECT_EQ(to1 + to2, 10);
  EXPECT_GT(to1, 0);
  EXPECT_GT(to2, 0);
}

}  // namespace
}  // namespace steelnet::sdn
