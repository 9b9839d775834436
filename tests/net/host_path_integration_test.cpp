// Regression: HostPathModel hooks on HostNode actually delay traffic in
// both directions (net declares the interface; host implements it; this
// pins the wiring in between).
#include <gtest/gtest.h>

#include "host/host_path.hpp"
#include "net/host_node.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace steelnet::net {
namespace {

using namespace steelnet::sim::literals;

struct Pair {
  sim::Simulator simulator;
  Network network{simulator};
  HostNode* a;
  HostNode* b;

  Pair() {
    a = &network.add_node<HostNode>("a", MacAddress{1});
    b = &network.add_node<HostNode>("b", MacAddress{2});
    network.connect(a->id(), 0, b->id(), 0,
                    LinkParams{1'000'000'000, 0_ns});
  }

  sim::SimTime one_way() {
    sim::SimTime at;
    b->set_receiver([&](Frame, sim::SimTime t) { at = t; });
    Frame f;
    f.dst = MacAddress{2};
    f.payload.resize(46);
    a->send(std::move(f));
    simulator.run();
    return at;
  }
};

TEST(HostPathIntegration, TxLatencyDelaysEmission) {
  Pair p;
  host::HostPath path(std::make_unique<host::FixedSampler>(0_us),
                      std::make_unique<host::FixedSampler>(10_us));
  p.a->set_host_path(&path);
  EXPECT_EQ(p.one_way(), 10_us + 672_ns);
}

TEST(HostPathIntegration, RxLatencyDelaysDelivery) {
  Pair p;
  host::HostPath path(std::make_unique<host::FixedSampler>(7_us),
                      std::make_unique<host::FixedSampler>(0_us));
  p.b->set_host_path(&path);
  EXPECT_EQ(p.one_way(), 672_ns + 7_us);
}

TEST(HostPathIntegration, IdealPathAddsNothing) {
  Pair p;
  host::HostPath ideal(std::make_unique<host::FixedSampler>(0_us),
                       std::make_unique<host::FixedSampler>(0_us));
  p.a->set_host_path(&ideal);
  p.b->set_host_path(&ideal);
  EXPECT_EQ(p.one_way(), 672_ns);
}

TEST(HostPathIntegration, StochasticPathVariesPerFrame) {
  Pair p;
  auto jittery = host::HostProfile::virtualized_rt(3);
  p.a->set_host_path(jittery.get());
  sim::SampleSet arrivals;
  p.b->set_receiver([&](Frame f, sim::SimTime t) {
    arrivals.add((t - f.created_at).micros());
  });
  for (int i = 0; i < 500; ++i) {
    Frame f;
    f.dst = MacAddress{2};
    f.payload.resize(46);
    p.a->send(std::move(f));
    p.simulator.run();
  }
  EXPECT_EQ(arrivals.count(), 500u);
  EXPECT_GT(arrivals.max(), arrivals.min() + 0.5);  // real variance
}

}  // namespace
}  // namespace steelnet::net
