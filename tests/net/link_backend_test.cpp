// The link-layer driver contract: typed connect() bit-rate guards, the
// scriptable FakeBackend (drop/rate/flight-time overrides consumed in
// transmit order, estimates never consuming), and the LossyRadioBackend
// (configuration validation, binding rules, the association/roaming state
// machine, and seeded per-frame determinism).
#include "net/link_backend.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fake_backend.hpp"
#include "net/host_node.hpp"
#include "net/network.hpp"
#include "net/radio_backend.hpp"
#include "sim/simulator.hpp"

namespace steelnet::net {
namespace {

using namespace steelnet::sim::literals;

Frame make_frame(MacAddress dst, std::size_t payload = 46) {
  Frame f;
  f.dst = dst;
  f.payload.resize(payload);
  return f;
}

struct BackendHosts {
  sim::Simulator sim;
  Network net{sim};
  HostNode* a = nullptr;
  HostNode* b = nullptr;
  std::vector<sim::SimTime> rx;

  explicit BackendHosts(LinkParams params = {}, LinkBackend* backend = nullptr) {
    a = &net.add_node<HostNode>("a", MacAddress{1});
    b = &net.add_node<HostNode>("b", MacAddress{2});
    net.connect(a->id(), 0, b->id(), 0, params, backend);
    b->set_receiver([this](Frame, sim::SimTime at) { rx.push_back(at); });
  }
};

// ---------------------------------------------------------------------
// connect() bit-rate guards (the PR's zero-rate regression).

TEST(LinkGuards, ConnectRejectsZeroBitRate) {
  sim::Simulator sim;
  Network net{sim};
  auto& a = net.add_node<HostNode>("a", MacAddress{1});
  auto& b = net.add_node<HostNode>("b", MacAddress{2});
  try {
    net.connect(a.id(), 0, b.id(), 0, LinkParams{0, 500_ns});
    FAIL() << "zero bit rate must not connect";
  } catch (const LinkError& e) {
    EXPECT_EQ(e.code(), LinkErrorCode::kZeroBitRate);
  }
  // The failed connect left no half-attached channel behind.
  EXPECT_FALSE(net.has_channel(a.id(), 0));
  EXPECT_FALSE(net.has_channel(b.id(), 0));
}

TEST(LinkGuards, ConnectRejectsAbsurdlySlowRate) {
  sim::Simulator sim;
  Network net{sim};
  auto& a = net.add_node<HostNode>("a", MacAddress{1});
  auto& b = net.add_node<HostNode>("b", MacAddress{2});
  try {
    net.connect(a.id(), 0, b.id(), 0, LinkParams{500, 500_ns});
    FAIL() << "a 500 bit/s link overflows SimTime serialization";
  } catch (const LinkError& e) {
    EXPECT_EQ(e.code(), LinkErrorCode::kBitRateTooLow);
  }
  // Exactly kMinLinkBitRate is the slowest accepted link.
  net.connect(a.id(), 0, b.id(), 0, LinkParams{kMinLinkBitRate, 500_ns});
  EXPECT_EQ(net.channel_rate(a.id(), 0), kMinLinkBitRate);
}

TEST(LinkGuards, LinkErrorIsASimError) {
  // Pre-existing catch sites that only know sim::SimError keep working.
  sim::Simulator sim;
  Network net{sim};
  auto& a = net.add_node<HostNode>("a", MacAddress{1});
  auto& b = net.add_node<HostNode>("b", MacAddress{2});
  EXPECT_THROW(net.connect(a.id(), 0, b.id(), 0, LinkParams{0, 500_ns}),
               sim::SimError);
}

TEST(LinkGuards, DefaultBackendIsWired) {
  BackendHosts t;
  EXPECT_STREQ(t.net.channel_backend(t.a->id(), 0).kind(), "wired");
}

// ---------------------------------------------------------------------
// FakeBackend: scripted impairment, consumed in transmit order.

TEST(FakeBackend, ScriptedDropRateAndFlightTime) {
  FakeBackend fake;
  // Frame 1 dies; frame 2 is an ideal wire; frame 3 crawls at 100 Mbit/s
  // with 1 us of extra flight time; frame 4 onward falls back to wired.
  FakeAction kill;
  kill.drop = true;
  FakeAction crawl;
  crawl.rate_override = 100'000'000;
  crawl.extra_propagation = sim::microseconds(1);
  fake.script_global({kill, {}, crawl});
  BackendHosts t{LinkParams{1'000'000'000, 500_ns}, &fake};
  for (int i = 0; i < 4; ++i) t.a->send(make_frame(MacAddress{2}));
  t.sim.run();

  // The dropped frame still occupied the wire for its 672 ns: frame 2
  // starts at 672 ns (rx 1844 ns), frame 3 at 1344 ns for 6720 ns of
  // serialization plus 1 us of extra flight (rx 9564 ns), frame 4 back at
  // wire speed from 8064 ns -- overtaking frame 3's stretched flight.
  ASSERT_EQ(t.rx.size(), 3u);
  EXPECT_EQ(t.rx[0], 1844_ns);
  EXPECT_EQ(t.rx[1], 9236_ns);
  EXPECT_EQ(t.rx[2], 9564_ns);

  EXPECT_EQ(t.net.counters().frames_offered, 4u);
  EXPECT_EQ(t.net.counters().frames_delivered, 3u);
  EXPECT_EQ(t.net.counters().frames_dropped_backend, 1u);
  EXPECT_EQ(fake.frames_seen(), 4u);
  EXPECT_EQ(fake.frames_dropped(), 1u);
  EXPECT_EQ(fake.pending_actions(), 0u);
}

TEST(FakeBackend, PerPortScriptBeatsGlobal) {
  FakeBackend fake;
  BackendHosts t{LinkParams{}, &fake};
  FakeAction kill;
  kill.drop = true;
  kill.cause = "fake_port_drop";
  fake.script(t.a->id(), 0, {kill});
  fake.script_global({{}, {}});
  t.a->send(make_frame(MacAddress{2}));
  t.b->send(make_frame(MacAddress{1}));
  t.sim.run();
  // a's frame consumed the per-port drop; b's direction has no per-port
  // script and drew a pass from the global one.
  EXPECT_TRUE(t.rx.empty());
  EXPECT_EQ(t.net.counters().frames_delivered, 1u);
  EXPECT_EQ(t.net.counters().frames_dropped_backend, 1u);
  EXPECT_EQ(fake.pending_actions(), 1u);
}

TEST(FakeBackend, SerializationEstimatePeeksWithoutConsuming) {
  FakeBackend fake;
  BackendHosts t{LinkParams{1'000'000'000, 0_ns}, &fake};
  FakeAction crawl;
  crawl.rate_override = 100'000'000;
  fake.script(t.a->id(), 0, {crawl});
  const Frame probe = make_frame(MacAddress{2});
  // The estimate reflects the pending override and may be asked any
  // number of times without eating the scripted action.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(t.net.serialization_estimate(t.a->id(), 0, probe), 6720_ns);
  }
  EXPECT_EQ(fake.pending_actions(), 1u);
  EXPECT_EQ(fake.frames_seen(), 0u);
}

// ---------------------------------------------------------------------
// LossyRadioBackend: configuration and binding rules.

RadioConfig small_radio(double snr_offset_db = 0.0) {
  RadioConfig cfg;
  cfg.aps.push_back({"ap0", 0.0, 0.0});
  cfg.rates = {{2.0, 6'000'000},
               {9.0, 24'000'000},
               {18.0, 54'000'000}};
  cfg.snr_offset_db = snr_offset_db;
  return cfg;
}

std::vector<RadioWaypoint> parked_at(double x, double y) {
  return {{sim::SimTime::zero(), x, y}};
}

LinkErrorCode code_of(RadioConfig cfg) {
  try {
    LossyRadioBackend backend{std::move(cfg)};
  } catch (const LinkError& e) {
    return e.code();
  }
  ADD_FAILURE() << "config unexpectedly accepted";
  return LinkErrorCode::kZeroBitRate;
}

TEST(LossyRadio, ConstructorRejectsBadConfig) {
  auto no_aps = small_radio();
  no_aps.aps.clear();
  EXPECT_EQ(code_of(std::move(no_aps)), LinkErrorCode::kBadRadioConfig);

  auto no_rates = small_radio();
  no_rates.rates.clear();
  EXPECT_EQ(code_of(std::move(no_rates)), LinkErrorCode::kBadRadioConfig);

  auto slow_rung = small_radio();
  slow_rung.rates[0].bits_per_second = kMinLinkBitRate - 1;
  EXPECT_EQ(code_of(std::move(slow_rung)), LinkErrorCode::kBadRadioConfig);

  auto unsorted = small_radio();
  std::swap(unsorted.rates[0], unsorted.rates[2]);
  EXPECT_EQ(code_of(std::move(unsorted)), LinkErrorCode::kBadRadioConfig);
}

TEST(LossyRadio, StationValidationAndBinding) {
  LossyRadioBackend radio{small_radio()};
  EXPECT_THROW(radio.add_station("empty", {}), LinkError);
  const std::size_t st = radio.add_station("agv", parked_at(10.0, 0.0));

  radio.bind_link(1, 0, 2, 0, st);
  try {
    radio.bind_link(1, 0, 3, 0, st);
    FAIL() << "rebinding a bound endpoint must fail";
  } catch (const LinkError& e) {
    EXPECT_EQ(e.code(), LinkErrorCode::kDuplicateBinding);
  }
  try {
    radio.bind_link(4, 0, 5, 0, st + 1);
    FAIL() << "binding an unknown station must fail";
  } catch (const LinkError& e) {
    EXPECT_EQ(e.code(), LinkErrorCode::kUnboundStation);
  }
}

TEST(LossyRadio, ConnectRequiresABoundStation) {
  sim::Simulator sim;
  Network net{sim};
  auto& a = net.add_node<HostNode>("a", MacAddress{1});
  auto& b = net.add_node<HostNode>("b", MacAddress{2});
  LossyRadioBackend radio{small_radio()};
  try {
    net.connect(a.id(), 0, b.id(), 0, LinkParams{}, &radio);
    FAIL() << "connect over an unbound radio link must fail";
  } catch (const LinkError& e) {
    EXPECT_EQ(e.code(), LinkErrorCode::kUnboundStation);
  }
}

// ---------------------------------------------------------------------
// LossyRadioBackend: the association/roaming state machine and the
// seeded per-frame channel. Driven directly (no Network) -- the backend
// contract is plain (node, port, frame, now) calls in transmit order.

TEST(LossyRadio, AssociationOpensAfterTheHandshake) {
  LossyRadioBackend radio{small_radio()};
  const std::size_t st = radio.add_station("agv", parked_at(10.0, 0.0));
  radio.bind_link(1, 0, 2, 0, st);
  const Frame f = make_frame(MacAddress{2});
  const LinkParams params{};

  // t=0 lands inside the association handshake (kAssocDelay = 2 ms):
  // the scan epoch associated the station but the air is not ready yet.
  const LinkTxPlan during = radio.plan_transmit(1, 0, f, params, 0_ns);
  EXPECT_FALSE(during.survives);
  EXPECT_STREQ(during.cause, "radio_handoff");

  // Well past the handshake at ~44 dB mean SNR the top rung carries the
  // frame with essentially zero error probability.
  const LinkTxPlan after = radio.plan_transmit(1, 0, f, params, 100_ms);
  EXPECT_TRUE(after.survives);
  EXPECT_EQ(after.bits_per_second, 54'000'000u);

  EXPECT_EQ(radio.counters().frames_planned, 2u);
  EXPECT_EQ(radio.counters().dropped_handoff, 1u);
  EXPECT_EQ(radio.counters().assoc_events, 1u);
  const auto status = radio.station_status(st);
  EXPECT_TRUE(status.associated);
  EXPECT_EQ(status.ap, 0u);
}

TEST(LossyRadio, BelowTheAssociationFloorNothingFlies) {
  // -45 dB offset pushes the mean SNR below kAssocMinSnrDb: the station
  // never associates and every frame dies to "radio_no_assoc".
  LossyRadioBackend radio{small_radio(-45.0)};
  const std::size_t st = radio.add_station("agv", parked_at(10.0, 0.0));
  radio.bind_link(1, 0, 2, 0, st);
  const Frame f = make_frame(MacAddress{2});
  for (int i = 0; i < 5; ++i) {
    const LinkTxPlan plan =
        radio.plan_transmit(1, 0, f, LinkParams{}, sim::milliseconds(i * 10));
    EXPECT_FALSE(plan.survives);
    EXPECT_STREQ(plan.cause, "radio_no_assoc");
  }
  EXPECT_EQ(radio.counters().dropped_no_assoc, 5u);
  EXPECT_FALSE(radio.station_status(st).associated);
}

TEST(LossyRadio, ShuttlingStationRoamsBetweenAps) {
  RadioConfig cfg = small_radio();
  cfg.aps.push_back({"ap1", 20.0, 0.0});
  cfg.roam_hysteresis_db = 2.0;
  LossyRadioBackend radio{cfg};
  // One full shuttle: near ap0 for the first half, near ap1 afterwards.
  const std::size_t st = radio.add_station(
      "agv", {{sim::SimTime::zero(), 2.0, 0.0},
              {sim::milliseconds(500), 18.0, 0.0},
              {sim::seconds(1), 18.0, 0.0}});
  radio.bind_link(1, 0, 2, 0, st);
  const Frame f = make_frame(MacAddress{2});
  for (int i = 0; i <= 100; ++i) {
    (void)radio.plan_transmit(1, 0, f, LinkParams{},
                              sim::milliseconds(i * 10));
  }
  const auto status = radio.station_status(st);
  EXPECT_TRUE(status.associated);
  EXPECT_EQ(status.ap, 1u);  // ended up on the far AP
  EXPECT_EQ(status.roam_events, 1u);
  EXPECT_EQ(radio.counters().roam_events, 1u);
  EXPECT_GE(radio.counters().dropped_handoff, 1u);  // the dead-air window
}

TEST(LossyRadio, SameSeedReplaysTheExactChannel) {
  const auto run = [](std::uint64_t seed) {
    RadioConfig cfg = small_radio(-32.0);  // ~12 dB: FER territory
    cfg.seed = seed;
    LossyRadioBackend radio{cfg};
    radio.bind_link(1, 0, 2, 0,
                    radio.add_station("agv", parked_at(10.0, 0.0)));
    const Frame f = make_frame(MacAddress{2});
    for (int i = 0; i < 400; ++i) {
      (void)radio.plan_transmit(1, 0, f, LinkParams{},
                                sim::milliseconds(10 + i));
    }
    return radio.counters();
  };
  const RadioCounters one = run(7);
  const RadioCounters two = run(7);
  EXPECT_EQ(one.dropped_snr, two.dropped_snr);
  EXPECT_EQ(one.rate_bps_total, two.rate_bps_total);
  EXPECT_EQ(one.snr_millidb_total, two.snr_millidb_total);
  EXPECT_EQ(one.snr_millidb_min, two.snr_millidb_min);
  EXPECT_EQ(one.snr_millidb_max, two.snr_millidb_max);
  // At ~12 dB the logistic FER is 0.5: losses must actually occur, and a
  // different seed must draw a different channel.
  EXPECT_GT(one.dropped_snr, 0u);
  EXPECT_LT(one.dropped_snr, 400u);
  EXPECT_NE(one.snr_millidb_total, run(8).snr_millidb_total);
}

}  // namespace
}  // namespace steelnet::net
