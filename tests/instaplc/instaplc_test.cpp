// The InstaPLC failover scenario of §4 / Fig. 5, end to end.
#include "instaplc/instaplc.hpp"

#include <gtest/gtest.h>

#include "profinet/controller.hpp"
#include "profinet/io_device.hpp"
#include "sim/simulator.hpp"

namespace steelnet::instaplc {
namespace {

using namespace steelnet::sim::literals;

struct InstaFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  sdn::SdnSwitchNode* sw;
  net::HostNode* dev_host;
  net::HostNode* vplc1_host;
  net::HostNode* vplc2_host;
  std::unique_ptr<profinet::IoDevice> device;
  std::unique_ptr<profinet::CyclicController> vplc1;
  std::unique_ptr<profinet::CyclicController> vplc2;
  std::unique_ptr<InstaPlcApp> app;

  static constexpr net::PortId kDevPort = 0;
  static constexpr net::PortId kV1Port = 1;
  static constexpr net::PortId kV2Port = 2;

  explicit InstaFixture(InstaPlcConfig cfg = {.device_port = kDevPort,
                                              .switchover_cycles = 3}) {
    sw = &network.add_node<sdn::SdnSwitchNode>("sdn");
    dev_host = &network.add_node<net::HostNode>("dev", net::MacAddress{0xD});
    vplc1_host = &network.add_node<net::HostNode>("v1", net::MacAddress{0x1});
    vplc2_host = &network.add_node<net::HostNode>("v2", net::MacAddress{0x2});
    network.connect(dev_host->id(), 0, sw->id(), kDevPort);
    network.connect(vplc1_host->id(), 0, sw->id(), kV1Port);
    network.connect(vplc2_host->id(), 0, sw->id(), kV2Port);
    device = std::make_unique<profinet::IoDevice>(*dev_host);
    app = std::make_unique<InstaPlcApp>(*sw, cfg);

    profinet::ControllerConfig c1;
    c1.ar_id = 1;
    c1.device_mac = dev_host->mac();
    profinet::ParamRecord rec;
    rec.record_index = 3;
    rec.data = {9, 9};
    c1.records.push_back(rec);
    vplc1 = std::make_unique<profinet::CyclicController>(*vplc1_host, c1);

    profinet::ControllerConfig c2 = c1;
    c2.ar_id = 2;
    vplc2 = std::make_unique<profinet::CyclicController>(*vplc2_host, c2);
  }
};

TEST(InstaPlc, FirstConnectorBecomesPrimary) {
  InstaFixture fx;
  fx.vplc1->connect();
  fx.simulator.run_until(50_ms);
  ASSERT_TRUE(fx.app->primary().has_value());
  EXPECT_EQ(fx.app->primary()->mac, fx.vplc1_host->mac());
  EXPECT_EQ(fx.app->primary()->ar_id, 1);
  EXPECT_EQ(fx.vplc1->state(), profinet::ControllerState::kRunning);
  EXPECT_EQ(fx.device->state(), profinet::DeviceState::kDataExchange);
  EXPECT_FALSE(fx.app->secondary().has_value());
}

TEST(InstaPlc, TwinLearnsFromPrimaryExchange) {
  InstaFixture fx;
  fx.vplc1->connect();
  fx.simulator.run_until(50_ms);
  const auto& twin = fx.app->twin();
  EXPECT_TRUE(twin.ready());
  EXPECT_EQ(twin.device_id(), 1u);
  EXPECT_EQ(twin.cycle_time_us(), 2000u);
  EXPECT_EQ(twin.watchdog_factor(), 3);
  ASSERT_TRUE(twin.learned_records().contains(3));
  EXPECT_EQ(twin.learned_records().at(3), (std::vector<std::uint8_t>{9, 9}));
}

TEST(InstaPlc, SecondaryConnectsToTwinNotDevice) {
  InstaFixture fx;
  fx.vplc1->connect();
  fx.simulator.run_until(50_ms);
  fx.vplc2->connect();
  fx.simulator.run_until(100_ms);
  // The secondary believes it is running against the real device.
  EXPECT_EQ(fx.vplc2->state(), profinet::ControllerState::kRunning);
  ASSERT_TRUE(fx.app->secondary().has_value());
  EXPECT_EQ(fx.app->secondary()->ar_id, 2);
  // But the device saw exactly one AR and zero rejected connects: the
  // twin absorbed the whole second establishment.
  EXPECT_EQ(fx.device->active_ar(), 1);
  EXPECT_EQ(fx.device->counters().rejected_connects, 0u);
  EXPECT_EQ(fx.app->twin().secondary_ar(), 2);
}

TEST(InstaPlc, SecondaryReceivesDeviceInputsViaMirror) {
  InstaFixture fx;
  fx.vplc1->connect();
  fx.simulator.run_until(50_ms);
  fx.vplc2->connect();
  const auto rx_before = fx.vplc2->counters().cyclic_rx;
  fx.simulator.run_until(200_ms);
  // Rule (3): both vPLCs know the exact state of the I/O.
  EXPECT_GT(fx.vplc2->counters().cyclic_rx, rx_before + 30);
  EXPECT_GT(fx.vplc1->counters().cyclic_rx, 30u);
  EXPECT_EQ(fx.vplc2->state(), profinet::ControllerState::kRunning);
}

TEST(InstaPlc, SecondaryCyclicFramesDroppedBeforeSwitchover) {
  InstaFixture fx;
  fx.vplc1->connect();
  fx.simulator.run_until(50_ms);
  fx.vplc2->connect();
  fx.simulator.run_until(200_ms);
  // The device only ever saw the primary's AR; secondary cyclic counted
  // at the switch but never delivered.
  EXPECT_GT(fx.app->stats().secondary_cyclic, 30u);
  EXPECT_EQ(fx.device->active_ar(), 1);
  EXPECT_FALSE(fx.app->switched_over());
}

TEST(InstaPlc, SwitchoverOnPrimarySilence) {
  InstaFixture fx;
  fx.vplc1->connect();
  fx.simulator.run_until(50_ms);
  fx.vplc2->connect();
  fx.simulator.run_until(500_ms);

  fx.vplc1->stop();
  fx.simulator.run_until(1_s);
  ASSERT_TRUE(fx.app->switched_over());
  // Switchover detected within ~switchover_cycles+1 I/O cycles.
  const auto detect =
      *fx.app->stats().switchover_at - 500_ms;
  EXPECT_LE(detect, 10_ms);
  // Device stayed in (or returned to) data exchange under vPLC2.
  EXPECT_EQ(fx.device->state(), profinet::DeviceState::kDataExchange);
  // Inputs flow to the secondary.
  const auto rx = fx.vplc2->counters().cyclic_rx;
  fx.simulator.run_until(1500_ms);
  EXPECT_GT(fx.vplc2->counters().cyclic_rx, rx + 100);
}

TEST(InstaPlc, DeviceNeverTripsWatchdogAcrossSwitchover) {
  // The whole point: detection (3 cycles) + data-plane rule flip beats
  // the device's own watchdog (3 cycles) because the secondary is
  // already synchronized and transmitting.
  InstaFixture fx;
  fx.vplc1->connect();
  fx.simulator.run_until(50_ms);
  fx.vplc2->connect();
  fx.simulator.run_until(500_ms);
  fx.vplc1->stop();
  fx.simulator.run_until(3_s);
  EXPECT_TRUE(fx.app->switched_over());
  EXPECT_LE(fx.device->counters().watchdog_trips, 1u);
  EXPECT_EQ(fx.device->state(), profinet::DeviceState::kDataExchange);
}

TEST(InstaPlc, ObserverSeesTimeline) {
  InstaFixture fx;
  std::vector<InstaPlcEvent> events;
  fx.app->set_observer(
      [&](InstaPlcEvent e, sim::SimTime) { events.push_back(e); });
  fx.vplc1->connect();
  fx.simulator.run_until(200_ms);
  fx.vplc2->connect();
  fx.simulator.run_until(500_ms);
  fx.vplc1->stop();
  fx.simulator.run_until(1_s);
  const auto count = [&](InstaPlcEvent e) {
    return std::count(events.begin(), events.end(), e);
  };
  EXPECT_GT(count(InstaPlcEvent::kPrimaryCyclic), 100);
  EXPECT_GT(count(InstaPlcEvent::kSecondaryCyclic), 100);
  EXPECT_GT(count(InstaPlcEvent::kFromDevice), 200);
  EXPECT_GT(count(InstaPlcEvent::kToDevice), 300);
  EXPECT_EQ(count(InstaPlcEvent::kSwitchover), 1);
}

TEST(InstaPlc, NoSwitchoverWithoutSecondary) {
  InstaFixture fx;
  fx.vplc1->connect();
  fx.simulator.run_until(100_ms);
  fx.vplc1->stop();
  fx.simulator.run_until(1_s);
  EXPECT_FALSE(fx.app->switched_over());
  // Device trips its watchdog: no standby existed to take over.
  EXPECT_GE(fx.device->counters().watchdog_trips, 1u);
}

TEST(InstaPlc, ArIdRewrittenForDevice) {
  InstaFixture fx;
  fx.vplc1->connect();
  fx.simulator.run_until(50_ms);
  fx.vplc2->connect();
  fx.simulator.run_until(500_ms);
  fx.vplc1->stop();
  fx.simulator.run_until(2_s);
  // vPLC2 talks AR 2; the device only has AR 1 open. The data plane
  // rewrites in flight -- the device keeps exchanging under AR 1.
  EXPECT_EQ(fx.device->active_ar(), 1);
  EXPECT_EQ(fx.device->state(), profinet::DeviceState::kDataExchange);
  EXPECT_EQ(fx.vplc2->config().ar_id, 2);
}

}  // namespace
}  // namespace steelnet::instaplc
