#include <gtest/gtest.h>

#include "net/switch_node.hpp"
#include "profinet/controller.hpp"
#include "profinet/io_device.hpp"
#include "sim/simulator.hpp"

namespace steelnet::profinet {
namespace {

using namespace steelnet::sim::literals;

/// Controller and device on one switch -- the minimal production cell.
struct CellFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::HostNode* plc_host;
  net::HostNode* dev_host;
  std::unique_ptr<CyclicController> controller;
  std::unique_ptr<IoDevice> device;

  explicit CellFixture(ControllerConfig cfg = {},
                       IoDeviceConfig dev_cfg = {}) {
    auto& sw = network.add_node<net::SwitchNode>("sw");
    plc_host = &network.add_node<net::HostNode>("plc", net::MacAddress{0xA});
    dev_host = &network.add_node<net::HostNode>("dev", net::MacAddress{0xB});
    network.connect(plc_host->id(), 0, sw.id(), 0);
    network.connect(dev_host->id(), 0, sw.id(), 1);
    cfg.device_mac = dev_host->mac();
    controller = std::make_unique<CyclicController>(*plc_host, cfg);
    device = std::make_unique<IoDevice>(*dev_host, dev_cfg);
  }
};

TEST(Exchange, ConnectEstablishesDataExchange) {
  CellFixture fx;
  EXPECT_EQ(fx.controller->state(), ControllerState::kIdle);
  fx.controller->connect();
  fx.simulator.run_until(50_ms);
  EXPECT_EQ(fx.controller->state(), ControllerState::kRunning);
  EXPECT_EQ(fx.controller->counters().connects_sent, 1u);
  EXPECT_EQ(fx.device->state(), DeviceState::kDataExchange);
  EXPECT_EQ(fx.device->active_ar(), 1);
}

TEST(Exchange, CyclicDataFlowsBothWays) {
  CellFixture fx;
  int inputs_seen = 0;
  std::vector<std::uint8_t> outputs_seen;
  fx.controller->set_input_handler(
      [&](const std::vector<std::uint8_t>&) { ++inputs_seen; });
  fx.controller->set_output_provider([](std::size_t n) {
    return std::vector<std::uint8_t>(n, 0x5a);
  });
  fx.device->set_output_handler(
      [&](const std::vector<std::uint8_t>& o, bool) { outputs_seen = o; });
  fx.controller->connect();
  fx.simulator.run_until(100_ms);
  // ~50 cycles of 2ms in 100ms.
  EXPECT_GT(inputs_seen, 30);
  EXPECT_GT(fx.controller->counters().cyclic_tx, 30u);
  EXPECT_GT(fx.device->counters().cyclic_rx, 30u);
  ASSERT_FALSE(outputs_seen.empty());
  EXPECT_EQ(outputs_seen[0], 0x5a);
}

TEST(Exchange, ParamRecordsDelivered) {
  ControllerConfig cfg;
  ParamRecord rec;
  rec.record_index = 7;
  rec.data = {1, 2, 3};
  cfg.records.push_back(rec);
  CellFixture fx{cfg};
  fx.controller->connect();
  fx.simulator.run_until(20_ms);
  ASSERT_TRUE(fx.device->param_records().contains(7));
  EXPECT_EQ(fx.device->param_records().at(7),
            (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Exchange, WatchdogTripsWhenControllerStops) {
  CellFixture fx;
  bool run_state = true;
  fx.device->set_output_handler(
      [&](const std::vector<std::uint8_t>&, bool run) { run_state = run; });
  fx.controller->connect();
  fx.simulator.run_until(50_ms);
  ASSERT_EQ(fx.device->state(), DeviceState::kDataExchange);

  fx.controller->stop();
  fx.simulator.run_until(100_ms);
  EXPECT_EQ(fx.device->state(), DeviceState::kWatchdogExpired);
  EXPECT_EQ(fx.device->counters().watchdog_trips, 1u);
  EXPECT_GE(fx.device->counters().alarms_sent, 1u);
  EXPECT_FALSE(run_state);  // outputs driven to safe state
}

TEST(Exchange, WatchdogRespectsFactor) {
  // watchdog_factor 3 at 2ms cycle -> must NOT trip within 6ms of silence
  // but must trip soon after.
  CellFixture fx;
  fx.controller->connect();
  fx.simulator.run_until(20_ms);
  fx.controller->stop();
  fx.simulator.run_until(20_ms + 5_ms);
  EXPECT_EQ(fx.device->state(), DeviceState::kDataExchange);
  fx.simulator.run_until(20_ms + 12_ms);
  EXPECT_EQ(fx.device->state(), DeviceState::kWatchdogExpired);
}

TEST(Exchange, AutoResumeAfterWatchdog) {
  CellFixture fx;
  fx.controller->connect();
  fx.simulator.run_until(20_ms);
  fx.controller->stop();
  fx.simulator.run_until(60_ms);
  ASSERT_EQ(fx.device->state(), DeviceState::kWatchdogExpired);
  // A standby adopts the AR and resumes transmission.
  fx.controller->adopt_running(100);
  // stop() set state to kStopped; adopt_running overrides.
  fx.simulator.run_until(100_ms);
  EXPECT_EQ(fx.device->state(), DeviceState::kDataExchange);
}

TEST(Exchange, NoAutoResumeWhenDisabled) {
  IoDeviceConfig dev_cfg;
  dev_cfg.auto_resume = false;
  CellFixture fx{ControllerConfig{}, dev_cfg};
  fx.controller->connect();
  fx.simulator.run_until(20_ms);
  fx.controller->stop();
  fx.simulator.run_until(60_ms);
  ASSERT_EQ(fx.device->state(), DeviceState::kWatchdogExpired);
  fx.controller->adopt_running(100);
  fx.simulator.run_until(100_ms);
  EXPECT_EQ(fx.device->state(), DeviceState::kWatchdogExpired);
}

TEST(Exchange, SecondArRejected) {
  CellFixture fx;
  fx.controller->connect();
  fx.simulator.run_until(20_ms);

  // A second controller targets the same device with another AR.
  auto& sw = dynamic_cast<net::SwitchNode&>(fx.network.node(0));
  auto& host2 = fx.network.add_node<net::HostNode>("plc2",
                                                   net::MacAddress{0xC});
  fx.network.connect(host2.id(), 0, sw.id(), 2);
  ControllerConfig cfg2;
  cfg2.ar_id = 2;
  cfg2.device_mac = fx.dev_host->mac();
  CyclicController second(host2, cfg2);
  second.connect();
  fx.simulator.run_until(60_ms);
  // The rejecting ConnectResp returns the controller to idle at once: it
  // neither waits for a retry nor starts a cyclic exchange.
  EXPECT_EQ(second.state(), ControllerState::kIdle);
  EXPECT_EQ(second.counters().connects_sent, 1u);
  EXPECT_EQ(second.counters().cyclic_tx, 0u);
  EXPECT_GE(fx.device->counters().rejected_connects, 1u);
  // Original exchange unharmed.
  EXPECT_EQ(fx.device->state(), DeviceState::kDataExchange);
  EXPECT_EQ(fx.device->active_ar(), 1);
}

TEST(Exchange, ConnectRetriesThenGivesUp) {
  CellFixture fx;  // its controller is unused here
  // A controller aimed at a MAC nobody owns: the switch floods, every
  // host's NIC filter discards, and the retries run dry.
  ControllerConfig cfg;
  cfg.device_mac = net::MacAddress{0x99};
  auto& sw = dynamic_cast<net::SwitchNode&>(fx.network.node(0));
  auto& host = fx.network.add_node<net::HostNode>("plc-x",
                                                  net::MacAddress{0xD});
  fx.network.connect(host.id(), 0, sw.id(), 3);
  CyclicController lonely(host, cfg);
  lonely.connect();
  fx.simulator.run_until(200_ms);
  EXPECT_EQ(lonely.counters().connects_sent,
            CyclicController::kMaxConnectRetries);
  EXPECT_EQ(lonely.state(), ControllerState::kIdle);
}

TEST(Exchange, ControllerDetectsDeviceLoss) {
  CellFixture fx;
  fx.controller->connect();
  fx.simulator.run_until(20_ms);
  ASSERT_EQ(fx.controller->state(), ControllerState::kRunning);
  // Kill the device side by detaching its receiver.
  fx.device.reset();
  fx.dev_host->set_receiver(nullptr);
  fx.simulator.run_until(60_ms);
  EXPECT_EQ(fx.controller->state(), ControllerState::kDeviceLost);
  EXPECT_EQ(fx.controller->counters().device_watchdog_trips, 1u);
}

TEST(Exchange, ReleaseReturnsDeviceToIdle) {
  CellFixture fx;
  fx.controller->connect();
  fx.simulator.run_until(20_ms);
  Release rel;
  rel.ar_id = 1;
  net::Frame f;
  f.dst = fx.dev_host->mac();
  f.ethertype = net::EtherType::kProfinetRt;
  f.payload = encode(Pdu{rel});
  fx.plc_host->send(std::move(f));
  // Controller still sends, but device ignores after release... the
  // device returns to idle and a fresh connect must succeed.
  fx.controller->stop();
  fx.simulator.run_until(40_ms);
  EXPECT_EQ(fx.device->state(), DeviceState::kIdle);
}

}  // namespace
}  // namespace steelnet::profinet
