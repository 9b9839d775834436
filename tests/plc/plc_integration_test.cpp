// Cross-module integration: PLC program -> cyclic protocol -> network ->
// I/O device -> physical process, plus the hardware-redundancy baseline.
#include <gtest/gtest.h>

#include "net/switch_node.hpp"
#include "plc/plc.hpp"
#include "plc/redundancy.hpp"
#include "process/process.hpp"
#include "profinet/io_device.hpp"
#include "sim/simulator.hpp"

namespace steelnet::plc {
namespace {

using namespace steelnet::sim::literals;

/// Runs the belt unconditionally: Q0 (motor) = NOT M0, and marker M0 is
/// never set. (Input bits all map to real sensor bytes, so they are not
/// usable as constants.)
IlProgram motor_on_program() {
  return IlProgram("motor-on", {
      {IlOp::kLdn, Area::kMarker, 0},
      {IlOp::kSt, Area::kOutput, 0},
  });
}

struct PlantFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::HostNode* plc_host;
  net::HostNode* dev_host;
  std::unique_ptr<profinet::CyclicController> controller;
  std::unique_ptr<profinet::IoDevice> device;
  process::Conveyor conveyor{{.length_m = 1.0, .max_speed_mps = 2.0}};
  std::unique_ptr<sim::PeriodicTask> stepper;

  PlantFixture() {
    auto& sw = network.add_node<net::SwitchNode>("sw");
    plc_host = &network.add_node<net::HostNode>("plc", net::MacAddress{0xA});
    dev_host = &network.add_node<net::HostNode>("dev", net::MacAddress{0xB});
    network.connect(plc_host->id(), 0, sw.id(), 0);
    network.connect(dev_host->id(), 0, sw.id(), 1);
    profinet::ControllerConfig cfg;
    cfg.device_mac = dev_host->mac();
    controller = std::make_unique<profinet::CyclicController>(*plc_host, cfg);
    device = std::make_unique<profinet::IoDevice>(*dev_host);
    stepper = process::bind_process(*device, conveyor, simulator);
  }
};

TEST(PlcIntegration, ProgramDrivesPhysicalProcess) {
  PlantFixture fx;
  Plc plc(*fx.controller, motor_on_program());
  // The IL program sets the motor bit (Q0); the speed setpoint lives in
  // output bytes 1..2 (bits 8..23), pre-loaded with 2000 mm/s. scan()
  // never touches those bits, so they persist across cycles.
  const std::uint16_t speed = 2000;
  for (int b = 0; b < 16; ++b) {
    plc.image().outputs[std::size_t(8 + b)] = (speed >> b) & 1;
  }
  plc.start();
  fx.simulator.run_until(2_s);
  EXPECT_GT(plc.scans(), 500u);
  EXPECT_TRUE(fx.conveyor.motor_on());
  EXPECT_GT(fx.conveyor.items_completed(), 2u);
}

TEST(PlcIntegration, WatchdogHaltsPlantWhenPlcDies) {
  PlantFixture fx;
  Plc plc(*fx.controller, motor_on_program());
  const std::uint16_t speed = 2000;
  for (int b = 0; b < 16; ++b) {
    plc.image().outputs[std::size_t(8 + b)] = (speed >> b) & 1;
  }
  plc.start();
  fx.simulator.run_until(1_s);
  ASSERT_TRUE(fx.conveyor.motor_on());
  plc.stop();
  fx.simulator.run_until(1_s + 100_ms);
  EXPECT_FALSE(fx.conveyor.motor_on());  // safe state reached
  const double pos = fx.conveyor.position_m();
  fx.simulator.run_until(3_s);
  EXPECT_DOUBLE_EQ(fx.conveyor.position_m(), pos);  // belt frozen
}

struct RedundantFixture : PlantFixture {
  net::HostNode* standby_host;
  std::unique_ptr<profinet::CyclicController> standby;

  RedundantFixture() {
    auto& sw = dynamic_cast<net::SwitchNode&>(network.node(0));
    standby_host =
        &network.add_node<net::HostNode>("plc-b", net::MacAddress{0xC});
    network.connect(standby_host->id(), 0, sw.id(), 2);
    profinet::ControllerConfig cfg;
    cfg.device_mac = dev_host->mac();
    standby =
        std::make_unique<profinet::CyclicController>(*standby_host, cfg);
  }
};

TEST(PlcIntegration, RedundantPairSwitchesOverWithinVendorWindow) {
  RedundantFixture fx;
  RedundantPlcPair pair(*fx.controller, *fx.standby, fx.simulator);
  pair.start();
  fx.simulator.run_until(500_ms);
  ASSERT_EQ(fx.controller->state(), profinet::ControllerState::kRunning);

  pair.fail_primary();
  fx.simulator.run_until(2_s);
  ASSERT_TRUE(pair.switched_over());
  const auto latency = pair.takeover_latency();
  ASSERT_TRUE(latency.has_value());
  // Detection (3 x 10ms + tick granularity) + 100ms role change: inside
  // the vendor-quoted 50..300ms corridor.
  EXPECT_GE(*latency, 50_ms);
  EXPECT_LE(*latency, 300_ms);
  EXPECT_EQ(fx.standby->state(), profinet::ControllerState::kRunning);
}

TEST(PlcIntegration, RedundantPairKeepsDeviceControlled) {
  RedundantFixture fx;
  RedundantPlcPair pair(*fx.controller, *fx.standby, fx.simulator);
  pair.start();
  fx.simulator.run_until(500_ms);
  pair.fail_primary();
  fx.simulator.run_until(5_s);
  // Device tripped its watchdog during the gap (takeover ~130ms > 3x2ms
  // watchdog) but resumed under the standby.
  EXPECT_EQ(fx.device->state(), profinet::DeviceState::kDataExchange);
  EXPECT_GE(fx.device->counters().watchdog_trips, 1u);
  // Inputs now flow to the standby.
  EXPECT_GT(fx.standby->counters().cyclic_rx, 0u);
}

TEST(PlcIntegration, NoSwitchoverWithoutFailure) {
  RedundantFixture fx;
  RedundantPlcPair pair(*fx.controller, *fx.standby, fx.simulator);
  pair.start();
  fx.simulator.run_until(2_s);
  EXPECT_FALSE(pair.switched_over());
  EXPECT_GT(pair.stats().heartbeats, 100u);
  EXPECT_EQ(fx.standby->state(), profinet::ControllerState::kIdle);
}

}  // namespace
}  // namespace steelnet::plc
