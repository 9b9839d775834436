#include "process/process.hpp"

#include <gtest/gtest.h>

namespace steelnet::process {
namespace {

TEST(Conveyor, MovesOnlyWhenMotorOn) {
  Conveyor c{Conveyor::Params{}};
  c.step(1.0);
  EXPECT_DOUBLE_EQ(c.position_m(), 0.0);
  // motor on, 500 mm/s
  c.actuate({1, 0xf4, 0x01}, true);
  c.step(1.0);
  EXPECT_DOUBLE_EQ(c.position_m(), 0.5);
}

TEST(Conveyor, SpeedClampedToMax) {
  Conveyor c{{.length_m = 100.0, .max_speed_mps = 1.0}};
  c.actuate({1, 0xff, 0xff}, true);  // 65.5 m/s requested
  c.step(2.0);
  EXPECT_DOUBLE_EQ(c.position_m(), 2.0);
}

TEST(Conveyor, CompletesItemsAndWraps) {
  Conveyor c{{.length_m = 1.0, .max_speed_mps = 2.0}};
  c.actuate({1, 0xd0, 0x07}, true);  // 2 m/s
  for (int i = 0; i < 10; ++i) c.step(0.1);  // 2 m total
  EXPECT_EQ(c.items_completed(), 2u);
}

TEST(Conveyor, SafeStateStopsBelt) {
  Conveyor c{Conveyor::Params{}};
  c.actuate({1, 0xe8, 0x03}, true);
  c.step(0.5);
  const double pos = c.position_m();
  c.actuate({}, false);  // watchdog tripped
  c.step(5.0);
  EXPECT_DOUBLE_EQ(c.position_m(), pos);
  EXPECT_FALSE(c.motor_on());
}

TEST(Conveyor, SenseEncodesPositionAndEye) {
  Conveyor c{{.length_m = 1.0, .max_speed_mps = 2.0}};
  c.actuate({1, 0xd0, 0x07}, true);
  c.step(0.49);  // 0.98 m -> eye at >= 0.95
  const auto s = c.sense(8);
  const std::uint32_t mm = s[0] | (s[1] << 8) | (s[2] << 16) |
                           (std::uint32_t(s[3]) << 24);
  EXPECT_NEAR(mm, 980, 2);
  EXPECT_EQ(s[4], 1);
  EXPECT_TRUE(c.item_at_end());
}

TEST(Tank, LevelIntegratesFlows) {
  TankLevel t{{.capacity_l = 100, .demand_lps = 0.5, .initial_l = 50}};
  t.actuate({100}, true);  // 1 l/s inflow, 0.5 l/s demand
  t.step(10.0);
  EXPECT_NEAR(t.level_l(), 55.0, 1e-9);
}

TEST(Tank, OverflowAndDryEventsCounted) {
  TankLevel t{{.capacity_l = 10, .demand_lps = 1.0, .initial_l = 9.9}};
  t.actuate({200}, true);  // 2 l/s in, 1 out -> climbs
  for (int i = 0; i < 10; ++i) t.step(0.1);
  EXPECT_EQ(t.overflow_events(), 1u);
  EXPECT_DOUBLE_EQ(t.level_l(), 10.0);
  t.actuate({0}, true);  // valve closed -> drains dry
  for (int i = 0; i < 200; ++i) t.step(0.1);
  EXPECT_EQ(t.dry_events(), 1u);
  EXPECT_DOUBLE_EQ(t.level_l(), 0.0);
}

TEST(Tank, SafeStateClosesValve) {
  TankLevel t{{.capacity_l = 100, .demand_lps = 0.0, .initial_l = 50}};
  t.actuate({200}, true);
  t.actuate({}, false);
  t.step(10.0);
  EXPECT_NEAR(t.level_l(), 50.0, 1e-9);
}

TEST(RobotAxis, TracksTargetWithVelocityLimit) {
  RobotAxis r{{.max_velocity_dps = 90.0, .tolerance_deg = 0.5}};
  // Target 45 deg = 4500 centideg.
  const std::int16_t t = 4500;
  r.actuate({std::uint8_t(t & 0xff), std::uint8_t(t >> 8)}, true);
  r.step(0.25);  // can move at most 22.5 deg
  EXPECT_NEAR(r.angle_deg(), 22.5, 1e-9);
  EXPECT_FALSE(r.in_position());
  r.step(0.25);
  EXPECT_NEAR(r.angle_deg(), 45.0, 1e-9);
  EXPECT_TRUE(r.in_position());
}

TEST(RobotAxis, NegativeTargets) {
  RobotAxis r;
  const std::int16_t t = -9000;  // -90 deg
  r.actuate({std::uint8_t(t & 0xff), std::uint8_t((t >> 8) & 0xff)}, true);
  for (int i = 0; i < 10; ++i) r.step(0.1);
  EXPECT_NEAR(r.angle_deg(), -90.0, 1e-6);
}

TEST(RobotAxis, SafeStopFreezesAxis) {
  RobotAxis r;
  const std::int16_t t = 4500;
  r.actuate({std::uint8_t(t & 0xff), std::uint8_t(t >> 8)}, true);
  r.step(0.1);
  const double a = r.angle_deg();
  r.actuate({}, false);
  r.step(1.0);
  EXPECT_DOUBLE_EQ(r.angle_deg(), a);
  EXPECT_TRUE(r.halted());
}

TEST(RobotAxis, SenseReportsAngleAndFlag) {
  RobotAxis r;
  const std::int16_t t = 1000;  // 10 deg
  r.actuate({std::uint8_t(t & 0xff), std::uint8_t(t >> 8)}, true);
  for (int i = 0; i < 10; ++i) r.step(0.1);
  const auto s = r.sense(4);
  const auto centi = static_cast<std::int16_t>(s[0] | (s[1] << 8));
  EXPECT_NEAR(centi, 1000, 2);
  EXPECT_EQ(s[2], 1);
}

}  // namespace
}  // namespace steelnet::process
