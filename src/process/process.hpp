// steelnet::process -- physical plant models closed through the PLC loop.
//
// These give the examples and availability experiments something real to
// control: when the watchdog halts a device, a conveyor actually stops
// and the production count actually flattens.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "profinet/io_device.hpp"
#include "sim/simulator.hpp"

namespace steelnet::process {

/// A plant model with byte-image I/O compatible with profinet::IoDevice.
class Process {
 public:
  virtual ~Process() = default;

  /// Advances physics by `dt` seconds.
  virtual void step(double dt) = 0;

  /// Sensor image (device -> controller), `bytes` long.
  [[nodiscard]] virtual std::vector<std::uint8_t> sense(
      std::size_t bytes) const = 0;

  /// Actuator image (controller -> device). `run` false = safe state:
  /// implementations must de-energize.
  virtual void actuate(const std::vector<std::uint8_t>& outputs,
                       bool run) = 0;
};

/// A belt moving items toward a photo eye at its end.
///
/// Outputs (from PLC): byte 0 = motor on; bytes 1..2 = speed, mm/s (u16).
/// Inputs (to PLC): bytes 0..3 = position, mm (u32);
///                  byte 4 = item-at-end photo eye.
class Conveyor final : public Process {
 public:
  struct Params {
    double length_m = 2.0;
    double max_speed_mps = 1.0;
  };
  explicit Conveyor(Params params);

  void step(double dt) override;
  [[nodiscard]] std::vector<std::uint8_t> sense(
      std::size_t bytes) const override;
  void actuate(const std::vector<std::uint8_t>& outputs, bool run) override;

  [[nodiscard]] double position_m() const { return position_; }
  [[nodiscard]] bool motor_on() const { return motor_on_; }
  [[nodiscard]] std::uint64_t items_completed() const { return items_; }
  [[nodiscard]] bool item_at_end() const;

 private:
  Params params_;
  double position_ = 0.0;
  double speed_setpoint_ = 0.0;
  bool motor_on_ = false;
  std::uint64_t items_ = 0;
};

/// A liquid tank with a controllable inflow valve and fixed demand.
///
/// Outputs: byte 0 = valve opening, 0..200 (= 0..2 l/s inflow).
/// Inputs: bytes 0..3 = level in centilitres (u32).
class TankLevel final : public Process {
 public:
  struct Params {
    double capacity_l = 100.0;
    double demand_lps = 0.5;  ///< constant outflow while above empty
    double initial_l = 50.0;
  };
  explicit TankLevel(Params params);

  void step(double dt) override;
  [[nodiscard]] std::vector<std::uint8_t> sense(
      std::size_t bytes) const override;
  void actuate(const std::vector<std::uint8_t>& outputs, bool run) override;

  [[nodiscard]] double level_l() const { return level_; }
  [[nodiscard]] std::uint64_t overflow_events() const { return overflows_; }
  [[nodiscard]] std::uint64_t dry_events() const { return dry_; }

 private:
  Params params_;
  double level_;
  double inflow_lps_ = 0.0;
  std::uint64_t overflows_ = 0;
  std::uint64_t dry_ = 0;
  bool was_overflowing_ = false;
  bool was_dry_ = false;
};

/// One rotary robot joint tracking a commanded angle.
///
/// Outputs: bytes 0..1 = target angle, centidegrees (i16).
/// Inputs: bytes 0..1 = actual angle, centidegrees (i16);
///         byte 2 = in-position flag (|err| < 0.5 deg).
class RobotAxis final : public Process {
 public:
  struct Params {
    double max_velocity_dps = 180.0;  ///< degrees per second
    double tolerance_deg = 0.5;
  };
  RobotAxis();
  explicit RobotAxis(Params params);

  void step(double dt) override;
  [[nodiscard]] std::vector<std::uint8_t> sense(
      std::size_t bytes) const override;
  void actuate(const std::vector<std::uint8_t>& outputs, bool run) override;

  [[nodiscard]] double angle_deg() const { return angle_; }
  [[nodiscard]] double target_deg() const { return target_; }
  [[nodiscard]] bool in_position() const;
  [[nodiscard]] double max_tracking_error_deg() const { return max_error_; }
  [[nodiscard]] bool halted() const { return halted_; }

 private:
  Params params_;
  double angle_ = 0.0;
  double target_ = 0.0;
  double max_error_ = 0.0;
  bool halted_ = false;
};

/// Wires a Process to an IoDevice and steps it on a fixed grid. Returns
/// the stepping task; destroy it to freeze the physics.
std::unique_ptr<sim::PeriodicTask> bind_process(
    profinet::IoDevice& device, Process& process, sim::Simulator& sim,
    sim::SimTime step_dt = sim::milliseconds(1));

}  // namespace steelnet::process
