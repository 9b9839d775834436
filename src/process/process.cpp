#include "process/process.hpp"

#include <algorithm>
#include <cmath>

namespace steelnet::process {

namespace {

void put_u32(std::vector<std::uint8_t>& v, std::size_t at, std::uint32_t x) {
  for (std::size_t i = 0; i < 4 && at + i < v.size(); ++i) {
    v[at + i] = static_cast<std::uint8_t>(x >> (8 * i));
  }
}

std::uint16_t get_u16(const std::vector<std::uint8_t>& v, std::size_t at) {
  if (at + 2 > v.size()) return 0;
  return static_cast<std::uint16_t>(v[at] | (v[at + 1] << 8));
}

}  // namespace

Conveyor::Conveyor(Params params) : params_(params) {}

void Conveyor::step(double dt) {
  if (!motor_on_) return;
  position_ += std::min(speed_setpoint_, params_.max_speed_mps) * dt;
  if (position_ >= params_.length_m) {
    position_ -= params_.length_m;
    ++items_;
  }
}

bool Conveyor::item_at_end() const {
  return position_ >= params_.length_m * 0.95;
}

std::vector<std::uint8_t> Conveyor::sense(std::size_t bytes) const {
  std::vector<std::uint8_t> v(bytes, 0);
  put_u32(v, 0, static_cast<std::uint32_t>(position_ * 1000.0));
  if (bytes > 4) v[4] = item_at_end() ? 1 : 0;
  return v;
}

void Conveyor::actuate(const std::vector<std::uint8_t>& outputs, bool run) {
  if (!run || outputs.empty()) {
    motor_on_ = false;  // safe state: belt stops
    return;
  }
  motor_on_ = outputs[0] != 0;
  speed_setpoint_ = double(get_u16(outputs, 1)) / 1000.0;
}

TankLevel::TankLevel(Params params)
    : params_(params), level_(params.initial_l) {}

void TankLevel::step(double dt) {
  level_ += inflow_lps_ * dt;
  if (level_ > 0) level_ -= params_.demand_lps * dt;
  if (level_ >= params_.capacity_l) {
    level_ = params_.capacity_l;
    if (!was_overflowing_) ++overflows_;
    was_overflowing_ = true;
  } else {
    was_overflowing_ = false;
  }
  if (level_ <= 0) {
    level_ = 0;
    if (!was_dry_) ++dry_;
    was_dry_ = true;
  } else {
    was_dry_ = false;
  }
}

std::vector<std::uint8_t> TankLevel::sense(std::size_t bytes) const {
  std::vector<std::uint8_t> v(bytes, 0);
  put_u32(v, 0, static_cast<std::uint32_t>(level_ * 100.0));
  return v;
}

void TankLevel::actuate(const std::vector<std::uint8_t>& outputs, bool run) {
  if (!run || outputs.empty()) {
    inflow_lps_ = 0.0;  // safe state: valve closed
    return;
  }
  inflow_lps_ = std::min<double>(outputs[0], 200) / 100.0;
}

RobotAxis::RobotAxis() : RobotAxis(Params{}) {}

RobotAxis::RobotAxis(Params params) : params_(params) {}

void RobotAxis::step(double dt) {
  if (halted_) return;
  const double err = target_ - angle_;
  const double max_step = params_.max_velocity_dps * dt;
  angle_ += std::clamp(err, -max_step, max_step);
  max_error_ = std::max(max_error_, std::abs(target_ - angle_));
}

bool RobotAxis::in_position() const {
  return std::abs(target_ - angle_) < params_.tolerance_deg;
}

std::vector<std::uint8_t> RobotAxis::sense(std::size_t bytes) const {
  std::vector<std::uint8_t> v(bytes, 0);
  const auto centi = static_cast<std::int16_t>(angle_ * 100.0);
  if (bytes >= 2) {
    v[0] = static_cast<std::uint8_t>(centi);
    v[1] = static_cast<std::uint8_t>(centi >> 8);
  }
  if (bytes > 2) v[2] = in_position() ? 1 : 0;
  return v;
}

void RobotAxis::actuate(const std::vector<std::uint8_t>& outputs, bool run) {
  if (!run || outputs.size() < 2) {
    halted_ = true;  // safe stop: axis freezes in place
    return;
  }
  halted_ = false;
  const auto centi = static_cast<std::int16_t>(
      outputs[0] | (outputs[1] << 8));
  target_ = double(centi) / 100.0;
}

std::unique_ptr<sim::PeriodicTask> bind_process(profinet::IoDevice& device,
                                                Process& process,
                                                sim::Simulator& sim,
                                                sim::SimTime step_dt) {
  device.set_input_provider(
      [&process](std::size_t bytes) { return process.sense(bytes); });
  device.set_output_handler(
      [&process](const std::vector<std::uint8_t>& out, bool run) {
        process.actuate(out, run);
      });
  return std::make_unique<sim::PeriodicTask>(
      sim, sim.now(), step_dt,
      [&process, step_dt] { process.step(step_dt.seconds()); });
}

}  // namespace steelnet::process
