#include "sim/simulator.hpp"

#include <utility>

namespace steelnet::sim {

void Simulator::throw_negative_delay(SimTime delay) {
  throw SimError("schedule_in: negative delay " + delay.to_string());
}

void Simulator::throw_in_past(SimTime at) const {
  throw SimError("schedule_at: time " + at.to_string() +
                 " is in the past (now " + now_.to_string() + ")");
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  std::uint64_t n = 0;
  while (queue_.fire_next(deadline, now_)) {
    ++executed_;
    ++n;
  }
  // Advance the clock to the deadline when idle -- but a drained queue
  // under run() (deadline = max) leaves the clock at the last event.
  if (deadline != SimTime::max() && now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t Simulator::run() { return run_until(SimTime::max()); }

bool Simulator::step() {
  if (!queue_.fire_next(SimTime::max(), now_)) return false;
  ++executed_;
  return true;
}

void Simulator::advance_clock_to(SimTime at) {
  if (at < now_) {
    throw SimError("advance_clock_to: time " + at.to_string() +
                   " is in the past (now " + now_.to_string() + ")");
  }
  const SimTime next = queue_.next_time();
  if (next < at) {
    throw SimError("advance_clock_to: time " + at.to_string() +
                   " would jump over a pending event at " + next.to_string());
  }
  now_ = at;
}

PeriodicTask::PeriodicTask(Simulator& sim, SimTime start, SimTime period,
                           std::function<void()> fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  if (period <= SimTime::zero()) {
    throw SimError("PeriodicTask: period must be positive");
  }
  arm(start);
}

void PeriodicTask::arm(SimTime at) {
  next_ = sim_.schedule_at(at, [this] {
    if (!running_) return;
    ++fired_;
    // Re-arm before running the body so the body may call stop().
    arm(sim_.now() + period_);
    fn_();
  });
}

void PeriodicTask::stop() {
  running_ = false;
  next_.cancel();
}

}  // namespace steelnet::sim
