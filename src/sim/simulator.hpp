// steelnet::sim -- the discrete-event simulator.
//
// Single-threaded, fully deterministic: events at equal times fire in
// scheduling order, and all randomness flows through explicitly seeded
// RNG streams (see random.hpp). Identical seeds produce identical traces.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace steelnet::sim {

/// Thrown when a component detects a violated simulation invariant
/// (e.g. scheduling into the past).
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `f` after `delay` (>= 0) from now. The closure is built
  /// directly in the event queue's slab and fired there.
  template <typename F>
  EventHandle schedule_in(SimTime delay, F&& f) {
    if (delay < SimTime::zero()) throw_negative_delay(delay);
    return queue_.schedule(now_ + delay, std::forward<F>(f));
  }

  /// Schedules `f` at absolute time `at` (>= now).
  template <typename F>
  EventHandle schedule_at(SimTime at, F&& f) {
    if (at < now_) throw_in_past(at);
    return queue_.schedule(at, std::forward<F>(f));
  }

  /// Runs until the queue drains or `deadline` passes. Events exactly at
  /// the deadline still fire. Returns the number of events executed.
  std::uint64_t run_until(SimTime deadline);

  /// Runs until the event queue is empty.
  std::uint64_t run();

  /// Executes at most one event; returns false if none is pending.
  bool step();

  /// Earliest pending event time, or SimTime::max() when the queue is
  /// empty. Used by drivers that interleave the local queue with an
  /// external ordered source (the sharded kernel's staged cross-shard
  /// messages).
  [[nodiscard]] SimTime next_event_time() { return queue_.next_time(); }

  /// Moves the clock forward to `at` without firing anything -- the hook
  /// a sharded driver uses to execute an externally ordered action (a
  /// cross-shard message) at its delivery time. Throws SimError when `at`
  /// is in the past or would jump over a pending local event, so protocol
  /// bugs (a message delivered beyond the lookahead window) fail loudly
  /// instead of silently reordering the run.
  void advance_clock_to(SimTime at);

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t events_pending() { return queue_.size(); }
  /// Events cancelled through handles over the simulator's lifetime --
  /// exposed so sharded-kernel audits can pin the queue's accounting
  /// (live_size/cancelled_total) per cell at any shard count.
  [[nodiscard]] std::uint64_t events_cancelled() const {
    return queue_.cancelled_total();
  }
  /// Callback slots the kernel ever allocated; flat after warm-up when
  /// the slab recycles (see EventQueue::slot_capacity).
  [[nodiscard]] std::size_t event_slot_capacity() const {
    return queue_.slot_capacity();
  }

 private:
  [[noreturn]] static void throw_negative_delay(SimTime delay);
  [[noreturn]] void throw_in_past(SimTime at) const;

  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
};

/// Repeatedly invokes a callback with a fixed period. The callback may stop
/// the task; the task owns no resources beyond its pending event.
class PeriodicTask {
 public:
  /// `fn` is called first at `start`, then every `period` until stop().
  PeriodicTask(Simulator& sim, SimTime start, SimTime period,
               std::function<void()> fn);
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] SimTime period() const { return period_; }

 private:
  void arm(SimTime at);

  Simulator& sim_;
  SimTime period_;
  std::function<void()> fn_;
  EventHandle next_;
  bool running_ = true;
  std::uint64_t fired_ = 0;
};

}  // namespace steelnet::sim
