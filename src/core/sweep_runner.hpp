// steelnet::core -- the parallel seed-sweep engine.
//
// Every headline artifact in this repo (the tab_faults fault matrix, the
// ablation sweeps, the 64-seed property sweeps) is a loop of fully
// independent seeded single-threaded simulations. SweepRunner fans those
// runs out across a fixed-size worker pool and hands the results back in
// task order, so any aggregate built from them is byte-identical to the
// sequential loop regardless of worker count or OS scheduling:
//
//   * each task must own every piece of mutable state it touches (its own
//     Simulator/Network/ObsHub/FaultPlane; RNG streams derived from its
//     seed) -- workers share nothing but the atomic task counter,
//   * results land in slot-per-task storage; the caller reads the slots
//     in task order, which is exactly the sequential order,
//   * a throwing task never takes down the sweep or hangs a worker: the
//     exception is captured as that slot's error while every other task
//     completes normally.
//
// jobs == 1 never spawns a thread: tasks run inline on the calling
// thread, preserving the exact historical single-threaded behaviour.
// With more workers the calling thread is one of them, so a pool of N
// spawns N - 1 threads; if the OS refuses a thread, the ones that did
// start (and the caller) finish the sweep.
//
// Nesting: a run() called from inside a task of a multi-worker run (a
// radio floor fanning out its collection inside a tab_radio seed sweep)
// runs its tasks inline on that worker, so pools never multiply.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

namespace steelnet::core {

/// Worker count for `requested` jobs over `tasks` tasks, when every task
/// itself runs `shards_per_task` worker threads (a sharded simulation per
/// seed): 0 means one worker per hardware thread, and never more workers
/// than tasks. The hardware budget is divided by the per-task thread
/// count before the clamping, so `jobs x shards` never oversubscribes
/// the machine by design. An explicit `requested` value is still honored
/// as given -- the caller asked for it -- only the `requested == 0`
/// default is divided.
[[nodiscard]] std::size_t effective_jobs(std::size_t requested,
                                         std::size_t tasks,
                                         std::size_t shards_per_task);

namespace detail {
/// True while this thread serves a multi-worker SweepRunner::run.
inline thread_local bool serving_sweep = false;
}  // namespace detail

/// One task's outcome: a value, or the what() of the exception it threw.
template <typename R>
struct SweepSlot {
  std::optional<R> value;
  std::string error;
  [[nodiscard]] bool ok() const { return value.has_value(); }
};

class SweepRunner {
 public:
  /// `jobs == 0` (the default) means one worker per hardware thread.
  /// `shards_per_task` declares how many worker threads each task spawns
  /// internally (1 = the classic single-threaded task); the default job
  /// count shrinks accordingly so the pool never oversubscribes.
  explicit SweepRunner(std::size_t jobs = 0, std::size_t shards_per_task = 1)
      : jobs_(jobs), shards_per_task_(std::max<std::size_t>(
                         shards_per_task, 1)) {}

  [[nodiscard]] std::size_t jobs() const { return jobs_; }
  [[nodiscard]] std::size_t shards_per_task() const {
    return shards_per_task_;
  }

  /// Runs fn(0) .. fn(tasks-1) across the pool and returns slot-per-task
  /// results in task order. `fn` is invoked concurrently from multiple
  /// threads when jobs > 1, so it must not touch shared mutable state.
  /// Called from a task of another multi-worker run, it runs inline.
  template <typename Fn>
  [[nodiscard]] auto run(std::size_t tasks, Fn&& fn) const
      -> std::vector<SweepSlot<std::invoke_result_t<Fn&, std::size_t>>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<SweepSlot<R>> slots(tasks);
    auto run_one = [&fn, &slots](std::size_t i) {
      try {
        slots[i].value.emplace(fn(i));
      } catch (const std::exception& e) {
        slots[i].error = e.what();
      } catch (...) {
        slots[i].error = "unknown exception";
      }
    };
    const std::size_t workers =
        detail::serving_sweep
            ? 1
            : effective_jobs(jobs_, tasks, shards_per_task_);
    if (workers <= 1) {
      for (std::size_t i = 0; i < tasks; ++i) run_one(i);
      return slots;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      detail::serving_sweep = true;
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < tasks; i = next.fetch_add(1, std::memory_order_relaxed)) {
        run_one(i);
      }
      detail::serving_sweep = false;
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    try {
      for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
    } catch (const std::system_error&) {
      // No more threads to be had: the started ones and the caller below
      // drain the remaining tasks.
    }
    worker();
    for (std::thread& t : pool) t.join();
    return slots;
  }

 private:
  std::size_t jobs_;
  std::size_t shards_per_task_;
};

}  // namespace steelnet::core
