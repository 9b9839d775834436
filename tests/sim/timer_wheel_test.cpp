#include "sim/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace steelnet::sim {
namespace {

using namespace steelnet::sim::literals;

TEST(TimerWheel, FiresInTickOrderFifoWithinTick) {
  TimerWheel wheel{1_ms};
  wheel.arm(5_ms, 50);
  wheel.arm(2_ms, 20);
  wheel.arm(5_ms, 51);  // same tick as 50: FIFO in arm order
  wheel.arm(3_ms, 30);
  EXPECT_EQ(wheel.armed(), 4u);

  std::vector<std::uint64_t> due;
  wheel.advance(10_ms, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{20, 30, 50, 51}));
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, PartialAdvanceFiresOnlyWhatIsDue) {
  TimerWheel wheel{1_ms};
  wheel.arm(2_ms, 2);
  wheel.arm(7_ms, 7);
  std::vector<std::uint64_t> due;
  wheel.advance(4_ms, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(wheel.armed(), 1u);
  wheel.advance(7_ms, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{2, 7}));
}

TEST(TimerWheel, DeadlineMapsToFloorTickNeverLate) {
  // A deadline inside tick N fires when the wheel reaches tick N -- up
  // to one tick early, never after the deadline's tick has passed.
  TimerWheel wheel{1_ms};
  wheel.arm(SimTime{2'500'000}, 25);  // 2.5 ms -> tick 2
  std::vector<std::uint64_t> due;
  wheel.advance(SimTime{1'999'999}, due);
  EXPECT_TRUE(due.empty());
  wheel.advance(2_ms, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{25}));
}

TEST(TimerWheel, PastDeadlinesClampToTheNextTick) {
  TimerWheel wheel{1_ms};
  std::vector<std::uint64_t> due;
  wheel.advance(10_ms, due);
  // Deadline already in the past: it may not vanish, it fires next tick.
  wheel.arm(3_ms, 99);
  wheel.advance(10_ms, due);  // same tick: not yet
  EXPECT_TRUE(due.empty());
  wheel.advance(11_ms, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{99}));
}

TEST(TimerWheel, CancelDisarmsOnlyThatTimer) {
  TimerWheel wheel{1_ms};
  const auto a = wheel.arm(5_ms, 1);
  wheel.arm(5_ms, 2);
  wheel.cancel(a);
  EXPECT_EQ(wheel.armed(), 1u);
  std::vector<std::uint64_t> due;
  wheel.advance(10_ms, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{2}));
}

TEST(TimerWheel, CascadesAcrossLevelBoundaries) {
  // Deadlines far beyond level 0's 64-tick span must trickle down
  // through the hierarchy and still fire on their exact tick.
  TimerWheel wheel{1_ms};
  const std::vector<std::int64_t> ticks{1,  63,   64,   65,  100, 4095,
                                        4096, 4097, 8191, 262144};
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    wheel.arm(sim::milliseconds(ticks[i]), ticks[i]);
  }
  std::vector<std::uint64_t> due;
  // Advance in uneven strides so boundary crossings happen mid-stride.
  for (std::int64_t now = 0; now <= 263000; now += 977) {
    wheel.advance(sim::milliseconds(now), due);
    // Never late: everything due so far must have fired.
    std::size_t expected = 0;
    for (const std::int64_t t : ticks) expected += (t <= now) ? 1 : 0;
    EXPECT_EQ(due.size(), expected) << "at " << now;
  }
  auto sorted = due;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(due, sorted);  // tick order overall
  EXPECT_EQ(due.size(), ticks.size());
  EXPECT_GT(wheel.cascades(), 0u);
}

TEST(TimerWheel, BeyondHorizonParksAndRefires) {
  // A deadline past the whole wheel's span (2^24 ticks) parks at the top
  // level and re-cascades as time approaches -- it still fires at its
  // own tick, not at the horizon.
  TimerWheel wheel{SimTime{1}};  // 1 ns ticks
  const std::int64_t horizon = std::int64_t{1} << 24;
  wheel.arm(SimTime{horizon + 1000}, 42);
  std::vector<std::uint64_t> due;
  wheel.advance(SimTime{horizon + 999}, due);
  EXPECT_TRUE(due.empty());
  wheel.advance(SimTime{horizon + 1000}, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{42}));
}

TEST(TimerWheel, SkipAheadWhenIdleStaysConsistent) {
  // With nothing armed, advance() jumps without walking ticks; timers
  // armed afterwards must still be placed relative to the new tick.
  TimerWheel wheel{1_ms};
  std::vector<std::uint64_t> due;
  wheel.advance(sim::seconds(500), due);
  wheel.arm(sim::seconds(500) + 3_ms, 7);
  wheel.advance(sim::seconds(500) + 10_ms, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{7}));
}

TEST(TimerWheel, ClearDisarmsEverything) {
  TimerWheel wheel{1_ms};
  wheel.arm(5_ms, 1);
  wheel.arm(500_ms, 2);
  wheel.clear();
  EXPECT_EQ(wheel.armed(), 0u);
  std::vector<std::uint64_t> due;
  wheel.advance(1_s, due);
  EXPECT_TRUE(due.empty());
  // clear() also rewinds to the origin tick: early deadlines are armable
  // and fire again.
  wheel.clear();
  wheel.arm(1_ms, 3);
  wheel.advance(2_ms, due);
  EXPECT_EQ(due, (std::vector<std::uint64_t>{3}));
}

TEST(TimerWheel, PropertyRandomizedDeadlinesFireExactlyOnceInOrder) {
  // Deterministic pseudo-random workload (LCG): every timer fires
  // exactly once, in nondecreasing deadline-tick order, never late.
  TimerWheel wheel{1_ms};
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next_rand = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  constexpr std::size_t kTimers = 500;
  std::vector<std::int64_t> deadline_ms(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i) {
    deadline_ms[i] = 1 + static_cast<std::int64_t>(next_rand() % 20'000);
    wheel.arm(sim::milliseconds(deadline_ms[i]), i);
  }
  std::vector<std::uint64_t> due;
  std::int64_t now = 0;
  while (wheel.armed() != 0) {
    now += 1 + static_cast<std::int64_t>(next_rand() % 700);
    wheel.advance(sim::milliseconds(now), due);
    for (std::size_t k = 0; k < due.size(); ++k) {
      EXPECT_LE(deadline_ms[due[k]], now) << "fired late";
    }
  }
  ASSERT_EQ(due.size(), kTimers);
  std::vector<bool> fired(kTimers, false);
  std::int64_t prev_tick = -1;
  for (const std::uint64_t cookie : due) {
    EXPECT_FALSE(fired[cookie]) << "double fire of " << cookie;
    fired[cookie] = true;
    EXPECT_GE(deadline_ms[cookie], prev_tick) << "out of tick order";
    prev_tick = deadline_ms[cookie];
  }
}

}  // namespace
}  // namespace steelnet::sim
