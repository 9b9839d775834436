#include "sim/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sim/random.hpp"

namespace steelnet::sim {
namespace {

using namespace steelnet::sim::literals;

using Due = std::vector<std::uint32_t>;

TEST(TimerWheel, FiresInTickOrderFifoWithinTick) {
  TimerWheel wheel{1_ms};
  wheel.arm(50, 5_ms);
  wheel.arm(20, 2_ms);
  wheel.arm(51, 5_ms);  // same tick as 50: FIFO in arm order
  wheel.arm(30, 3_ms);
  EXPECT_EQ(wheel.armed(), 4u);

  Due due;
  wheel.advance(10_ms, due);
  EXPECT_EQ(due, (Due{20, 30, 50, 51}));
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, PartialAdvanceFiresOnlyWhatIsDue) {
  TimerWheel wheel{1_ms};
  wheel.arm(2, 2_ms);
  wheel.arm(7, 7_ms);
  Due due;
  wheel.advance(4_ms, due);
  EXPECT_EQ(due, (Due{2}));
  EXPECT_EQ(wheel.armed(), 1u);
  wheel.advance(7_ms, due);
  EXPECT_EQ(due, (Due{2, 7}));
}

TEST(TimerWheel, FiresExactlyWhenTheDeadlineIsReached) {
  // A deadline inside a tick fires at the first advance whose `now`
  // reaches it -- not when the wheel reaches its tick, and never later.
  TimerWheel wheel{1_ms};
  wheel.arm(25, SimTime{2'500'000});  // 2.5 ms, inside tick 2
  Due due;
  wheel.advance(SimTime{1'999'999}, due);
  EXPECT_TRUE(due.empty());
  wheel.advance(2_ms, due);  // its tick, before its deadline
  EXPECT_TRUE(due.empty());
  wheel.advance(SimTime{2'499'999}, due);
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(wheel.armed(), 1u);
  wheel.advance(SimTime{2'500'000}, due);
  EXPECT_EQ(due, (Due{25}));
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, PastAndCurrentTickDeadlinesFireWhenReached) {
  TimerWheel wheel{1_ms};
  Due due;
  wheel.advance(SimTime{10'200'000}, due);
  // Already in the past: it may not vanish, it fires at the next advance,
  // even one within the same tick.
  wheel.arm(99, 3_ms);
  // Inside the tick the wheel stands in, but still ahead of `now`.
  wheel.arm(98, SimTime{10'500'000});
  wheel.advance(SimTime{10'200'000}, due);
  EXPECT_EQ(due, (Due{99}));
  wheel.advance(SimTime{10'499'999}, due);
  EXPECT_EQ(due, (Due{99}));
  wheel.advance(SimTime{10'500'000}, due);
  EXPECT_EQ(due, (Due{99, 98}));
}

TEST(TimerWheel, CarriedTimersFireOnceTheNextTickStarts) {
  // Timers left in the target tick's slot wait in the carry list; a later
  // tick makes them all due, ahead of the new tick's own timers.
  TimerWheel wheel{1_ms};
  wheel.arm(1, SimTime{5'900'000});
  wheel.arm(2, SimTime{6'000'000});
  Due due;
  wheel.advance(SimTime{5'100'000}, due);
  EXPECT_TRUE(due.empty());
  wheel.advance(SimTime{6'000'000}, due);
  EXPECT_EQ(due, (Due{1, 2}));
}

TEST(TimerWheel, CancelDisarmsOnlyThatTimer) {
  TimerWheel wheel{1_ms};
  wheel.arm(1, 5_ms);
  wheel.arm(2, 5_ms);
  wheel.cancel(1);
  EXPECT_EQ(wheel.armed(), 1u);
  wheel.cancel(1);    // no longer armed: a no-op
  wheel.cancel(500);  // never armed: a no-op
  EXPECT_EQ(wheel.armed(), 1u);
  Due due;
  wheel.advance(10_ms, due);
  EXPECT_EQ(due, (Due{2}));
  wheel.cancel(2);  // fired: a no-op
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, ArmingAnArmedTimerMovesIt) {
  TimerWheel wheel{1_ms};
  wheel.arm(3, 5_ms);
  wheel.arm(3, 8_ms);
  EXPECT_EQ(wheel.armed(), 1u);
  Due due;
  wheel.advance(7_ms, due);
  EXPECT_TRUE(due.empty());
  wheel.advance(8_ms, due);
  EXPECT_EQ(due, (Due{3}));
}

TEST(TimerWheel, CascadesAcrossLevelBoundaries) {
  // Deadlines far beyond level 0's 64-tick span must trickle down
  // through the hierarchy and still fire on their exact tick.
  TimerWheel wheel{1_ms};
  const std::vector<std::int64_t> ticks{1,  63,   64,   65,  100, 4095,
                                        4096, 4097, 8191, 262144};
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    wheel.arm(static_cast<std::uint32_t>(i), sim::milliseconds(ticks[i]));
  }
  Due due;
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
  EXPECT_EQ(due, sorted);  // deadline order overall
  EXPECT_EQ(due.size(), ticks.size());
  EXPECT_GT(wheel.cascades(), 0u);
}

TEST(TimerWheel, BeyondHorizonParksAndRefires) {
  // A deadline past the whole wheel's span (2^24 ticks) parks at the top
  // level and re-cascades as time approaches -- it still fires at its
  // own deadline, not at the horizon.
  TimerWheel wheel{SimTime{1}};  // 1 ns ticks
  const std::int64_t horizon = std::int64_t{1} << 24;
  wheel.arm(42, SimTime{horizon + 1000});
  Due due;
  wheel.advance(SimTime{horizon + 999}, due);
  EXPECT_TRUE(due.empty());
  wheel.advance(SimTime{horizon + 1000}, due);
  EXPECT_EQ(due, (Due{42}));
}

TEST(TimerWheel, SkipAheadWhenIdleStaysConsistent) {
  // With nothing armed, advance() jumps without walking ticks; timers
  // armed afterwards must still be placed relative to the new tick.
  TimerWheel wheel{1_ms};
  Due due;
  wheel.advance(sim::seconds(500), due);
  wheel.arm(7, sim::seconds(500) + 3_ms);
  wheel.advance(sim::seconds(500) + 10_ms, due);
  EXPECT_EQ(due, (Due{7}));
}

TEST(TimerWheel, ClearDisarmsEverything) {
  TimerWheel wheel{1_ms};
  wheel.arm(1, 5_ms);
  wheel.arm(2, 500_ms);
  wheel.clear();
  EXPECT_EQ(wheel.armed(), 0u);
  Due due;
  wheel.advance(1_s, due);
  EXPECT_TRUE(due.empty());
  // clear() also rewinds to the origin tick: early deadlines are armable
  // and fire again.
  wheel.clear();
  wheel.arm(3, 1_ms);
  wheel.advance(2_ms, due);
  EXPECT_EQ(due, (Due{3}));
}

TEST(TimerWheel, PropertyRandomizedDeadlinesFireExactlyOnceInOrder) {
  // Deterministic pseudo-random workload (LCG): every timer fires
  // exactly once, in nondecreasing deadline order, never late.
  TimerWheel wheel{1_ms};
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next_rand = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  constexpr std::uint32_t kTimers = 500;
  std::vector<std::int64_t> deadline_ms(kTimers);
  for (std::uint32_t i = 0; i < kTimers; ++i) {
    deadline_ms[i] = 1 + static_cast<std::int64_t>(next_rand() % 20'000);
    wheel.arm(i, sim::milliseconds(deadline_ms[i]));
  }
  Due due;
  std::int64_t now = 0;
  while (wheel.armed() != 0) {
    now += 1 + static_cast<std::int64_t>(next_rand() % 700);
    wheel.advance(sim::milliseconds(now), due);
    for (const std::uint32_t id : due) {
      EXPECT_LE(deadline_ms[id], now) << "fired early";
    }
  }
  ASSERT_EQ(due.size(), kTimers);
  std::vector<bool> fired(kTimers, false);
  std::int64_t prev = -1;
  for (const std::uint32_t id : due) {
    EXPECT_FALSE(fired[id]) << "double fire of " << id;
    fired[id] = true;
    EXPECT_GE(deadline_ms[id], prev) << "out of deadline order";
    prev = deadline_ms[id];
  }
}

TEST(TimerWheel, FiresExactlyWhatAMultimapOracleFindsDue) {
  // 1.2M seeded arm/cancel/advance ops on 4096 ids against a brute-force
  // oracle: a multimap of every armed deadline. Each advance must return
  // exactly the ids whose deadline is <= now. `now` moves by sub-tick,
  // multi-tick and multi-level strides, never tick-aligned, from an odd
  // origin; deadlines fall in the past, inside the current tick, across
  // the levels and beyond the 2^24-tick horizon.
  constexpr std::int64_t kTick = 1000;  // ns
  constexpr std::int64_t kOrigin = 12'345;
  constexpr std::int64_t kHorizon = kTick << 24;
  constexpr std::uint32_t kIds = 4096;
  constexpr int kOps = 1'200'000;
  TimerWheel wheel{SimTime{kTick}, SimTime{kOrigin}};
  Rng rng{28};

  using Oracle = std::multimap<std::int64_t, std::uint32_t>;
  Oracle oracle;
  std::vector<Oracle::iterator> where(kIds, oracle.end());
  const auto disarm = [&](std::uint32_t id) {
    if (where[id] == oracle.end()) return;
    oracle.erase(where[id]);
    where[id] = oracle.end();
  };

  std::int64_t now = kOrigin + 777;
  Due due, expected;
  std::uint64_t fired = 0, advances = 0, past = 0, beyond = 0;
  for (int op = 0; op < kOps; ++op) {
    const double pick = rng.uniform();
    if (pick < 0.45) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIds - 1));
      const double kind = rng.uniform();
      std::int64_t deadline;
      if (kind < 0.10) {
        deadline = now - rng.uniform_int(0, 5 * kTick);  // past
        ++past;
      } else if (kind < 0.30) {
        deadline = now + rng.uniform_int(0, kTick);  // this tick or next
      } else if (kind < 0.70) {
        deadline = now + rng.uniform_int(1, 4096 * kTick);  // levels 0-1
      } else if (kind < 0.90) {
        deadline = now + rng.uniform_int(1, kHorizon);  // levels 2-3
      } else {
        deadline = now + kHorizon + rng.uniform_int(0, kHorizon);
        ++beyond;
      }
      disarm(id);
      where[id] = oracle.emplace(deadline, id);
      wheel.arm(id, SimTime{deadline});
    } else if (pick < 0.60) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIds - 1));
      disarm(id);
      wheel.cancel(id);
    } else {
      const double stride = rng.uniform();
      now += stride < 0.5   ? rng.uniform_int(1, kTick - 1)
             : stride < 0.9 ? rng.uniform_int(1, 64 * kTick)
                            : rng.uniform_int(1, 2000 * kTick);
      expected.clear();
      while (!oracle.empty() && oracle.begin()->first <= now) {
        expected.push_back(oracle.begin()->second);
        where[oracle.begin()->second] = oracle.end();
        oracle.erase(oracle.begin());
      }
      due.clear();
      wheel.advance(SimTime{now}, due);
      std::sort(expected.begin(), expected.end());
      std::sort(due.begin(), due.end());
      ASSERT_EQ(due, expected) << "advance to " << now << " ns, op " << op;
      fired += due.size();
      ++advances;
    }
    ASSERT_EQ(wheel.armed(), oracle.size()) << "op " << op;
  }
  // The run covered what it claims: several horizons of time, and enough
  // fires, past deadlines and beyond-horizon deadlines to matter.
  EXPECT_GT(now - kOrigin, 2 * kHorizon);
  EXPECT_GT(advances, 400'000u);
  EXPECT_GT(fired, 200'000u);
  EXPECT_GT(past, 40'000u);
  EXPECT_GT(beyond, 40'000u);
  EXPECT_GT(wheel.cascades(), 0u);
}

}  // namespace
}  // namespace steelnet::sim
