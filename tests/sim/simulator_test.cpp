#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace steelnet::sim {
namespace {

using namespace steelnet::sim::literals;

TEST(Simulator, TimeAdvancesWithEvents) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.schedule_in(10_ns, [&] { seen.push_back(sim.now()); });
  sim.schedule_in(5_ns, [&] { seen.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 5_ns);
  EXPECT_EQ(seen[1], 10_ns);
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10_ns, [&] { ++fired; });
  sim.schedule_at(20_ns, [&] { ++fired; });
  sim.schedule_at(21_ns, [&] { ++fired; });
  const auto n = sim.run_until(20_ns);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20_ns);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockToDeadlineWhenIdle) {
  Simulator sim;
  sim.run_until(1_ms);
  EXPECT_EQ(sim.now(), 1_ms);
}

TEST(Simulator, SchedulingIntoPastThrows) {
  Simulator sim;
  sim.schedule_at(10_ns, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5_ns, [] {}), SimError);
  EXPECT_THROW(sim.schedule_in(SimTime{-1}, [] {}), SimError);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(1_ns, [&] {
    order.push_back(1);
    sim.schedule_in(1_ns, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 2_ns);
}

TEST(PeriodicTask, FiresAtFixedPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, 0_ns, 10_ns, [&] { fires.push_back(sim.now()); });
  sim.run_until(35_ns);
  ASSERT_EQ(fires.size(), 4u);  // t=0,10,20,30
  EXPECT_EQ(fires[3], 30_ns);
  EXPECT_EQ(task.fired(), 4u);
}

TEST(PeriodicTask, StopPreventsFurtherFirings) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, 0_ns, 10_ns, [&] {
    if (++count == 2) task.stop();
  });
  sim.run_until(100_ns);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, DestructorCancels) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task(sim, 0_ns, 10_ns, [&] { ++count; });
    sim.run_until(5_ns);
  }
  sim.run_until(100_ns);
  EXPECT_EQ(count, 1);
}

TEST(PeriodicTask, RejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(PeriodicTask(sim, 0_ns, 0_ns, [] {}), SimError);
}

}  // namespace
}  // namespace steelnet::sim
