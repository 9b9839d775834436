#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace steelnet::sim {
namespace {

using namespace steelnet::sim::literals;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30_ns, [&] { order.push_back(3); });
  q.schedule(10_ns, [&] { order.push_back(1); });
  q.schedule(20_ns, [&] { order.push_back(2); });

  SimTime t;
  while (q.fire_next(SimTime::max(), t)) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5_ns, [&order, i] { order.push_back(i); });
  }
  SimTime t;
  while (q.fire_next(SimTime::max(), t)) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[size_t(i)], i);
}

TEST(EventQueue, CancelledEventsAreSkipped) {
  EventQueue q;
  bool fired = false;
  auto h = q.schedule(1_ns, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());

  SimTime t;
  EXPECT_FALSE(q.fire_next(SimTime::max(), t));
  EXPECT_FALSE(fired);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.schedule(1_ns, [] {});
  q.schedule(9_ns, [] {});
  h.cancel();
  EXPECT_EQ(q.next_time(), 9_ns);
}

TEST(EventQueue, EmptyQueueReportsMaxTime) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::max());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, HandleOutlivesQueueSafely) {
  EventHandle h;
  {
    EventQueue q;
    h = q.schedule(1_ns, [] {});
  }
  // Queue destroyed; handle must not dangle.
  EXPECT_TRUE(h.pending());  // never fired, never cancelled
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, DefaultHandleNotPending) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op, must not crash
}

TEST(EventQueue, FiredEventIsNoLongerPending) {
  EventQueue q;
  bool fired = false;
  bool pending_while_firing = true;
  EventHandle h;
  h = q.schedule(1_ns, [&] {
    // Firing starts the moment the event leaves the heap: the handle must
    // not claim a pending event while its own callback runs.
    pending_while_firing = h.pending();
    fired = true;
  });
  ASSERT_TRUE(h.pending());

  SimTime t;
  ASSERT_TRUE(q.fire_next(SimTime::max(), t));
  EXPECT_EQ(t, 1_ns);
  EXPECT_TRUE(fired);
  EXPECT_FALSE(pending_while_firing);
  EXPECT_FALSE(h.pending());
  h.cancel();  // cancelling a fired event is a no-op
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(q.cancelled_total(), 0u);
}

TEST(EventQueue, FireNextStopsAtTheDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule(5_ns, [&] { ++fired; });
  q.schedule(6_ns, [&] { ++fired; });
  SimTime t = 0_ns;
  EXPECT_FALSE(q.fire_next(4_ns, t));
  EXPECT_EQ(t, 0_ns);  // untouched when nothing is due
  EXPECT_TRUE(q.fire_next(5_ns, t));  // due exactly at the deadline
  EXPECT_FALSE(q.fire_next(5_ns, t));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.next_time(), 6_ns);
}

// --- firing in place: callbacks run from their slab slot ---------------

TEST(EventQueue, CallbackSchedulesMoreThanAChunkWhileFiring) {
  EventQueue q;
  constexpr std::size_t kBurst = 3 * EventQueue::kSlotsPerChunk + 5;
  std::vector<std::size_t> order;
  bool captures_intact = false;
  std::array<std::uint8_t, 96> pattern{};
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  q.schedule(1_ns, [&q, &order, &captures_intact, pattern] {
    // Scheduling grows the slab by several chunks while this closure is
    // running from one of its slots; its captures must not move, and no
    // new closure (each as large as this one) may be built over them.
    std::array<std::uint8_t, 96> filler{};
    filler.fill(0xee);
    for (std::size_t k = 0; k < kBurst; ++k) {
      q.schedule(SimTime{static_cast<std::int64_t>(2 + kBurst - k)},
                 [&order, k, filler] { order.push_back(k + filler[k % 96] - 0xee); });
    }
    captures_intact = true;
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      captures_intact &= pattern[i] == static_cast<std::uint8_t>(i * 7 + 1);
    }
  });
  SimTime t;
  ASSERT_TRUE(q.fire_next(SimTime::max(), t));
  EXPECT_TRUE(captures_intact);
  EXPECT_GT(q.slot_capacity(), 2 * EventQueue::kSlotsPerChunk);
  while (q.fire_next(SimTime::max(), t)) {
  }
  ASSERT_EQ(order.size(), kBurst);
  // Scheduled at descending times, so they fire in reverse.
  for (std::size_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(order[i], kBurst - 1 - i);
  }
}

TEST(EventQueue, CallbackCancelsItsOwnHandleAndAnotherPendingOne) {
  EventQueue q;
  EventHandle self;
  EventHandle other;
  bool other_fired = false;
  bool third_fired = false;
  self = q.schedule(1_ns, [&] {
    self.cancel();   // already firing: a no-op
    other.cancel();  // still pending: cancelled
  });
  other = q.schedule(2_ns, [&] { other_fired = true; });
  q.schedule(3_ns, [&] { third_fired = true; });
  SimTime t;
  while (q.fire_next(SimTime::max(), t)) {
  }
  EXPECT_FALSE(other_fired);
  EXPECT_TRUE(third_fired);
  EXPECT_EQ(q.cancelled_total(), 1u);
  EXPECT_FALSE(self.pending());
  EXPECT_FALSE(other.pending());
  EXPECT_EQ(q.live_size(), 0u);
}

TEST(EventQueue, ThrowingCallbackStillReleasesItsSlot) {
  EventQueue q;
  SimTime t;
  for (int i = 0; i < 10'000; ++i) {
    EventHandle h = q.schedule(SimTime{i}, [] {
      throw std::runtime_error("callback failed");
    });
    EXPECT_THROW(q.fire_next(SimTime::max(), t), std::runtime_error);
    EXPECT_EQ(t, SimTime{i});
    EXPECT_FALSE(h.pending());
    EXPECT_EQ(q.live_size(), 0u);
  }
  // One slot, reused 10k times: a leaked slot per throw would grow this.
  EXPECT_EQ(q.slot_capacity(), 1u);
  bool fired = false;
  q.schedule(SimTime{10'000}, [&] { fired = true; });
  EXPECT_TRUE(q.fire_next(SimTime::max(), t));
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.slot_capacity(), 1u);
}

TEST(EventQueue, ThrowingCaptureCopyReturnsTheSlot) {
  struct Bomb {
    bool armed = false;
    Bomb() = default;
    Bomb(const Bomb& other) : armed(other.armed) {
      if (armed) throw std::runtime_error("copy failed");
    }
    void operator()() const {}
  };
  EventQueue q;
  Bomb bomb;
  bomb.armed = true;
  EXPECT_THROW(q.schedule(1_ns, bomb), std::runtime_error);
  EXPECT_EQ(q.live_size(), 0u);
  EXPECT_TRUE(q.empty());
  bomb.armed = false;
  q.schedule(1_ns, bomb);
  EXPECT_EQ(q.slot_capacity(), 1u);  // the failed schedule's slot, reused
}

TEST(EventQueue, HandlesAreCountedThroughCopiesMovesAndQueueDeath) {
  EventHandle kept;
  EventHandle fired;
  {
    EventQueue q;
    EventHandle a = q.schedule(1_ns, [] {});
    EventHandle copy = a;  // NOLINT(performance-unnecessary-copy-initialization)
    EventHandle moved = std::move(copy);
    EXPECT_FALSE(copy.pending());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(moved.pending());
    kept = moved;
    kept = kept;  // self-assignment keeps the reference
    EventHandle& alias = kept;
    kept = std::move(alias);
    EXPECT_TRUE(kept.pending());

    fired = q.schedule(2_ns, [] {});
    // A closure that owns a handle to its own queue, destroyed unfired
    // with the queue.
    EventHandle inner = q.schedule(5_ns, [] {});
    q.schedule(6_ns, [inner] { (void)inner.pending(); });

    SimTime t;
    ASSERT_TRUE(q.fire_next(1_ns, t));
    EXPECT_FALSE(kept.pending());
    a.cancel();  // after fire: a no-op on every copy
    EXPECT_EQ(q.cancelled_total(), 0u);
    EXPECT_TRUE(fired.pending());
  }
  // The queue is gone; the last handles keep its generation table alive.
  EXPECT_FALSE(kept.pending());
  EXPECT_TRUE(fired.pending());
  fired.cancel();
  EXPECT_FALSE(fired.pending());
  std::vector<EventHandle> copies(100, fired);
  copies.clear();
  EXPECT_FALSE(fired.pending());
}

}  // namespace
}  // namespace steelnet::sim
