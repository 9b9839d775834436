// SpscRing move semantics: try_push, used by the sharded kernel's
// route(), must move on success and leave the value
// intact on a full-ring refusal (the backpressure loop retries the same
// message), under the unchanged acquire/release protocol -- the threaded
// soak below is what the TSan preset sweeps.
#include "sim/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <thread>

namespace steelnet::sim {
namespace {

TEST(SpscRing, RvaluePushMovesThePayload) {
  SpscRing<std::unique_ptr<int>> ring{4};
  auto msg = std::make_unique<int>(42);
  EXPECT_TRUE(ring.try_push(std::move(msg)));
  EXPECT_EQ(msg, nullptr);  // moved out, not copied

  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, RefusedRvaluePushLeavesTheMessageIntact) {
  SpscRing<std::unique_ptr<int>> ring{2};
  ASSERT_EQ(ring.capacity(), 2u);
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(1)));
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(2)));

  auto msg = std::make_unique<int>(3);
  EXPECT_FALSE(ring.try_push(std::move(msg)));
  // The fullness check ran before the move: the producer still owns the
  // message and can retry it after draining.
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(*msg, 3);

  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(*out, 1);
  EXPECT_TRUE(ring.try_push(std::move(msg)));
  EXPECT_EQ(msg, nullptr);
}

TEST(SpscRing, MoveOnlyPayloadsSurviveTwoThreads) {
  constexpr std::uint64_t kMessages = 10'000;
  SpscRing<std::unique_ptr<std::uint64_t>> ring{64};

  std::uint64_t received = 0;
  std::uint64_t sum = 0;
  std::thread consumer{[&] {
    std::unique_ptr<std::uint64_t> out;
    while (received < kMessages) {
      if (ring.try_pop(out)) {
        sum += *out;
        ++received;
      } else {
        std::this_thread::yield();
      }
    }
  }};

  for (std::uint64_t i = 1; i <= kMessages; ++i) {
    auto msg = std::make_unique<std::uint64_t>(i);
    while (!ring.try_push(std::move(msg))) {
      // Backpressure: the refused push left `msg` intact; retry it.
      std::this_thread::yield();
    }
  }
  consumer.join();

  EXPECT_EQ(received, kMessages);
  EXPECT_EQ(sum, kMessages * (kMessages + 1) / 2);
}

TEST(SpscRing, PopNReturnsPartialBatchAndZeroWhenEmpty) {
  SpscRing<int> ring{8};
  std::array<int, 8> out{};
  EXPECT_EQ(ring.try_pop_n(out.data(), out.size()), 0u);

  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.try_push(int{i}));
  // max > available: the batch is the 3 queued elements, in FIFO order.
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 3u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(out[2], 2);
  EXPECT_EQ(ring.try_pop_n(out.data(), out.size()), 0u);

  // max < available: exactly max come out, the rest stay queued.
  for (int i = 10; i < 15; ++i) ASSERT_TRUE(ring.try_push(int{i}));
  ASSERT_EQ(ring.try_pop_n(out.data(), 2), 2u);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 11);
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 3u);
  EXPECT_EQ(out[0], 12);
  EXPECT_EQ(out[2], 14);
}

TEST(SpscRing, PopNCrossesTheWraparoundBoundary) {
  SpscRing<std::uint64_t> ring{4};
  ASSERT_EQ(ring.capacity(), 4u);
  // Advance the cursors to 3 so a full batch straddles index 3 -> 0.
  std::uint64_t scratch = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.try_push(std::uint64_t{i}));
    ASSERT_TRUE(ring.try_pop(scratch));
  }
  for (std::uint64_t i = 100; i < 104; ++i) {
    ASSERT_TRUE(ring.try_push(std::uint64_t{i}));
  }

  std::array<std::uint64_t, 4> out{};
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], 100 + i);
  // The freed slots are immediately reusable past the wrap.
  EXPECT_TRUE(ring.try_push(200u));
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 1u);
  EXPECT_EQ(out[0], 200u);
}

TEST(SpscRing, PopNMovesMoveOnlyPayloads) {
  SpscRing<std::unique_ptr<int>> ring{4};
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(7)));
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(8)));

  std::array<std::unique_ptr<int>, 4> out;
  ASSERT_EQ(ring.try_pop_n(out.data(), out.size()), 2u);
  ASSERT_NE(out[0], nullptr);
  ASSERT_NE(out[1], nullptr);
  EXPECT_EQ(*out[0], 7);
  EXPECT_EQ(*out[1], 8);
  // Popped slots were moved-from, so re-pushing reuses them cleanly.
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(9)));
  ASSERT_EQ(ring.try_pop_n(out.data(), 1), 1u);
  EXPECT_EQ(*out[0], 9);
}

// The two-thread soak the TSan preset sweeps: a producer races a batched
// consumer over a small ring, so every acquire/release pairing of
// try_pop_n is exercised under real contention and wraparound.
TEST(SpscRing, BatchedPopSurvivesTwoThreads) {
  constexpr std::uint64_t kMessages = 100'000;
  SpscRing<std::uint64_t> ring{32};

  std::uint64_t received = 0;
  std::uint64_t sum = 0;
  bool fifo = true;
  std::thread consumer{[&] {
    std::array<std::uint64_t, 8> batch{};
    std::uint64_t expect = 1;
    while (received < kMessages) {
      const std::size_t n = ring.try_pop_n(batch.data(), batch.size());
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (batch[i] != expect++) fifo = false;
        sum += batch[i];
      }
      received += n;
    }
  }};

  for (std::uint64_t i = 1; i <= kMessages; ++i) {
    while (!ring.try_push(std::uint64_t{i})) std::this_thread::yield();
  }
  consumer.join();

  EXPECT_EQ(received, kMessages);
  EXPECT_TRUE(fifo);
  EXPECT_EQ(sum, kMessages * (kMessages + 1) / 2);
}

}  // namespace
}  // namespace steelnet::sim
