#include "sim/ring_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace steelnet::sim {
namespace {

TEST(RingQueue, StartsEmpty) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(RingQueue, FifoOrder) {
  RingQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapsAroundTheBuffer) {
  // Interleaved push/pop walks head_ around the ring many times; order
  // must survive every wrap.
  RingQueue<int> q;
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 100; ++round) {
    q.push_back(next_in++);
    q.push_back(next_in++);
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(RingQueue, GrowsPreservingOrderAcrossWrap) {
  RingQueue<int> q;
  // Rotate head_ to the middle of the initial 8-slot buffer...
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 6; ++i) q.pop_front();
  // ...then push enough to force a wrapped grow (head_ != 0 at grow).
  for (int i = 0; i < 40; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
}

TEST(RingQueue, PopReleasesHeldResources) {
  RingQueue<std::shared_ptr<int>> q;
  auto obj = std::make_shared<int>(42);
  std::weak_ptr<int> watch = obj;
  q.push_back(std::move(obj));
  EXPECT_FALSE(watch.expired());
  q.pop_front();
  // pop_front must not leave the element alive in the ring slot.
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace steelnet::sim
