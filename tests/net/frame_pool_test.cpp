#include "net/frame_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace steelnet::net {
namespace {

TEST(FramePool, MakeZeroFillsLikeAssign) {
  FramePool pool;
  Frame f = pool.make(46);
  ASSERT_EQ(f.payload.size(), 46u);
  for (std::uint8_t b : f.payload) EXPECT_EQ(b, 0u);

  // Dirty the buffer, recycle, and draw again: the reused buffer must be
  // byte-identical to a fresh assign(n, 0) -- pooling never changes what
  // goes on the wire.
  f.write_u64(0, 0xffff'ffff'ffff'ffffULL);
  pool.recycle(std::move(f));
  Frame g = pool.make(46);
  ASSERT_EQ(g.payload.size(), 46u);
  for (std::uint8_t b : g.payload) EXPECT_EQ(b, 0u);
  EXPECT_EQ(pool.stats().reused, 1u);
}

TEST(FramePool, RecycleReusesTheSameBuffer) {
  FramePool pool;
  Frame f = pool.make(128);
  const std::uint8_t* data = f.payload.data();
  pool.recycle(std::move(f));
  EXPECT_EQ(pool.free_buffers(), 1u);

  Frame g = pool.make(64);  // smaller fits the recycled capacity
  EXPECT_EQ(g.payload.data(), data);
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.stats().acquired, 2u);
  EXPECT_EQ(pool.stats().fresh, 1u);
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().recycled, 1u);
}

TEST(FramePool, CloneCopiesBytesAndMetadata) {
  FramePool pool;
  Frame f = pool.make(32);
  f.dst = MacAddress{0x0253'0000'0002ULL};
  f.src = MacAddress{0x0253'0000'0001ULL};
  f.ethertype = EtherType::kProfinetRt;
  f.pcp = 6;
  f.vlan_id = 10;
  f.flow_id = 77;
  f.seq = 123;
  f.created_at = sim::SimTime{42};
  f.trace_id = 999;
  f.write_u32(4, 0xdeadbeef);

  Frame c = pool.clone(f);
  EXPECT_EQ(c.payload, f.payload);
  EXPECT_EQ(c.dst.bits(), f.dst.bits());
  EXPECT_EQ(c.src.bits(), f.src.bits());
  EXPECT_EQ(c.ethertype, f.ethertype);
  EXPECT_EQ(c.pcp, f.pcp);
  EXPECT_EQ(c.vlan_id, f.vlan_id);
  EXPECT_EQ(c.flow_id, f.flow_id);
  EXPECT_EQ(c.seq, f.seq);
  EXPECT_EQ(c.created_at, f.created_at);
  EXPECT_EQ(c.trace_id, f.trace_id);
}

TEST(FramePool, FreeListIsBounded) {
  FramePool pool(/*max_buffers=*/2);
  std::vector<Frame> frames;
  for (int i = 0; i < 5; ++i) frames.push_back(pool.make(16));
  for (Frame& f : frames) pool.recycle(std::move(f));
  // Only max_buffers returns stick; the excess falls through to the
  // allocator instead of growing the pool without bound.
  EXPECT_EQ(pool.free_buffers(), 2u);
  EXPECT_EQ(pool.stats().recycled, 2u);
  EXPECT_EQ(pool.stats().discarded, 3u);
}

TEST(FramePool, EmptyBuffersAreNotPooled) {
  FramePool pool;
  Frame f;  // default frame, no payload capacity
  pool.recycle(std::move(f));
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.stats().recycled, 0u);
}

TEST(FramePool, SteadyStateCycleIsAllocationStable) {
  // A cyclic producer/consumer pair settles to one pooled buffer that
  // round-trips forever: after the first cycle every acquire is a reuse.
  FramePool pool;
  for (int cycle = 0; cycle < 100; ++cycle) {
    Frame f = pool.make(46);
    f.write_u32(0, static_cast<std::uint32_t>(cycle));
    pool.recycle(std::move(f));
  }
  EXPECT_EQ(pool.stats().fresh, 1u);
  EXPECT_EQ(pool.stats().reused, 99u);
  EXPECT_EQ(pool.free_buffers(), 1u);
}

}  // namespace
}  // namespace steelnet::net
