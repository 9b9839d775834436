// Lookahead-edge stress: the conservative protocol at its worst case --
// 1 ns channel latency (the minimum legal lookahead), million-event
// cross-shard ping-pong, and ring backpressure bursts -- must neither
// deadlock nor stall, and must account for every event exactly.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/sharded_simulator.hpp"

namespace steelnet::sim {
namespace {

using namespace steelnet::sim::literals;

TEST(ShardedStress, MillionEventPingPongAt1nsLookahead) {
  // Two cells, 1 ns latency both ways, unconditional bounce: exactly one
  // delivery per nanosecond of horizon, alternating cells. 1 ms horizon
  // = 1,000,000 cross-shard deliveries -- the exact count, no deadlock,
  // no stall, at 1 and 2 shards.
  for (const std::size_t shards : {1, 2}) {
    ShardedSimulator ss;
    ss.add_cell("ping");
    ss.add_cell("pong");
    ss.connect(0, 1, 1_ns);
    ss.connect(1, 0, 1_ns);
    const auto bounce = [](ShardedSimulator::Cell& self, const ShardMsg& m) {
      ShardMsg next;
      next.a = m.a + 1;
      self.send(self.id() == 0 ? 1 : 0, next);
    };
    ss.cell(0).set_handler(bounce);
    ss.cell(1).set_handler(bounce);
    ss.cell(0).sim().schedule_at(SimTime::zero(), [&ss] {
      ShardMsg m;
      ss.cell(0).send(1, m);
    });

    const ShardRunStats stats = ss.run(1_ms, shards);
    // Deliveries land at t = 1..1'000'000 ns inclusive; the send at the
    // horizon would deliver at horizon+1 and is counted, not executed.
    EXPECT_EQ(stats.msgs_delivered, 1'000'000u) << "shards=" << shards;
    EXPECT_EQ(stats.msgs_sent, 1'000'001u) << "shards=" << shards;
    EXPECT_EQ(stats.beyond_horizon, 1u) << "shards=" << shards;
    EXPECT_EQ(stats.events, 1u) << "shards=" << shards;  // the kickoff
    EXPECT_EQ(ss.cell(0).msgs_delivered() + ss.cell(1).msgs_delivered(),
              1'000'000u);
    // Perfect alternation: the two cells' delivery counts differ by 0.
    EXPECT_EQ(ss.cell(0).msgs_delivered(), 500'000u);
    EXPECT_EQ(ss.cell(1).msgs_delivered(), 500'000u);
  }
}

TEST(ShardedStress, BackpressureBurstOverTinyRingsDoesNotDeadlock) {
  // A burst far larger than the ring capacity forces the producer into
  // the backpressure path (drain-own-inbound + retry). With a cycle of
  // tiny rings and mutual bursts this is exactly the configuration that
  // deadlocks a naive blocking push. Exact delivery counts prove no loss
  // and no stall -- at 1 shard (producer and consumer on one thread) and
  // 2 shards (true concurrency).
  constexpr std::uint64_t kBurst = 512;
  for (const std::size_t shards : {1, 2}) {
    ShardedSimulator ss;
    ss.add_cell("a");
    ss.add_cell("b");
    ss.connect(0, 1, 1_ns, /*capacity=*/4);
    ss.connect(1, 0, 1_ns, /*capacity=*/4);
    std::uint64_t got_a = 0;
    std::uint64_t got_b = 0;
    ss.cell(0).set_handler(
        [&](ShardedSimulator::Cell&, const ShardMsg&) { ++got_a; });
    ss.cell(1).set_handler(
        [&](ShardedSimulator::Cell&, const ShardMsg&) { ++got_b; });
    // Both cells blast a full burst at each other in a single event.
    ss.cell(0).sim().schedule_at(SimTime::zero(), [&ss] {
      for (std::uint64_t k = 0; k < kBurst; ++k) {
        ShardMsg m;
        m.a = k;
        ss.cell(0).send(1, m, SimTime{static_cast<std::int64_t>(k)});
      }
    });
    ss.cell(1).sim().schedule_at(SimTime::zero(), [&ss] {
      for (std::uint64_t k = 0; k < kBurst; ++k) {
        ShardMsg m;
        m.a = k;
        ss.cell(1).send(0, m, SimTime{static_cast<std::int64_t>(k)});
      }
    });
    const ShardRunStats stats = ss.run(1_ms, shards);
    EXPECT_EQ(got_a, kBurst) << "shards=" << shards;
    EXPECT_EQ(got_b, kBurst) << "shards=" << shards;
    EXPECT_EQ(stats.msgs_delivered, 2 * kBurst);
    EXPECT_EQ(stats.beyond_horizon, 0u);
  }
}

TEST(ShardedStress, ZeroLookaheadCycleRejectedBeforeRunning) {
  // The classic pathological topology: a cycle whose total latency would
  // be zero. The driver rejects the *first* zero-latency edge with a
  // typed error -- conservative simulation never starts on a topology it
  // cannot bound.
  ShardedSimulator ss;
  ss.add_cell("a");
  ss.add_cell("b");
  ss.add_cell("c");
  ss.connect(0, 1, 1_ns);
  ss.connect(1, 2, 1_ns);
  try {
    ss.connect(2, 0, SimTime::zero());
    FAIL() << "expected ShardingError";
  } catch (const ShardingError& e) {
    EXPECT_EQ(e.code(), ShardingErrorCode::kZeroLookahead);
    EXPECT_NE(std::string(e.what()).find("zero lookahead"),
              std::string::npos);
  }
}

TEST(ShardedStress, ManyCells1nsRingStaysExact) {
  // 16 cells in a 1 ns ring, each forwarding around the ring: a token
  // makes horizon/16 full laps. Exact per-cell delivery counts at 1, 4,
  // and 8 shards.
  constexpr std::size_t kCells = 16;
  for (const std::size_t shards : {1, 4, 8}) {
    ShardedSimulator ss;
    for (std::size_t i = 0; i < kCells; ++i) {
      // Appended: GCC 12 at -O3 warns -Wrestrict inside libstdc++ on
      // `"r" + std::to_string(i)`.
      std::string name = "r";
      name += std::to_string(i);
      ss.add_cell(name);
    }
    for (std::size_t i = 0; i < kCells; ++i) {
      ss.connect(static_cast<std::uint32_t>(i),
                 static_cast<std::uint32_t>((i + 1) % kCells), 1_ns);
    }
    const auto forward = [](ShardedSimulator::Cell& self, const ShardMsg& m) {
      ShardMsg next;
      next.a = m.a + 1;
      self.send((self.id() + 1) % kCells, next);
    };
    for (std::size_t i = 0; i < kCells; ++i) {
      ss.cell(static_cast<std::uint32_t>(i)).set_handler(forward);
    }
    ss.cell(0).sim().schedule_at(SimTime::zero(), [&ss] {
      ShardMsg m;
      ss.cell(0).send(1, m);
    });
    const ShardRunStats stats = ss.run(SimTime{160'000}, shards);
    // One delivery per nanosecond, hopping around the ring.
    EXPECT_EQ(stats.msgs_delivered, 160'000u) << "shards=" << shards;
    // 160'000 / 16 = 10'000 exact laps: every cell saw the same count.
    for (std::size_t i = 0; i < kCells; ++i) {
      EXPECT_EQ(ss.cell(static_cast<std::uint32_t>(i)).msgs_delivered(),
                10'000u)
          << "cell " << i << " shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace steelnet::sim
