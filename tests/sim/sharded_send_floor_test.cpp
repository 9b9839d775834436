// Application lookahead (send floors) in the sharded kernel, pinned:
//   * random topologies with random valid floors keep per-cell fire logs
//     byte-equal to run_reference() at shard counts {1, 2, 4, 8},
//   * a send below the promised floor fails with a typed
//     ShardingError{kSendBelowFloor} in both engines,
//   * a promise below the current floor is a no-op,
//   * a cell with no outbound channels publishes "forever" once.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/sharded_simulator.hpp"

namespace steelnet::sim {
namespace {

using namespace steelnet::sim::literals;

// --- random floors vs the reference engine ----------------------------------

/// Per-cell state of the floor workload. A sending cell fires a periodic
/// report to a random neighbour and then promises a random floor no later
/// than its next report; received messages schedule local work and may
/// bounce onward, but only when the cell's current floor allows it. Every
/// decision reads cell-local state only, so the workload is deterministic.
struct FloorCtx {
  std::vector<std::uint32_t> dsts;
  std::unique_ptr<Rng> rng;
  std::unique_ptr<PeriodicTask> reporter;
  std::unique_ptr<PeriodicTask> ticker;
  std::uint64_t received = 0;
  std::uint64_t bounced = 0;
  std::uint64_t local_work = 0;
};

struct FloorWorld {
  ShardedSimulator ss;
  std::vector<FloorCtx> ctx;
};

void build_floor_world(FloorWorld& w, std::uint64_t seed, std::size_t n_cells) {
  const Rng root(seed);
  Rng topo = root.derive("topology");
  for (std::size_t i = 0; i < n_cells; ++i) {
    w.ss.add_cell("cell" + std::to_string(i), 1 + i % 4);
  }
  w.ctx.resize(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) {
    // About a quarter of the cells only receive: the kernel gives them a
    // forever floor on its own.
    if (i != 0 && topo.bernoulli(0.25)) continue;
    for (std::size_t j = 0; j < n_cells; ++j) {
      if (i == j) continue;
      if (j == (i + 1) % n_cells || topo.bernoulli(0.3)) {
        w.ss.connect(static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(j),
                     SimTime{topo.uniform_int(1'000, 50'000)});
        w.ctx[i].dsts.push_back(static_cast<std::uint32_t>(j));
      }
    }
  }
  w.ss.set_record_fire_log(true);
  for (std::size_t i = 0; i < n_cells; ++i) {
    ShardedSimulator::Cell& cell = w.ss.cell(static_cast<std::uint32_t>(i));
    FloorCtx& c = w.ctx[i];
    c.rng = std::make_unique<Rng>(root.derive("cell" + std::to_string(i)));
    cell.set_handler([&c](ShardedSimulator::Cell& self, const ShardMsg& m) {
      ++c.received;
      self.sim().schedule_in(SimTime{c.rng->uniform_int(1'000, 30'000)},
                             [&c] { ++c.local_work; });
      const bool floor_allows = self.send_floor() <= self.sim().now();
      if (m.b < 4 && floor_allows && !c.dsts.empty() &&
          c.rng->bernoulli(0.5)) {
        ShardMsg next = m;
        next.b = m.b + 1;
        self.send(c.dsts[static_cast<std::size_t>(c.rng->uniform_int(
                      0, static_cast<std::int64_t>(c.dsts.size()) - 1))],
                  next);
        ++c.bounced;
      }
    });
    const SimTime tick{c.rng->uniform_int(3'000, 15'000)};
    c.ticker = std::make_unique<PeriodicTask>(cell.sim(), tick, tick,
                                              [&c] { ++c.local_work; });
    if (c.dsts.empty()) continue;
    const std::int64_t period = c.rng->uniform_int(20'000, 200'000);
    // A promise below an earlier one must change nothing.
    cell.promise_no_send_before(SimTime{period});
    cell.promise_no_send_before(SimTime{period / 2});
    c.reporter = std::make_unique<PeriodicTask>(
        cell.sim(), SimTime{period}, SimTime{period}, [&c, &cell, period] {
          ShardMsg m;
          m.kind = 1;
          cell.send(c.dsts[static_cast<std::size_t>(c.rng->uniform_int(
                        0, static_cast<std::int64_t>(c.dsts.size()) - 1))],
                    m);
          // Any floor up to the next report is a valid promise.
          cell.promise_no_send_before(cell.sim().now() +
                                      SimTime{c.rng->uniform_int(0, period)});
        });
  }
}

struct FloorOutcome {
  std::vector<std::vector<FireRecord>> logs;
  std::vector<std::uint64_t> received, bounced, local_work, sent, delivered;
  std::uint64_t events = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t beyond_horizon = 0;

  [[nodiscard]] bool operator==(const FloorOutcome&) const = default;
};

FloorOutcome harvest(FloorWorld& w, const ShardRunStats& stats) {
  FloorOutcome out;
  out.events = stats.events;
  out.msgs_delivered = stats.msgs_delivered;
  out.beyond_horizon = stats.beyond_horizon;
  for (std::size_t i = 0; i < w.ctx.size(); ++i) {
    auto& cell = w.ss.cell(static_cast<std::uint32_t>(i));
    out.logs.push_back(cell.fire_log());
    out.received.push_back(w.ctx[i].received);
    out.bounced.push_back(w.ctx[i].bounced);
    out.local_work.push_back(w.ctx[i].local_work);
    out.sent.push_back(cell.msgs_sent());
    out.delivered.push_back(cell.msgs_delivered());
  }
  return out;
}

TEST(ShardedSendFloor, RandomFloorsMatchReferenceAtShards1248) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t cells = 3 + seed % 7;
    FloorWorld ref;
    build_floor_world(ref, seed, cells);
    const FloorOutcome want = harvest(ref, ref.ss.run_reference(3_ms));
    ASSERT_GT(want.msgs_delivered, 10u) << "seed=" << seed;

    for (const std::size_t shards : {1, 2, 4, 8}) {
      FloorWorld w;
      build_floor_world(w, seed, cells);
      const FloorOutcome got = harvest(w, w.ss.run(3_ms, shards));
      EXPECT_TRUE(got == want) << "seed=" << seed << " cells=" << cells
                               << " shards=" << shards
                               << " diverged from run_reference";
    }
  }
}

// --- a broken promise fails loudly -------------------------------------------

/// Two cells, 0 -> 1. Cell 0 promises no send before 50us, then sends at
/// `send_at`.
void build_promise_world(ShardedSimulator& ss, SimTime send_at) {
  ss.add_cell("a");
  ss.add_cell("b");
  ss.connect(0, 1, 10_us);
  ss.cell(0).promise_no_send_before(50_us);
  ss.cell(0).sim().schedule_at(send_at, [&ss] {
    ShardMsg m;
    ss.cell(0).send(1, m);
  });
}

TEST(ShardedSendFloor, SendBelowFloorThrowsTyped) {
  EXPECT_STREQ(to_string(ShardingErrorCode::kSendBelowFloor),
               "send-below-floor");
  for (const std::size_t shards : {0, 1, 2}) {  // 0 = run_reference
    ShardedSimulator ss;
    build_promise_world(ss, 20_us);
    try {
      if (shards == 0) {
        (void)ss.run_reference(1_ms);
      } else {
        (void)ss.run(1_ms, shards);
      }
      FAIL() << "expected ShardingError, shards=" << shards;
    } catch (const ShardingError& e) {
      EXPECT_EQ(e.code(), ShardingErrorCode::kSendBelowFloor);
      EXPECT_NE(std::string(e.what()).find("below its promised send floor"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardedSendFloor, SendAtTheFloorIsAllowed) {
  ShardedSimulator ss;
  build_promise_world(ss, 50_us);
  const ShardRunStats stats = ss.run(1_ms, 2);
  EXPECT_EQ(stats.msgs_sent, 1u);
  EXPECT_EQ(stats.msgs_delivered, 1u);
}

TEST(ShardedSendFloor, LowerPromiseIsNoOp) {
  ShardedSimulator ss;
  ss.add_cell("a");
  ss.add_cell("b");
  ss.connect(0, 1, 10_us);
  ShardedSimulator::Cell& a = ss.cell(0);
  EXPECT_EQ(a.send_floor(), SimTime::zero());
  a.promise_no_send_before(100_us);
  a.promise_no_send_before(40_us);
  a.promise_no_send_before(SimTime::zero());
  EXPECT_EQ(a.send_floor(), 100_us);
  a.promise_no_send_before(150_us);
  EXPECT_EQ(a.send_floor(), 150_us);

  // The floor really is 150us, not the lower 40us promise: a send at
  // 120us breaks it.
  a.sim().schedule_at(120_us, [&ss] {
    ShardMsg m;
    ss.cell(0).send(1, m);
  });
  try {
    (void)ss.run(1_ms, 1);
    FAIL() << "expected ShardingError";
  } catch (const ShardingError& e) {
    EXPECT_EQ(e.code(), ShardingErrorCode::kSendBelowFloor);
  }
}

// --- cells without outbound channels ------------------------------------------

/// X <-> Y exchange nothing but bound each other's windows (5us channels,
/// local events every 10us), so both advance in many small rounds. With
/// `with_sink`, cell A listens to X and has no outbound channel.
ShardRunStats run_sink_world(bool with_sink, SimTime* sink_floor) {
  ShardedSimulator ss;
  ss.add_cell("x");
  ss.add_cell("y");
  ss.connect(0, 1, 5_us);
  ss.connect(1, 0, 5_us);
  PeriodicTask tx(ss.cell(0).sim(), 10_us, 10_us, [] {});
  PeriodicTask ty(ss.cell(1).sim(), 10_us, 10_us, [] {});
  std::unique_ptr<PeriodicTask> ta;
  if (with_sink) {
    ss.add_cell("a");
    ss.connect(0, 2, 5_us);
    ta = std::make_unique<PeriodicTask>(ss.cell(2).sim(), 1_us, 1_us, [] {});
  }
  const ShardRunStats stats = ss.run(1_ms, 1);
  if (with_sink) {
    *sink_floor = ss.cell(2).send_floor();
    EXPECT_EQ(ss.cell(0).send_floor(), SimTime::zero());
    EXPECT_EQ(ss.cell(2).sim().events_executed(), 1000u);
  }
  return stats;
}

TEST(ShardedSendFloor, CellWithNoOutboundPublishesForeverOnce) {
  SimTime sink_floor = SimTime::zero();
  const ShardRunStats with = run_sink_world(true, &sink_floor);
  const ShardRunStats without = run_sink_world(false, nullptr);
  EXPECT_EQ(sink_floor, SimTime::max());
  ASSERT_GT(without.clock_publishes, 50u);
  // X and Y publish exactly as before (A never sends to them, and the
  // single-shard round order is deterministic); A, whose window is
  // bounded by X every round, adds one forever publish and no more.
  EXPECT_EQ(with.clock_publishes, without.clock_publishes + 1);
}

}  // namespace
}  // namespace steelnet::sim
