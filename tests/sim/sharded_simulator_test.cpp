// The sharded kernel's determinism contract, pinned:
//   * identical per-cell fire order and counters at shard counts
//     {1, 2, 4, 8},
//   * fire-order equivalence against run_reference(), the single-threaded
//     globally ordered engine, over randomized topologies (property test),
//   * messages-before-local ordering at equal timestamps,
//   * typed ShardingError for every protocol/topology misuse,
//   * cross-shard cancellation expressed as a message to the owning
//     shard, with exact EventQueue live/cancelled accounting per cell.
#include "sim/sharded_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "sim/random.hpp"

namespace steelnet::sim {
namespace {

using namespace steelnet::sim::literals;

// --- partition --------------------------------------------------------------

// The placement run() chooses for cells of the given declared weights.
std::vector<std::uint32_t> placement_of(
    const std::vector<std::uint64_t>& weights, std::size_t shards) {
  ShardedSimulator ss;
  for (const std::uint64_t w : weights) {
    ss.add_cell("cell" + std::to_string(ss.cell_count()), w);
  }
  (void)ss.run(SimTime{1}, shards);
  return ss.partition_map();
}

TEST(Partition, ContiguousNonemptyBalanced) {
  const std::vector<std::uint64_t> weights = {3, 1, 4, 1, 5, 9, 2, 6};
  for (std::size_t shards = 1; shards <= weights.size(); ++shards) {
    const auto assign = placement_of(weights, shards);
    ASSERT_EQ(assign.size(), weights.size());
    // Contiguous and monotone: group ids never decrease, never skip.
    EXPECT_EQ(assign.front(), 0u);
    for (std::size_t i = 1; i < assign.size(); ++i) {
      EXPECT_GE(assign[i], assign[i - 1]);
      EXPECT_LE(assign[i], assign[i - 1] + 1);
    }
    // Every group 0..shards-1 is nonempty.
    EXPECT_EQ(assign.back(), shards - 1);
  }
}

TEST(Partition, FrontLoadedWeightsStillFillEveryShard) {
  // A pathological prefix (one huge cell) must not starve later shards.
  const auto assign = placement_of({100, 1, 1, 1}, 4);
  EXPECT_EQ(assign, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(Partition, ShardsClampedToCellCount) {
  const auto assign = placement_of({1, 1}, 16);
  EXPECT_EQ(assign, (std::vector<std::uint32_t>{0, 1}));
}

TEST(Partition, ZeroShardsThrowsTyped) {
  try {
    (void)placement_of({1}, 0);
    FAIL() << "expected ShardingError";
  } catch (const ShardingError& e) {
    EXPECT_EQ(e.code(), ShardingErrorCode::kBadShardCount);
  }
}

// --- typed errors -----------------------------------------------------------

TEST(ShardingErrors, ZeroLookaheadChannelRejected) {
  ShardedSimulator ss;
  ss.add_cell("a");
  ss.add_cell("b");
  try {
    ss.connect(0, 1, SimTime::zero());
    FAIL() << "expected ShardingError";
  } catch (const ShardingError& e) {
    EXPECT_EQ(e.code(), ShardingErrorCode::kZeroLookahead);
  }
  try {
    ss.connect(0, 1, SimTime{-5});
    FAIL() << "expected ShardingError";
  } catch (const ShardingError& e) {
    EXPECT_EQ(e.code(), ShardingErrorCode::kZeroLookahead);
  }
}

TEST(ShardingErrors, SelfAndDuplicateChannelsRejected) {
  ShardedSimulator ss;
  ss.add_cell("a");
  ss.add_cell("b");
  try {
    ss.connect(0, 0, 1_us);
    FAIL();
  } catch (const ShardingError& e) {
    EXPECT_EQ(e.code(), ShardingErrorCode::kSelfChannel);
  }
  ss.connect(0, 1, 1_us);
  try {
    ss.connect(0, 1, 2_us);
    FAIL();
  } catch (const ShardingError& e) {
    EXPECT_EQ(e.code(), ShardingErrorCode::kDuplicateChannel);
  }
}

TEST(ShardingErrors, BadCellAndMissingChannel) {
  ShardedSimulator ss;
  ss.add_cell("a");
  ss.add_cell("b");
  try {
    ss.connect(0, 7, 1_us);
    FAIL();
  } catch (const ShardingError& e) {
    EXPECT_EQ(e.code(), ShardingErrorCode::kBadCell);
  }
  ShardMsg msg;
  try {
    ss.cell(0).send(1, msg);  // no channel installed
    FAIL();
  } catch (const ShardingError& e) {
    EXPECT_EQ(e.code(), ShardingErrorCode::kNoChannel);
  }
}

TEST(ShardingErrors, RunMisuse) {
  {
    ShardedSimulator ss;
    try {
      ss.run(1_ms, 1);
      FAIL();
    } catch (const ShardingError& e) {
      EXPECT_EQ(e.code(), ShardingErrorCode::kNoCells);
    }
  }
  {
    ShardedSimulator ss;
    ss.add_cell("a");
    try {
      ss.run(1_ms, 0);
      FAIL();
    } catch (const ShardingError& e) {
      EXPECT_EQ(e.code(), ShardingErrorCode::kBadShardCount);
    }
  }
  {
    ShardedSimulator ss;
    ss.add_cell("a");
    ss.run(1_ms, 1);
    try {
      ss.run(1_ms, 1);
      FAIL();
    } catch (const ShardingError& e) {
      EXPECT_EQ(e.code(), ShardingErrorCode::kAlreadyRan);
    }
  }
}

// --- deterministic workload used by the shard-count sweep -------------------

/// Per-cell context of the bouncing-message workload: every cell runs a
/// periodic local task that sends hop-limited messages to its outbound
/// neighbors; receipt may bounce the message onward, decided by the
/// cell's own derived RNG (cell-local state only, so the decision
/// sequence is a pure function of the cell's deterministic history).
struct BounceCtx {
  std::vector<std::uint32_t> dsts;
  std::unique_ptr<Rng> rng;
  std::unique_ptr<PeriodicTask> task;
  std::uint64_t received = 0;
  std::uint64_t bounced = 0;
};

struct BounceWorld {
  ShardedSimulator ss;
  std::vector<BounceCtx> ctx;
};

void build_bounce_world(BounceWorld& w, std::uint64_t seed,
                        std::size_t n_cells) {
  const Rng root(seed);
  Rng topo = root.derive("topology");
  for (std::size_t i = 0; i < n_cells; ++i) {
    w.ss.add_cell("cell" + std::to_string(i), 1 + i % 3);
  }
  w.ctx.resize(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) {
    for (std::size_t j = 0; j < n_cells; ++j) {
      if (i == j) continue;
      // Ring edge always (keeps the graph connected); chords with p=0.3.
      const bool ring = j == (i + 1) % n_cells;
      if (ring || topo.bernoulli(0.3)) {
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
    BounceCtx& c = w.ctx[i];
    c.rng = std::make_unique<Rng>(0);
    *c.rng = root.derive("cell" + std::to_string(i));
    cell.set_handler([&c](ShardedSimulator::Cell& self, const ShardMsg& m) {
      ++c.received;
      if (m.b < 4 && !c.dsts.empty() && c.rng->bernoulli(0.6)) {
        ShardMsg next = m;
        next.b = m.b + 1;
        const auto pick = static_cast<std::size_t>(
            c.rng->uniform_int(0, static_cast<std::int64_t>(c.dsts.size()) -
                                      1));
        self.send(c.dsts[pick], next);
        ++c.bounced;
      }
    });
    const SimTime period{c.rng->uniform_int(10'000, 100'000)};
    c.task = std::make_unique<PeriodicTask>(
        cell.sim(), period, period, [&c, &cell] {
          if (c.dsts.empty()) return;
          ShardMsg m;
          m.kind = 1;
          m.b = 0;
          const auto pick = static_cast<std::size_t>(c.rng->uniform_int(
              0, static_cast<std::int64_t>(c.dsts.size()) - 1));
          cell.send(c.dsts[pick], m);
        });
  }
}

struct BounceOutcome {
  std::vector<std::vector<FireRecord>> logs;
  std::vector<std::uint64_t> received, bounced, sent, delivered;
  ShardRunStats stats;

  [[nodiscard]] bool operator==(const BounceOutcome& o) const {
    return logs == o.logs && received == o.received && bounced == o.bounced &&
           sent == o.sent && delivered == o.delivered &&
           stats.events == o.stats.events &&
           stats.msgs_delivered == o.stats.msgs_delivered &&
           stats.msgs_sent == o.stats.msgs_sent &&
           stats.beyond_horizon == o.stats.beyond_horizon;
  }
};

BounceOutcome harvest(BounceWorld& w, ShardRunStats stats) {
  BounceOutcome out;
  out.stats = stats;
  for (std::size_t i = 0; i < w.ctx.size(); ++i) {
    auto& cell = w.ss.cell(static_cast<std::uint32_t>(i));
    out.logs.push_back(cell.fire_log());
    out.received.push_back(w.ctx[i].received);
    out.bounced.push_back(w.ctx[i].bounced);
    out.sent.push_back(cell.msgs_sent());
    out.delivered.push_back(cell.msgs_delivered());
  }
  return out;
}

TEST(ShardedDeterminism, IdenticalAcrossShardCounts1248) {
  constexpr std::uint64_t kSeed = 7;
  constexpr std::size_t kCells = 9;
  const SimTime horizon = 3_ms;

  BounceWorld base;
  build_bounce_world(base, kSeed, kCells);
  const BounceOutcome golden = harvest(base, base.ss.run(horizon, 1));
  ASSERT_GT(golden.stats.msgs_delivered, 100u);

  for (const std::size_t shards : {2, 4, 8}) {
    BounceWorld w;
    build_bounce_world(w, kSeed, kCells);
    const BounceOutcome got = harvest(w, w.ss.run(horizon, shards));
    EXPECT_TRUE(got == golden) << "shards=" << shards
                               << " diverged from shards=1";
  }
}

TEST(ShardedDeterminism, RandomTopologyPropertyVsReference) {
  // Property: for random topologies and workloads, the threaded
  // conservative engine produces exactly the per-cell fire order of the
  // globally ordered single-threaded reference.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t cells = 2 + seed % 7;
    BounceWorld ref;
    build_bounce_world(ref, seed, cells);
    const BounceOutcome want = harvest(ref, ref.ss.run_reference(2_ms));

    const std::size_t shards = 1 + seed % 4;
    BounceWorld w;
    build_bounce_world(w, seed, cells);
    const BounceOutcome got = harvest(w, w.ss.run(2_ms, shards));
    EXPECT_TRUE(got == want)
        << "seed=" << seed << " cells=" << cells << " shards=" << shards
        << " diverged from run_reference";
  }
}

TEST(ShardedDeterminism, MessagesDeliverBeforeLocalEventsAtEqualTime) {
  // Channel latency 10us; sender fires at t=0, receiver has a local
  // event at exactly t=10us. The merge rule says the message executes
  // first -- at any shard count.
  for (const std::size_t shards : {1, 2}) {
    ShardedSimulator ss;
    ss.add_cell("tx");
    ss.add_cell("rx");
    ss.connect(0, 1, 10_us);
    ss.set_record_fire_log(true);
    ss.cell(0).sim().schedule_at(SimTime::zero(), [&ss] {
      ShardMsg m;
      ss.cell(0).send(1, m);
    });
    ss.cell(1).sim().schedule_at(10_us, [] {});
    ss.run(1_ms, shards);
    const auto& log = ss.cell(1).fire_log();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].t_ns, 10'000);
    EXPECT_EQ(log[0].kind, 1u);  // the message...
    EXPECT_EQ(log[1].t_ns, 10'000);
    EXPECT_EQ(log[1].kind, 0u);  // ...then the local event
  }
}

// --- cross-shard cancellation + EventQueue accounting -----------------------

/// EventHandles are not thread-safe and never cross shards: a remote
/// cancel is a message whose handler cancels on the owning shard. The
/// audit pins the owning cell's live/cancelled accounting exactly, at
/// every shard count.
TEST(ShardedCancel, CrossShardCancelKeepsQueueAccountingExact) {
  struct Result {
    std::uint64_t fired, cancelled_total, pending;
  };
  const auto run_one = [](std::size_t shards) -> Result {
    ShardedSimulator ss;
    ss.add_cell("owner");
    ss.add_cell("canceller");
    ss.connect(1, 0, 5_us);
    std::map<std::uint64_t, EventHandle> armed;  // owned by cell 0 only
    std::uint64_t fired = 0;
    // Cell 0 arms 32 timers at 100us..131us, keyed 0..31.
    ss.cell(0).sim().schedule_at(SimTime::zero(), [&] {
      for (std::uint64_t k = 0; k < 32; ++k) {
        armed.emplace(k, ss.cell(0).sim().schedule_at(
                             100_us + SimTime{static_cast<std::int64_t>(k) *
                                              1'000},
                             [&fired] { ++fired; }));
      }
    });
    // Cell 1 asks for every even timer to be cancelled; the messages
    // arrive (5us + k us) << 100us, well before the timers fire.
    ss.cell(1).sim().schedule_at(SimTime::zero(), [&ss] {
      for (std::uint64_t k = 0; k < 32; k += 2) {
        ShardMsg m;
        m.kind = 1;
        m.a = k;
        ss.cell(1).send(0, m, SimTime{static_cast<std::int64_t>(k) * 1'000});
      }
    });
    ss.cell(0).set_handler([&armed](ShardedSimulator::Cell&,
                                    const ShardMsg& m) {
      const auto it = armed.find(m.a);
      ASSERT_NE(it, armed.end());
      it->second.cancel();
      armed.erase(it);
    });
    ss.run(1_ms, shards);
    return {fired, ss.cell(0).sim().events_cancelled(),
            ss.cell(0).sim().events_pending()};
  };

  for (const std::size_t shards : {1, 2}) {
    const Result r = run_one(shards);
    EXPECT_EQ(r.fired, 16u) << "shards=" << shards;
    EXPECT_EQ(r.cancelled_total, 16u) << "shards=" << shards;
    EXPECT_EQ(r.pending, 0u) << "shards=" << shards;
  }
}

/// Per-shard EventQueues share nothing: hammering one queue per thread
/// keeps every queue's live_size/cancelled_total/slot_capacity exactly
/// equal to the same pattern run sequentially.
TEST(ShardedCancel, PerThreadQueuesKeepIndependentAccounting) {
  struct Audit {
    std::size_t live;
    std::uint64_t cancelled;
    std::uint64_t scheduled;
  };
  const auto pattern = [](std::uint64_t salt) -> Audit {
    EventQueue q;
    std::vector<EventHandle> handles;
    for (std::uint64_t k = 0; k < 256; ++k) {
      handles.push_back(
          q.schedule(SimTime{static_cast<std::int64_t>(k + salt)}, [] {}));
    }
    for (std::size_t k = 0; k < handles.size(); k += 3) handles[k].cancel();
    SimTime t;
    for (int k = 0; k < 50; ++k) (void)q.fire_next(SimTime::max(), t);
    return {q.live_size(), q.cancelled_total(), q.scheduled_total()};
  };

  std::vector<Audit> sequential;
  sequential.reserve(4);
  for (std::uint64_t s = 0; s < 4; ++s) sequential.push_back(pattern(s));

  std::vector<Audit> threaded(4);
  std::vector<std::thread> pool;
  pool.reserve(4);
  for (std::uint64_t s = 0; s < 4; ++s) {
    pool.emplace_back([&threaded, &pattern, s] { threaded[s] = pattern(s); });
  }
  for (auto& th : pool) th.join();

  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(threaded[s].live, sequential[s].live);
    EXPECT_EQ(threaded[s].cancelled, sequential[s].cancelled);
    EXPECT_EQ(threaded[s].scheduled, sequential[s].scheduled);
    EXPECT_EQ(threaded[s].cancelled, 86u);  // ceil(256 / 3)
  }
}

// --- termination / misc -----------------------------------------------------

TEST(ShardedSimulator, CellsWithNoChannelsJustRunLocally) {
  ShardedSimulator ss;
  ss.add_cell("a");
  ss.add_cell("b");
  // Unconnected cells run concurrently on their own shards, so anything
  // the two callbacks share must be atomic.
  std::atomic<int> fired{0};
  ss.cell(0).sim().schedule_at(10_us, [&] { ++fired; });
  ss.cell(1).sim().schedule_at(20_us, [&] { ++fired; });
  const ShardRunStats stats = ss.run(1_ms, 2);
  EXPECT_EQ(fired.load(), 2);
  EXPECT_EQ(stats.events, 2u);
  EXPECT_EQ(stats.msgs_sent, 0u);
}

TEST(ShardedSimulator, BeyondHorizonMessagesAreCountedNotExecuted) {
  ShardedSimulator ss;
  ss.add_cell("a");
  ss.add_cell("b");
  ss.connect(0, 1, 10_us);
  std::uint64_t delivered = 0;
  ss.cell(1).set_handler(
      [&](ShardedSimulator::Cell&, const ShardMsg&) { ++delivered; });
  // Sent at 95us + 10us latency = 105us > 100us horizon.
  ss.cell(0).sim().schedule_at(95_us, [&ss] {
    ShardMsg m;
    ss.cell(0).send(1, m);
  });
  const ShardRunStats stats = ss.run(100_us, 2);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(stats.msgs_sent, 1u);
  EXPECT_EQ(stats.msgs_delivered, 0u);
  EXPECT_EQ(stats.beyond_horizon, 1u);
  EXPECT_EQ(ss.cell(1).msgs_beyond_horizon(), 1u);
}

TEST(ShardedSimulator, LookaheadReportsMinInboundLatency) {
  ShardedSimulator ss;
  ss.add_cell("a");
  ss.add_cell("b");
  ss.add_cell("c");
  ss.connect(0, 2, 30_us);
  ss.connect(1, 2, 7_us);
  EXPECT_EQ(ss.cell(2).lookahead(), 7_us);
  EXPECT_EQ(ss.cell(0).lookahead(), SimTime::max());
  EXPECT_EQ(ss.cell(0).latency_to(2), 30_us);
}

// --- placement --------------------------------------------------------------

TEST(ShardedPlacement, MeasuredLptKeepsFireLogsIdenticalToReference) {
  // The core claim of the balancing work: placement decides wall-clock
  // only. A random measured profile scatters cells across shards in a
  // completely different layout than prefix-quota, and every per-cell
  // fire log must still match the single-threaded reference.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::size_t cells = 5 + seed;
    BounceWorld ref;
    build_bounce_world(ref, seed, cells);
    const BounceOutcome want = harvest(ref, ref.ss.run_reference(2_ms));

    Rng rng = Rng(seed).derive("measured-profile");
    std::vector<std::uint64_t> measured(cells);
    for (auto& w : measured) {
      w = static_cast<std::uint64_t>(rng.uniform_int(1, 100'000));
    }
    for (const std::size_t shards : {1, 2, 4, 8}) {
      BounceWorld w;
      build_bounce_world(w, seed, cells);
      w.ss.set_measured_weights(measured);
      const BounceOutcome got = harvest(w, w.ss.run(2_ms, shards));
      EXPECT_TRUE(got == want)
          << "seed=" << seed << " shards=" << shards
          << " diverged under measured LPT placement";
      // Measured weights alone select LPT: the kernel's placement rule.
      EXPECT_EQ(w.ss.partition_map(), LptPartitioner{}.assign(measured, shards))
          << "seed=" << seed << " shards=" << shards;
      EXPECT_NO_THROW(validate_assignment(w.ss.partition_map(), cells,
                                          std::min(shards, cells)));
    }
  }
}

TEST(ShardedPlacement, EqualMeasuredWeightsReproducePrefixPartition) {
  // Regression pin of the LPT tie-break rule at the kernel level: a flat
  // calibration profile carries no signal, so measured placement falls
  // back to the prefix-quota walk over those same flat weights instead of
  // inventing a round-robin scatter.
  constexpr std::size_t kCells = 9;
  const std::vector<std::uint64_t> flat(kCells, 5);
  BounceWorld a;
  build_bounce_world(a, 3, kCells);
  a.ss.set_measured_weights(flat);
  (void)a.ss.run(1_ms, 4);
  EXPECT_EQ(a.ss.partition_map(),
            PrefixQuotaPartitioner{}.assign(flat, 4));
}

TEST(ShardedPlacement, MeasuredWeightsSizeMismatchIsTyped) {
  ShardedSimulator ss;
  ss.add_cell("a");
  ss.add_cell("b");
  ss.set_measured_weights({1, 2, 3});  // 3 weights, 2 cells
  try {
    (void)ss.run(1_ms, 2);
    FAIL() << "expected PartitionError";
  } catch (const PartitionError& e) {
    EXPECT_EQ(e.code(), PartitionErrorCode::kProfileMismatch);
  }
}

TEST(ShardedPlacement, RateProfileReportsPerCellLoadInIdOrder) {
  BounceWorld w;
  build_bounce_world(w, 7, 6);
  const ShardRunStats stats = w.ss.run(2_ms, 2);
  const RateProfile profile = w.ss.rate_profile();
  ASSERT_EQ(profile.cells.size(), 6u);
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  for (std::size_t i = 0; i < profile.cells.size(); ++i) {
    EXPECT_EQ(profile.cells[i].name, "cell" + std::to_string(i));
    EXPECT_EQ(profile.cells[i].msgs,
              w.ss.cell(static_cast<std::uint32_t>(i)).msgs_delivered());
    events += profile.cells[i].events;
    msgs += profile.cells[i].msgs;
  }
  EXPECT_EQ(events, stats.events);
  EXPECT_EQ(msgs, stats.msgs_delivered);
  // The profile is itself part of the deterministic surface: a rerun at
  // a different shard count reproduces it byte for byte.
  BounceWorld w2;
  build_bounce_world(w2, 7, 6);
  (void)w2.ss.run(2_ms, 4);
  EXPECT_EQ(w2.ss.rate_profile().to_text(), profile.to_text());
}

}  // namespace
}  // namespace steelnet::sim
