// Cancellation-heavy stress for the slab event kernel: one million
// schedule/cancel/reschedule operations with interleaved fires must be
// bit-for-bit deterministic, the recycled free list must never hand a
// stale generation back to an old handle, and the exact fire order must
// match a (time, seq) binary-heap oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace steelnet::sim {
namespace {

/// Deterministic 64-bit LCG (MMIX constants) -- the test must not depend
/// on libc rand() or std::mt19937 layout.
struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  }
};

struct StressResult {
  std::uint64_t fire_digest = 1469598103934665603ULL;  // FNV-1a offset
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::size_t peak_heap = 0;
  std::size_t slot_capacity = 0;
};

constexpr std::uint64_t kOps = 1'000'000;

StressResult run_stress(std::uint64_t seed) {
  StressResult r;
  EventQueue q;
  Lcg rng{seed};

  struct Live {
    EventHandle handle;
    std::uint64_t id;
  };
  std::vector<Live> live;
  // A sample of cancelled handles, re-checked against slot recycling: if
  // the free list ever reissued a generation, one of these would report
  // pending() again.
  std::vector<EventHandle> tombstones;

  std::uint64_t next_id = 0;
  SimTime now{0};
  // Written by fire_next before each callback runs.
  SimTime fire_time{0};

  auto mix = [&r](std::uint64_t v) {
    r.fire_digest = (r.fire_digest ^ v) * 1099511628211ULL;  // FNV-1a prime
  };
  // Each fired event folds its time and its id into the digest.
  auto fire = [&mix, &fire_time](std::uint64_t id) {
    mix(static_cast<std::uint64_t>(fire_time.nanos()));
    mix(id);
  };

  auto schedule_one = [&] {
    const std::uint64_t id = next_id++;
    const SimTime at = now + SimTime{static_cast<std::int64_t>(
                                 1 + rng.next() % 10'000)};
    EventHandle h = q.schedule(at, [id, &fire] { fire(id); });
    EXPECT_TRUE(h.pending());
    live.push_back({std::move(h), id});
  };

  for (std::uint64_t op = 0; op < kOps; ++op) {
    const std::uint64_t pick = rng.next() % 100;
    if (pick < 55 || live.empty()) {
      schedule_one();
    } else if (pick < 75) {
      // Cancel a random live event (swap-remove keeps it O(1); order of
      // the live vector is itself deterministic, seeded by the LCG).
      const std::size_t i = rng.next() % live.size();
      live[i].handle.cancel();
      EXPECT_FALSE(live[i].handle.pending());
      ++r.cancelled;
      if (tombstones.size() < 4096) {
        tombstones.push_back(std::move(live[i].handle));
      }
      live[i] = std::move(live.back());
      live.pop_back();
    } else if (pick < 85) {
      // Reschedule: cancel then schedule the same id at a new time.
      const std::size_t i = rng.next() % live.size();
      const std::uint64_t id = live[i].id;
      live[i].handle.cancel();
      ++r.cancelled;
      const SimTime at = now + SimTime{static_cast<std::int64_t>(
                                   1 + rng.next() % 10'000)};
      live[i].handle = q.schedule(at, [id, &fire] { fire(id); });
      EXPECT_TRUE(live[i].handle.pending());
    } else {
      // Fire a burst: advance time and pop everything now due.
      now = now + SimTime{static_cast<std::int64_t>(rng.next() % 2'000)};
      while (q.fire_next(now, fire_time)) ++r.fired;
      // Drop handles of events that just fired so `live` stays bounded.
      std::size_t w = 0;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].handle.pending()) {
          if (w != i) live[w] = std::move(live[i]);
          ++w;
        }
      }
      live.resize(w);
    }
    r.peak_heap = std::max(r.peak_heap, q.heap_size());
  }

  // Drain the remainder.
  while (q.fire_next(SimTime::max(), fire_time)) ++r.fired;

  // No cancelled handle may ever come back to life: generations are
  // monotonic per slot, so recycling cannot reissue one.
  for (const EventHandle& h : tombstones) EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.live_size(), 0u);

  r.slot_capacity = q.slot_capacity();
  return r;
}

TEST(EventStress, MillionOpsDeterministicAndNoStaleGenerations) {
  const StressResult a = run_stress(0x5731'dead'beefULL);
  const StressResult b = run_stress(0x5731'dead'beefULL);

  // Same seed => byte-identical fire sequence (ids and times).
  EXPECT_EQ(a.fire_digest, b.fire_digest);
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.cancelled, b.cancelled);

  // Everything scheduled either fired or was cancelled -- the lazy
  // reclamation path leaks nothing.
  EXPECT_GT(a.fired, 100'000u);
  EXPECT_GT(a.cancelled, 100'000u);

  // The slab recycles: every heap entry owns exactly one slot until it
  // is popped or reclaimed, so capacity is bounded by the peak heap
  // working set -- not by the million-op throughput.
  EXPECT_LE(a.slot_capacity, a.peak_heap);
  EXPECT_LT(a.slot_capacity, 500'000u);  // nowhere near kOps

  // A different seed exercises a different interleaving.
  const StressResult c = run_stress(0x1234'5678ULL);
  EXPECT_NE(c.fire_digest, a.fire_digest);
}

/// The exact fire order against a (time, seq) oracle: a binary heap kept
/// here through std::push_heap/std::pop_heap, with its own cancelled set.
/// Times fall in a narrow window, so most bursts hold equal-time ties,
/// which must fire in scheduling order.
TEST(EventStress, FireOrderMatchesTimeSeqOracle) {
  struct Pending {
    std::int64_t time;
    std::uint64_t id;  ///< scheduling order, the oracle's seq
  };
  const auto later = [](const Pending& a, const Pending& b) {
    return a.time != b.time ? a.time > b.time : a.id > b.id;
  };
  struct Fired {
    std::int64_t time;
    std::uint64_t id;
    bool operator==(const Fired&) const = default;
  };

  EventQueue q;
  Lcg rng{0x0dd5'eed5ULL};
  std::vector<Pending> oracle;  // min-heap under `later`
  std::vector<bool> cancelled;  // by id
  struct Live {
    std::uint64_t id;
    EventHandle handle;
  };
  std::vector<Live> live;
  std::vector<Fired> got;
  std::vector<Fired> want;
  SimTime now{0};
  SimTime fire_time{0};
  std::uint64_t ops = 0;
  std::uint64_t fired = 0;
  std::uint64_t ties = 0;

  while (ops < kOps) {
    const std::uint64_t pick = rng.next() % 100;
    if (pick < 55 || live.empty()) {
      const std::uint64_t id = cancelled.size();
      const std::int64_t at =
          now.nanos() + static_cast<std::int64_t>(rng.next() % 16);
      cancelled.push_back(false);
      oracle.push_back({at, id});
      std::push_heap(oracle.begin(), oracle.end(), later);
      live.push_back({id, q.schedule(SimTime{at}, [&got, &fire_time, id] {
                        got.push_back({fire_time.nanos(), id});
                      })});
      ++ops;
    } else if (pick < 75) {
      const std::size_t i = rng.next() % live.size();
      if (live[i].handle.pending()) {
        live[i].handle.cancel();
        cancelled[live[i].id] = true;
      }
      live[i] = std::move(live.back());
      live.pop_back();
      ++ops;
    } else {
      now = now + SimTime{static_cast<std::int64_t>(rng.next() % 24)};
      got.clear();
      while (q.fire_next(now, fire_time)) ++ops;
      want.clear();
      while (!oracle.empty() && oracle.front().time <= now.nanos()) {
        std::pop_heap(oracle.begin(), oracle.end(), later);
        const Pending p = oracle.back();
        oracle.pop_back();
        if (!cancelled[p.id]) want.push_back({p.time, p.id});
      }
      ASSERT_EQ(got, want) << "after " << ops << " operations";
      for (std::size_t k = 1; k < got.size(); ++k) {
        ties += got[k].time == got[k - 1].time ? 1 : 0;
      }
      fired += got.size();
      std::erase_if(live, [](const Live& l) { return !l.handle.pending(); });
    }
  }
  std::size_t oracle_live = 0;
  for (const Pending& p : oracle) oracle_live += cancelled[p.id] ? 0 : 1;
  EXPECT_EQ(q.live_size(), oracle_live);

  EXPECT_GT(fired, 200'000u);
  EXPECT_GT(ties, 20'000u);  // equal-time order is really exercised
}

}  // namespace
}  // namespace steelnet::sim
