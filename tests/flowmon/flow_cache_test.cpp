#include "flowmon/flow_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace steelnet::flowmon {
namespace {

using namespace steelnet::sim::literals;

net::Frame make_frame(std::uint64_t src, std::uint64_t dst,
                      std::size_t payload = 100, std::uint8_t pcp = 0) {
  net::Frame f;
  f.src = net::MacAddress{src};
  f.dst = net::MacAddress{dst};
  f.pcp = pcp;
  f.payload.assign(payload, 0);
  return f;
}

FlowCacheConfig with_capacity(std::size_t capacity) {
  FlowCacheConfig cfg;
  cfg.capacity = capacity;
  return cfg;
}

TEST(FlowKey, IdentityAndHashStability) {
  const auto f = make_frame(1, 2, 64, 3);
  const FlowKey k = FlowKey::of(f);
  EXPECT_EQ(k.src.bits(), 1u);
  EXPECT_EQ(k.dst.bits(), 2u);
  EXPECT_EQ(k.pcp, 3);
  EXPECT_EQ(k, FlowKey::of(f));
  EXPECT_EQ(k.hash(), FlowKey::of(f).hash());
  // Different pcp -> different flow.
  const FlowKey k2 = FlowKey::of(make_frame(1, 2, 64, 4));
  EXPECT_FALSE(k == k2);
  // PCP is masked to its 3 wire bits.
  net::Frame weird = make_frame(1, 2);
  weird.pcp = 0x7 | 0x10;
  EXPECT_EQ(FlowKey::of(weird).pcp, 0x7);
}

TEST(FlowCache, FindOrCreateAccumulates) {
  FlowCache cache{with_capacity(64)};
  const auto f = make_frame(1, 2, 150);
  EXPECT_NE(cache.record(f, 1_us), nullptr);
  EXPECT_NE(cache.record(f, 2_us), nullptr);
  const FlowRecord* r = cache.find(FlowKey::of(f));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->packets, 2u);
  EXPECT_EQ(r->bytes, 300u);
  // wire bytes: 150 payload + 18 L2 overhead, no VLAN tag, no padding.
  EXPECT_EQ(r->wire_bytes, 2 * (150 + 18));
  EXPECT_EQ(r->first_seen, 1_us);
  EXPECT_EQ(r->last_seen, 2_us);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(FlowCache, InterArrivalStatistics) {
  FlowCache cache{with_capacity(64)};
  const auto f = make_frame(1, 2);
  // Arrivals at 0, 100, 210, 300 us: IATs 100, 110, 90.
  for (std::int64_t t : {0, 100, 210, 300}) {
    cache.record(f, sim::microseconds(t));
  }
  const FlowRecord* r = cache.find(FlowKey::of(f));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->min_iat, 90_us);
  EXPECT_EQ(r->mean_iat(), 100_us);
  // Jitter: mean of |110-100| and |90-110| = (10+20)/2 = 15 us.
  EXPECT_EQ(r->mean_jitter(), 15_us);
}

TEST(FlowCache, IatUndefinedBelowThreePackets) {
  FlowCache cache{with_capacity(64)};
  const auto f = make_frame(1, 2);
  cache.record(f, 1_ms);
  const FlowRecord* r = cache.find(FlowKey::of(f));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->mean_iat(), sim::SimTime::zero());
  EXPECT_EQ(r->mean_jitter(), sim::SimTime::zero());
  cache.record(f, 2_ms);
  EXPECT_EQ(r->mean_iat(), 1_ms);
  EXPECT_EQ(r->mean_jitter(), sim::SimTime::zero());
}

TEST(FlowCache, CapacityRoundsUpAndCapsLoad) {
  FlowCache cache{with_capacity(10)};  // rounds to 16; load cap 12
  EXPECT_EQ(cache.capacity(), 16u);
  EXPECT_EQ(cache.load_cap(), 12u);
  for (std::uint64_t i = 0; i < 12; ++i) {
    EXPECT_NE(cache.record(make_frame(i + 1, 99), 1_us), nullptr);
  }
  // Table at the cap: a new flow is refused ...
  EXPECT_EQ(cache.record(make_frame(100, 99), 2_us), nullptr);
  EXPECT_EQ(cache.stats().dropped_full, 1u);
  // ... but existing flows keep metering.
  EXPECT_NE(cache.record(make_frame(5, 99), 3_us), nullptr);
  EXPECT_EQ(cache.size(), 12u);
}

TEST(FlowCache, EraseKeepsClustersReachable) {
  // Fill a small table to force collision clusters, erase every other
  // flow, and verify backward-shift compaction keeps every survivor
  // findable (the classic open-addressing deletion bug this guards).
  FlowCache cache{with_capacity(32)};  // load cap 24
  std::vector<FlowKey> keys;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const auto f = make_frame(i * 7 + 1, 42);
    ASSERT_NE(cache.record(f, sim::microseconds(std::int64_t(i))), nullptr);
    keys.push_back(FlowKey::of(f));
  }
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(cache.erase(keys[i]));
  }
  EXPECT_EQ(cache.size(), 12u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const FlowRecord* r = cache.find(keys[i]);
    if (i % 2 == 0) {
      EXPECT_EQ(r, nullptr);
    } else {
      ASSERT_NE(r, nullptr);
      EXPECT_EQ(r->key, keys[i]);
    }
  }
  // Erasing a missing key is a no-op.
  EXPECT_FALSE(cache.erase(keys[0]));
  // Freed slots are reusable.
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    const auto f = make_frame(keys[i].src.bits(), 42);
    EXPECT_NE(cache.record(f, 1_ms), nullptr);
  }
  EXPECT_EQ(cache.size(), 24u);
}

TEST(FlowCache, ForEachVisitsEveryLiveRecord) {
  FlowCache cache{with_capacity(64)};
  for (std::uint64_t i = 1; i <= 10; ++i) {
    cache.record(make_frame(i, 2), 1_us);
  }
  std::size_t seen = 0;
  std::uint64_t src_sum = 0;
  cache.for_each([&](const FlowRecord& r) {
    ++seen;
    src_sum += r.key.src.bits();
  });
  EXPECT_EQ(seen, 10u);
  EXPECT_EQ(src_sum, 55u);
}

// ---------------------------------------------------------------------
// The index/slab layout against a std::map model and the old slot order.

bool same_record(const FlowRecord& a, const FlowRecord& b) {
  return a.key == b.key && a.packets == b.packets && a.bytes == b.bytes &&
         a.wire_bytes == b.wire_bytes && a.first_seen == b.first_seen &&
         a.last_seen == b.last_seen && a.last_export == b.last_export &&
         a.min_iat == b.min_iat && a.iat_sum_ns == b.iat_sum_ns &&
         a.iat_jitter_sum_ns == b.iat_jitter_sum_ns &&
         a.prev_iat == b.prev_iat;
}

/// What a flow cache holds and counts, with no layout at all: the
/// record semantics of FlowCache over a std::map.
struct MapModel {
  FlowCacheConfig cfg;
  std::size_t load_cap;
  std::map<FlowKey, FlowRecord> flows;
  FlowCacheStats stats;

  bool record(const net::Frame& f, sim::SimTime now) {
    const FlowKey key = FlowKey::of(f);
    ++stats.lookups;
    auto it = flows.find(key);
    if (it == flows.end()) {
      if (flows.size() >= load_cap) {
        ++stats.dropped_full;
        return false;
      }
      ++stats.inserts;
      FlowRecord r;
      r.key = key;
      r.first_seen = r.last_seen = r.last_export = now;
      it = flows.emplace(key, r).first;
    } else {
      ++stats.hits;
      FlowRecord& r = it->second;
      const sim::SimTime iat = now - r.last_seen;
      r.min_iat = std::min(r.min_iat, iat);
      r.iat_sum_ns += iat.nanos();
      if (r.packets >= 2) {
        r.iat_jitter_sum_ns += std::abs(iat.nanos() - r.prev_iat.nanos());
      }
      r.prev_iat = iat;
    }
    FlowRecord& r = it->second;
    ++r.packets;
    r.bytes += f.payload.size();
    r.wire_bytes += f.wire_bytes();
    r.last_seen = now;
    return true;
  }

  const FlowRecord* find(const FlowKey& key) {
    ++stats.lookups;
    const auto it = flows.find(key);
    if (it == flows.end()) return nullptr;
    ++stats.hits;
    return &it->second;
  }

  bool erase(const FlowKey& key) {
    if (flows.erase(key) == 0) return false;
    ++stats.erased;
    return true;
  }

  /// The records a sweep at `now` emits, in canonical order, applying
  /// the sweep to the model.
  std::vector<std::pair<FlowRecord, EndReason>> sweep(sim::SimTime now) {
    std::vector<std::pair<FlowRecord, EndReason>> due;
    for (const auto& [key, r] : flows) {
      if (now - r.last_seen >= cfg.idle_timeout) {
        due.emplace_back(r, EndReason::kIdleTimeout);
      } else if (now - r.last_export >= cfg.active_timeout) {
        due.emplace_back(r, EndReason::kActiveTimeout);
      }
    }
    std::stable_sort(due.begin(), due.end(), [](const auto& a, const auto& b) {
      return a.first.first_seen < b.first.first_seen;
    });
    for (const auto& [r, reason] : due) {
      if (reason == EndReason::kIdleTimeout) {
        erase(r.key);
      } else {
        flows.at(r.key).last_export = now;
      }
    }
    return due;
  }
};

testing::AssertionResult same_stats(const FlowCacheStats& got,
                                    const FlowCacheStats& want) {
  if (got.lookups == want.lookups && got.hits == want.hits &&
      got.inserts == want.inserts && got.erased == want.erased &&
      got.dropped_full == want.dropped_full) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << "lookups " << got.lookups << "/" << want.lookups << ", hits "
         << got.hits << "/" << want.hits << ", inserts " << got.inserts << "/"
         << want.inserts << ", erased " << got.erased << "/" << want.erased
         << ", dropped_full " << got.dropped_full << "/" << want.dropped_full;
}

testing::AssertionResult same_contents(const FlowCache& cache,
                                       const MapModel& model) {
  std::size_t seen = 0;
  std::size_t bad = 0;
  cache.for_each([&](const FlowRecord& r) {
    ++seen;
    const auto it = model.flows.find(r.key);
    if (it == model.flows.end() || !same_record(r, it->second)) ++bad;
  });
  if (cache.size() == model.flows.size() && seen == model.flows.size() &&
      bad == 0) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << "size " << cache.size() << ", for_each visited " << seen
         << " (" << bad << " missing from or unequal to the model), model "
         << model.flows.size();
}

TEST(FlowCache, IndexAndSlabMatchAMapModelNearTheLoadCap) {
  // 240k seeded record / find / erase operations, with a sweep every
  // wheel tick and one flush half-way, on a 256-slot table held near its
  // 192-flow load cap. A third of the keys hash into the last 16 slots,
  // so probe clusters keep wrapping from the table end to slot 0 and
  // backward-shift erase has to move entries across the wrap.
  FlowCacheConfig cfg;
  cfg.capacity = 256;
  cfg.idle_timeout = 3_ms;
  cfg.active_timeout = 8_ms;
  cfg.wheel_tick = 1_ms;
  FlowCache cache{cfg};
  MapModel model{cfg, cache.load_cap(), {}, {}};
  const std::size_t mask = cache.capacity() - 1;

  // Every third key is one homed in the last 16 slots.
  std::vector<net::Frame> frames;
  for (std::uint64_t src = 1; frames.size() < 480; ++src) {
    net::Frame f = make_frame(src, 0x77, 40 + src % 200, src % 8);
    const bool tail = (FlowKey::of(f).hash() & mask) + 16 > mask;
    if (!tail && frames.size() % 3 == 0) continue;
    frames.push_back(std::move(f));
  }

  sim::Rng rng{2027};
  sim::SimTime now;
  sim::SimTime next_sweep = 1_ms;
  std::size_t sweeps = 0, emitted = 0, wrapped_first = 0, at_cap = 0;
  constexpr int kOps = 240'000;
  for (int op = 0; op < kOps; ++op) {
    now += sim::nanoseconds(rng.uniform_int(0, 10'000));
    // Hot keys a fifth of the time, else any key.
    const auto k = static_cast<std::size_t>(
        rng.bernoulli(0.2) ? rng.uniform_int(0, 47)
                           : rng.uniform_int(0, std::int64_t(frames.size()) - 1));
    const FlowKey key = FlowKey::of(frames[k]);
    const std::int64_t what = rng.uniform_int(0, 99);
    if (what < 60) {
      const FlowRecord* got = cache.record(frames[k], now);
      ASSERT_EQ(got != nullptr, model.record(frames[k], now)) << "op " << op;
      if (got != nullptr) {
        ASSERT_TRUE(same_record(*got, model.flows.at(key))) << "op " << op;
      }
    } else if (what < 85) {
      const FlowRecord* got = cache.find(key);
      const FlowRecord* want = model.find(key);
      ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
      if (got != nullptr) {
        ASSERT_TRUE(same_record(*got, *want)) << "op " << op;
      }
    } else {
      ASSERT_EQ(cache.erase(key), model.erase(key)) << "op " << op;
    }
    ASSERT_EQ(cache.size(), model.flows.size()) << "op " << op;

    if (op == kOps / 2) {
      std::vector<FlowKey> got;
      cache.flush([&](const FlowRecord& r, EndReason reason) {
        EXPECT_EQ(reason, EndReason::kForcedEnd);
        EXPECT_TRUE(same_record(r, model.flows.at(r.key)));
        got.push_back(r.key);
      });
      std::vector<std::pair<sim::SimTime, FlowKey>> want;
      for (const auto& [key, r] : model.flows) want.emplace_back(r.first_seen, key);
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i].second) << "flush record " << i;
      }
      model.stats.erased += model.flows.size();
      model.flows.clear();
    }
    bool check = op % 512 == 0;
    if (now >= next_sweep) {
      const auto want = model.sweep(now);
      std::size_t i = 0;
      cache.sweep(now, [&](const FlowRecord& r, EndReason reason) {
        ASSERT_LT(i, want.size());
        EXPECT_TRUE(same_record(r, want[i].first) && reason == want[i].second)
            << "sweep at " << now.nanos() << " ns, record " << i;
        ++i;
      });
      ASSERT_EQ(i, want.size()) << "sweep at " << now.nanos() << " ns";
      emitted += i;
      ++sweeps;
      next_sweep = now + cfg.wheel_tick;
      check = true;
    }
    if (check) {
      ASSERT_TRUE(same_contents(cache, model)) << "op " << op;
      ASSERT_TRUE(same_stats(cache.stats(), model.stats)) << "op " << op;
      // The lowest occupied slot holds a key homed in the table's tail:
      // its cluster wrapped past the end.
      bool first = true;
      cache.for_each([&](const FlowRecord& r) {
        if (first && (r.key.hash() & mask) + 16 > mask) ++wrapped_first;
        first = false;
      });
      if (cache.size() == cache.load_cap()) ++at_cap;
    }
  }
  ASSERT_TRUE(same_contents(cache, model));
  EXPECT_TRUE(same_stats(cache.stats(), model.stats));
  // The history really ran near the cap, wrapped and expired flows.
  EXPECT_GT(model.stats.dropped_full, 1000u);
  EXPECT_GT(at_cap, 10u);
  EXPECT_GT(wrapped_first, 100u);
  EXPECT_GT(model.stats.erased, 20'000u);
  EXPECT_GT(sweeps, 1000u);
  EXPECT_GT(emitted, 10'000u);
}

TEST(FlowCache, ForEachSlotOrderIsPinned) {
  // for_each visits records in hash-table slot order, a function of the
  // insert/erase history alone. The digest of that order (and the probe
  // count) after a seeded history is pinned: the index/slab split keeps
  // exactly the slot order of the single-table layout it replaced.
  FlowCache cache{with_capacity(1024)};
  sim::Rng rng{7};
  std::vector<FlowKey> live;
  for (int op = 0; op < 20'000; ++op) {
    if (live.empty() || rng.bernoulli(0.55)) {
      const auto src = static_cast<std::uint64_t>(rng.uniform_int(1, 4000));
      const auto f = make_frame(src, 0x99, 64, src % 8);
      if (cache.find(FlowKey::of(f)) == nullptr &&
          cache.record(f, sim::microseconds(op)) != nullptr) {
        live.push_back(FlowKey::of(f));
      }
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, std::int64_t(live.size()) - 1));
      ASSERT_TRUE(cache.erase(live[i]));
      live[i] = live.back();
      live.pop_back();
    }
  }
  std::uint64_t fnv = 1469598103934665603ULL;
  std::size_t visited = 0;
  cache.for_each([&](const FlowRecord& r) {
    for (const std::uint64_t v : {r.key.src.bits(), r.key.dst.bits(),
                                  std::uint64_t{r.key.pcp}}) {
      fnv = (fnv ^ v) * 1099511628211ULL;
    }
    ++visited;
  });
  EXPECT_EQ(visited, live.size());
  EXPECT_EQ(cache.size(), live.size());
  EXPECT_EQ(fnv, 0x93ae782bcb872d5aULL) << std::hex << fnv;
  EXPECT_EQ(cache.stats().probes, 70'542u);
}

// ---------------------------------------------------------------------
// Expiry: the timer wheel against the full-table scan it replaced.

struct Due {
  FlowKey key;
  EndReason reason;
  bool operator==(const Due&) const = default;
};

/// The scan walk, kept as the wheel's reference oracle: every flow a
/// full-table walk finds due at `now` -- idle first, else an active
/// checkpoint -- in the canonical (first_seen, FlowKey) order. Uses only
/// the public API; call it just before the sweep it predicts.
std::vector<Due> scan_oracle(const FlowCache& cache, sim::SimTime now) {
  const FlowCacheConfig& cfg = cache.config();
  std::vector<std::pair<const FlowRecord*, EndReason>> due;
  cache.for_each([&](const FlowRecord& r) {
    if (now - r.last_seen >= cfg.idle_timeout) {
      due.emplace_back(&r, EndReason::kIdleTimeout);
    } else if (now - r.last_export >= cfg.active_timeout) {
      due.emplace_back(&r, EndReason::kActiveTimeout);
    }
  });
  std::sort(due.begin(), due.end(), [](const auto& a, const auto& b) {
    if (!(a.first->first_seen == b.first->first_seen)) {
      return a.first->first_seen < b.first->first_seen;
    }
    return a.first->key < b.first->key;
  });
  std::vector<Due> out;
  out.reserve(due.size());
  for (const auto& [r, reason] : due) out.push_back({r->key, reason});
  return out;
}

/// Sweeps `cache` at `now`, passing every emitted record on to `fn`, and
/// checks the emitted (key, reason) sequence against the oracle's.
testing::AssertionResult sweep_matches_oracle(
    FlowCache& cache, sim::SimTime now, const FlowCache::ExportFn& fn) {
  const std::vector<Due> expected = scan_oracle(cache, now);
  std::vector<Due> got;
  cache.sweep(now, [&](const FlowRecord& r, EndReason reason) {
    got.push_back({r.key, reason});
    fn(r, reason);
  });
  if (got == expected) return testing::AssertionSuccess();
  std::size_t i = 0;
  while (i < got.size() && i < expected.size() && got[i] == expected[i]) ++i;
  return testing::AssertionFailure()
         << "sweep at " << now.nanos() << " ns emitted " << got.size()
         << " records, the scan oracle " << expected.size()
         << "; first difference at record " << i;
}

FlowCacheConfig expiry_config() {
  FlowCacheConfig cfg;
  cfg.capacity = 256;
  cfg.idle_timeout = 10_ms;
  cfg.active_timeout = 40_ms;
  cfg.wheel_tick = 2_ms;
  return cfg;
}

/// Drives one cache through a deterministic arrival pattern with sweeps
/// every 2 ms, each checked against the oracle; returns the reason of
/// every emitted record in emission order.
std::vector<EndReason> drive() {
  FlowCache cache{expiry_config()};
  std::vector<EndReason> out;
  sim::SimTime now;
  const auto emit = [&](const FlowRecord&, EndReason reason) {
    out.push_back(reason);
  };
  // 40 flows with staggered starts and varying cadences; a few share a
  // deadline tick so the canonical (first_seen, key) ordering matters.
  for (std::int64_t t = 0; t < 120; ++t) {
    now = sim::milliseconds(t);
    for (std::uint64_t f = 0; f < 40; ++f) {
      const std::int64_t start = std::int64_t(f) % 7;
      const std::int64_t period = 1 + std::int64_t(f) % 3;
      const std::int64_t stop = 30 + std::int64_t(f * 2);
      if (t >= start && t <= stop && (t - start) % period == 0) {
        cache.record(make_frame(f + 1, 99), now);
      }
    }
    if (t % 2 == 0) {
      EXPECT_TRUE(sweep_matches_oracle(cache, now, emit));
    }
  }
  now = sim::milliseconds(200);
  // Everything is idle by now, so the cache is already empty after this.
  EXPECT_TRUE(sweep_matches_oracle(cache, now, emit));
  EXPECT_EQ(cache.flush(emit), 0u);
  return out;
}

TEST(FlowCache, WheelAndScanEmitByteIdenticalStreams) {
  const auto reasons = drive();
  // The pattern exercised both expiry paths.
  EXPECT_NE(std::count(reasons.begin(), reasons.end(),
                       EndReason::kIdleTimeout), 0);
  EXPECT_NE(std::count(reasons.begin(), reasons.end(),
                       EndReason::kActiveTimeout), 0);
}

TEST(FlowCache, EvictionOrderIsCanonicalNotSlotOrder) {
  // Several flows expire in the same sweep; they must come out sorted by
  // (first_seen, key), independent of hash/slot placement.
  FlowCache cache{expiry_config()};
  // Insert in deliberately scrambled key order at two distinct times.
  for (const std::uint64_t src : {9ULL, 3ULL, 7ULL, 1ULL}) {
    cache.record(make_frame(src, 99), 1_ms);
  }
  for (const std::uint64_t src : {8ULL, 2ULL}) {
    cache.record(make_frame(src, 99), 2_ms);
  }
  std::vector<std::uint64_t> order;
  EXPECT_TRUE(
      sweep_matches_oracle(cache, 100_ms, [&](const FlowRecord& r, EndReason) {
        order.push_back(r.key.src.bits());
      }));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 7, 9, 2, 8}));
}

struct OracleRun {
  std::uint64_t idle = 0, active = 0, touches = 0, sweeps = 0;
  FlowCacheStats stats;
};

/// The shape of the retired tab_flowmon cache-scaling curve: 100k
/// single-packet flows whose arrivals spread over 60 s, a 500 ms idle
/// timeout and a 100 ms wheel tick, swept from 500 ms until the cache
/// drains, every sweep checked against the scan oracle. Consecutive
/// sweeps are `min_gap`..`max_gap` apart (seeded). A second segment of
/// 4096 flows starts in same-instant batches of 8 with scrambled keys and
/// is touched again at random between sweeps -- a hot half often, a cold
/// half rarely -- so it mixes idle evictions, re-inserts and
/// active-timeout checkpoints.
void run_100k_against_oracle(sim::SimTime min_gap, sim::SimTime max_gap,
                             OracleRun* run) {
  constexpr std::int64_t kFlows = 100'000;
  constexpr std::int64_t kSpreadNs = 60'000'000'000;
  constexpr std::uint64_t kMixed = 4096;
  FlowCacheConfig cfg;
  cfg.capacity = kFlows + kFlows / 2;
  cfg.idle_timeout = 500_ms;
  cfg.active_timeout = 2_s;
  cfg.wheel_tick = 100_ms;
  FlowCache cache{cfg};

  net::Frame frame = make_frame(0, 0x5d'0000'000001ULL, 64);
  for (std::int64_t i = 0; i < kFlows; ++i) {
    frame.src = net::MacAddress{0x5a'0000'000000ULL + std::uint64_t(i)};
    ASSERT_NE(cache.record(frame, sim::SimTime{i * kSpreadNs / kFlows}),
              nullptr);
  }
  // An odd multiplier permutes [0, kMixed): unique keys, not in j order.
  const auto mixed_src = [](std::uint64_t j) {
    return net::MacAddress{0x6a'0000'000000ULL + j * 2654435761ULL % kMixed};
  };
  for (std::uint64_t j = 0; j < kMixed; ++j) {
    frame.src = mixed_src(j);
    ASSERT_NE(cache.record(frame, sim::microseconds(std::int64_t(j / 8) * 100)),
              nullptr);
  }
  ASSERT_EQ(cache.size(), std::size_t(kFlows) + kMixed);

  sim::Rng rng{26};
  std::vector<std::pair<std::int64_t, std::uint64_t>> touches(1024);
  const auto count = [&](const FlowRecord&, EndReason reason) {
    (reason == EndReason::kIdleTimeout ? run->idle : run->active) += 1;
  };
  sim::SimTime prev = 500_ms - max_gap;
  for (sim::SimTime t = 500_ms; cache.size() != 0;) {
    ASSERT_LT(t, 70_s) << "the cache never drained";
    if (t <= 30_s) {
      // Touches since the previous sweep, in time order.
      for (auto& [at, j] : touches) {
        at = rng.uniform_int(prev.nanos() + 1, t.nanos());
        const auto half = static_cast<std::int64_t>(kMixed / 2);
        j = static_cast<std::uint64_t>(rng.bernoulli(0.75)
                                           ? rng.uniform_int(0, half - 1)
                                           : rng.uniform_int(half, 2 * half - 1));
      }
      std::sort(touches.begin(), touches.end());
      for (const auto& [at, j] : touches) {
        frame.src = mixed_src(j);
        ASSERT_NE(cache.record(frame, sim::SimTime{at}), nullptr);
      }
      run->touches += touches.size();
    }
    ASSERT_TRUE(sweep_matches_oracle(cache, t, count));
    ++run->sweeps;
    prev = t;
    t += min_gap == max_gap
             ? min_gap
             : sim::SimTime{rng.uniform_int(min_gap.nanos(), max_gap.nanos())};
  }
  run->stats = cache.stats();
}

TEST(FlowCache, WheelMatchesScanOracleOver100kLiveFlows) {
  // Sweeps exactly one wheel tick apart, as MeterPoint runs them.
  OracleRun run;
  run_100k_against_oracle(100_ms, 100_ms, &run);
  if (HasFatalFailure()) return;
  EXPECT_GT(run.idle, 100'000u + 4096);  // re-inserts expire too
  EXPECT_GT(run.active, 1000u);
  EXPECT_GT(run.stats.wheel_rearms, 1000u);
}

TEST(FlowCache, WheelMatchesScanOracleAtIrregularSubTickSweeps) {
  // The same flows swept at irregular times 0.3..1.7 wheel ticks apart:
  // sweeps inside one tick and sweeps that skip a tick boundary both emit
  // exactly what the scan finds due.
  OracleRun run;
  run_100k_against_oracle(30_ms, 170_ms, &run);
  if (HasFatalFailure()) return;
  EXPECT_GT(run.sweeps, 500u);
  EXPECT_GT(run.idle, 100'000u + 4096);
  EXPECT_GT(run.active, 1000u);
  // A timer fires only when its deadline has passed, so every re-arm is
  // a flow touched since its deadline was computed: at most one per touch.
  EXPECT_GT(run.stats.wheel_rearms, 1000u);
  EXPECT_LE(run.stats.wheel_rearms, run.touches);
  EXPECT_EQ(run.stats.wheel_fires,
            run.idle + run.active + run.stats.wheel_rearms);
}

TEST(FlowCache, SilentFlowFiresOnceWithoutRearm) {
  // A flow seen once is due exactly at last_seen + idle_timeout. Its timer
  // fires at the first sweep at or after that instant -- not at the
  // rounded-down wheel tick -- so it is never re-armed, whatever the
  // sweep spacing (here 0.35 ticks).
  FlowCache cache{expiry_config()};  // 2 ms tick, 10 ms idle timeout
  cache.record(make_frame(1, 2), sim::SimTime{1'300'000});
  std::vector<std::int64_t> emitted_at;
  sim::SimTime t;
  for (int k = 1; k <= 60; ++k) {
    t = sim::SimTime{k * 700'000};
    cache.sweep(t, [&](const FlowRecord& r, EndReason reason) {
      EXPECT_EQ(reason, EndReason::kIdleTimeout);
      EXPECT_EQ(r.key.src.bits(), 1u);
      emitted_at.push_back(t.nanos());
    });
  }
  // 11.3 ms is due; the first sweep at or after it is 17 x 0.7 = 11.9 ms.
  EXPECT_EQ(emitted_at, (std::vector<std::int64_t>{11'900'000}));
  EXPECT_EQ(cache.stats().wheel_fires, 1u);
  EXPECT_EQ(cache.stats().wheel_rearms, 0u);
}

TEST(FlowCache, FlushEmitsCanonicallyAndEmpties) {
  FlowCache cache{expiry_config()};
  for (const std::uint64_t src : {5ULL, 2ULL, 9ULL}) {
    cache.record(make_frame(src, 99), 1_ms);
  }
  std::vector<std::uint64_t> order;
  const std::size_t n = cache.flush([&](const FlowRecord& r, EndReason e) {
    EXPECT_EQ(e, EndReason::kForcedEnd);
    order.push_back(r.key.src.bits());
  });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 5, 9}));
  EXPECT_EQ(cache.size(), 0u);
  // The wheel forgot its timers too: nothing fires later.
  std::size_t fired = 0;
  cache.sweep(1_s, [&](const FlowRecord&, EndReason) { ++fired; });
  EXPECT_EQ(fired, 0u);
}

TEST(FlowCache, WheelSurvivesEraseCompactionMoves) {
  // Backward-shift compaction moves index entries between slots; the
  // wheel timers name slab records, which must not move with them, or
  // expiry would fire on stale records. Erase half the flows, then expire
  // the rest and check exactly the survivors come out.
  FlowCache cache{expiry_config()};
  std::vector<FlowKey> keys;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const auto f = make_frame(i * 7 + 1, 42);
    ASSERT_NE(cache.record(f, 1_ms), nullptr);
    keys.push_back(FlowKey::of(f));
  }
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(cache.erase(keys[i]));
  }
  std::vector<std::uint64_t> out;
  cache.sweep(100_ms, [&](const FlowRecord& r, EndReason) {
    out.push_back(r.key.src.bits());
  });
  ASSERT_EQ(out.size(), 12u);
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 1; i < keys.size(); i += 2) {
    expected.push_back(keys[i].src.bits());
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(out, expected);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FlowCache, WheelStatsCountFiresAndRearms) {
  FlowCache cache{expiry_config()};
  cache.record(make_frame(1, 2), 1_ms);
  cache.record(make_frame(1, 2), 5_ms);
  std::size_t emitted = 0;
  const auto count = [&](const FlowRecord&, EndReason) { ++emitted; };
  // The timer armed for the 11 ms idle deadline fires at the 12 ms sweep,
  // finds the flow seen again at 5 ms, and re-arms for 15 ms.
  cache.sweep(12_ms, count);
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(cache.stats().wheel_fires, 1u);
  EXPECT_EQ(cache.stats().wheel_rearms, 1u);
  cache.sweep(100_ms, count);
  EXPECT_EQ(emitted, 1u);
  EXPECT_EQ(cache.stats().wheel_fires, 2u);
  EXPECT_EQ(cache.stats().wheel_rearms, 1u);
}

}  // namespace
}  // namespace steelnet::flowmon
