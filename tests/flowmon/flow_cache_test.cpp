#include "flowmon/flow_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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
  EXPECT_EQ(r->max_iat, 110_us);
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
// Expiry engines: canonical eviction order, wheel/scan equivalence.

FlowCacheConfig engine_config(ExpiryEngine engine) {
  FlowCacheConfig cfg;
  cfg.capacity = 256;
  cfg.idle_timeout = 10_ms;
  cfg.active_timeout = 40_ms;
  cfg.engine = engine;
  cfg.wheel_tick = 2_ms;
  return cfg;
}

struct Emitted {
  FlowKey key;
  std::uint64_t packets;
  EndReason reason;
  sim::SimTime at;
  bool operator==(const Emitted&) const = default;
};

/// Drives one cache through a deterministic arrival pattern with sweeps
/// every 2 ms; returns every emitted record in emission order.
std::vector<Emitted> drive(ExpiryEngine engine) {
  FlowCache cache{engine_config(engine)};
  std::vector<Emitted> out;
  sim::SimTime now;
  const auto emit = [&](const FlowRecord& r, EndReason reason) {
    out.push_back({r.key, r.packets, reason, now});
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
    if (t % 2 == 0) cache.sweep(now, emit);
  }
  now = sim::milliseconds(200);
  cache.sweep(now, emit);  // everything idle by now
  cache.flush(emit);       // and the cache must already be empty
  return out;
}

TEST(FlowCache, WheelAndScanEmitByteIdenticalStreams) {
  const auto scan = drive(ExpiryEngine::kScan);
  const auto wheel = drive(ExpiryEngine::kWheel);
  ASSERT_FALSE(scan.empty());
  ASSERT_EQ(scan.size(), wheel.size());
  for (std::size_t i = 0; i < scan.size(); ++i) {
    EXPECT_EQ(scan[i], wheel[i]) << "record " << i;
  }
  // The pattern exercised both expiry paths.
  bool saw_idle = false, saw_active = false;
  for (const Emitted& e : scan) {
    saw_idle |= e.reason == EndReason::kIdleTimeout;
    saw_active |= e.reason == EndReason::kActiveTimeout;
  }
  EXPECT_TRUE(saw_idle);
  EXPECT_TRUE(saw_active);
}

TEST(FlowCache, EvictionOrderIsCanonicalNotSlotOrder) {
  // Several flows expire in the same sweep; they must come out sorted by
  // (first_seen, key), independent of hash/slot placement.
  for (const ExpiryEngine engine :
       {ExpiryEngine::kScan, ExpiryEngine::kWheel}) {
    FlowCache cache{engine_config(engine)};
    // Insert in deliberately scrambled key order at two distinct times.
    for (const std::uint64_t src : {9ULL, 3ULL, 7ULL, 1ULL}) {
      cache.record(make_frame(src, 99), 1_ms);
    }
    for (const std::uint64_t src : {8ULL, 2ULL}) {
      cache.record(make_frame(src, 99), 2_ms);
    }
    std::vector<std::uint64_t> order;
    cache.sweep(100_ms, [&](const FlowRecord& r, EndReason) {
      order.push_back(r.key.src.bits());
    });
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 7, 9, 2, 8}))
        << (engine == ExpiryEngine::kScan ? "scan" : "wheel");
  }
}

TEST(FlowCache, FlushEmitsCanonicallyAndEmpties) {
  FlowCache cache{engine_config(ExpiryEngine::kWheel)};
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
  // Backward-shift compaction moves records between slots; the wheel
  // timers must follow (cookie rebinding) or expiry would fire on stale
  // slots. Erase half the flows, then expire the rest and check exactly
  // the survivors come out.
  FlowCache cache{engine_config(ExpiryEngine::kWheel)};
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
  FlowCache cache{engine_config(ExpiryEngine::kWheel)};
  cache.record(make_frame(1, 2), 1_ms);
  std::size_t emitted = 0;
  cache.sweep(100_ms, [&](const FlowRecord&, EndReason) { ++emitted; });
  EXPECT_EQ(emitted, 1u);
  EXPECT_GE(cache.stats().wheel_fires, 1u);
  // The scan engine never touches the wheel.
  FlowCache scan{engine_config(ExpiryEngine::kScan)};
  scan.record(make_frame(1, 2), 1_ms);
  scan.sweep(100_ms, [&](const FlowRecord&, EndReason) {});
  EXPECT_EQ(scan.stats().wheel_fires, 0u);
  EXPECT_EQ(scan.stats().wheel_rearms, 0u);
}

}  // namespace
}  // namespace steelnet::flowmon
