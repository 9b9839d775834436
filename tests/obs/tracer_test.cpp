#include "obs/span_tracer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "obs/exporters.hpp"
#include "obs/hub.hpp"
#include "sim/random.hpp"

namespace steelnet::obs {
namespace {

using namespace steelnet::sim::literals;

static_assert(sizeof(Span) == 32);
static_assert(std::is_trivially_copyable_v<Span>);

TEST(SpanTracer, TrackInterningIsStable) {
  SpanTracer tr;
  const auto a = tr.track("node-a");
  const auto b = tr.track("node-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(tr.track("node-a"), a);
  EXPECT_EQ(tr.track_name(a), "node-a");
  EXPECT_EQ(tr.track_count(), 2u);
}

TEST(SpanTracer, AddRejectsNegativeDuration) {
  SpanTracer tr;
  const auto t = tr.track("t");
  EXPECT_THROW(tr.add(t, "bad", 10_ns, 9_ns), std::logic_error);
}

TEST(SpanTracer, HopOpenCloseAndAbort) {
  SpanTracer tr;
  const auto q = tr.track("sw/p0");
  tr.hop_open(1, Hop::kQueue, q, 100_ns);
  tr.hop_close(1, Hop::kQueue, q, 250_ns);
  ASSERT_EQ(tr.spans().size(), 1u);
  EXPECT_EQ(tr.spans()[0].trace_id, 1u);
  EXPECT_EQ(tr.spans()[0].duration(), 150_ns);

  // Abort discards without recording.
  tr.hop_open(2, Hop::kQueue, q, 300_ns);
  tr.hop_abort(2, Hop::kQueue, q);
  EXPECT_EQ(tr.spans().size(), 1u);

  // Close without open is counted, not recorded.
  tr.hop_close(3, Hop::kQueue, q, 400_ns);
  EXPECT_EQ(tr.spans().size(), 1u);
  EXPECT_EQ(tr.unmatched_closes(), 1u);
}

TEST(SpanTracer, SpansForSortsByStartTime) {
  SpanTracer tr;
  const auto a = tr.track("a");
  const auto b = tr.track("b");
  tr.hop(7, Hop::kLink, b, 50_ns, 60_ns);
  tr.hop(7, Hop::kHostTx, a, 10_ns, 20_ns);
  tr.hop(8, Hop::kHostTx, a, 0_ns, 5_ns);  // other frame, filtered out
  const auto spans = tr.spans_for(7);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].start, 10_ns);
  EXPECT_EQ(spans[1].start, 50_ns);
}

TEST(SpanTracer, HopNamesArePreInternedInHopOrder) {
  SpanTracer tr;
  const Hop hops[] = {Hop::kHostTx, Hop::kQueue, Hop::kLink,
                      Hop::kProc,   Hop::kXdp,   Hop::kHostRx};
  ASSERT_EQ(tr.name_count(), 6u);
  for (const Hop hop : hops) {
    EXPECT_EQ(tr.span_name(static_cast<NameId>(hop)), to_string(hop));
  }
  // A hop name given as text resolves to the hop's id; new names follow.
  const TrackId t = tr.track("t");
  tr.add(t, "queue", 0_ns, 1_ns);
  tr.hop(1, Hop::kQueue, t, 1_ns, 2_ns);
  tr.add(t, "fault:corrupt", 2_ns, 2_ns, 1);
  tr.add(t, "fault:corrupt", 3_ns, 3_ns, 2);
  ASSERT_EQ(tr.spans().size(), 4u);
  EXPECT_EQ(tr.spans()[0].name, static_cast<NameId>(Hop::kQueue));
  EXPECT_EQ(tr.spans()[1].name, static_cast<NameId>(Hop::kQueue));
  EXPECT_EQ(tr.spans()[2].name, 6u);
  EXPECT_EQ(tr.spans()[3].name, 6u);
  EXPECT_EQ(tr.span_name(6), "fault:corrupt");
  EXPECT_EQ(tr.name_count(), 7u);
}

/// Draws an open-hop key whose trace id, hop and track each collide with
/// those of many other keys.
std::tuple<std::uint64_t, Hop, TrackId> draw_key(sim::Rng& rng) {
  return {static_cast<std::uint64_t>(rng.uniform_int(1, 1'500)),
          static_cast<Hop>(rng.uniform_int(0, 5)),
          static_cast<TrackId>(rng.uniform_int(0, 7))};
}

// The flat open-hop table against a std::map reference: the same seeded
// stream of opens, re-opens, closes, unmatched closes and aborts must
// give the same span stream and the same unmatched-close count. Phases
// that mostly open, churn and mostly close push the live set up through
// many doublings and back down, leaving heavy tombstone churn behind.
TEST(SpanTracer, OpenHopTableMatchesAMapReference) {
  using Key = std::tuple<std::uint64_t, Hop, TrackId>;
  struct Expected {
    TrackId track;
    Hop hop;
    std::uint64_t trace_id;
    sim::SimTime start;
    sim::SimTime end;
  };

  SpanTracer tr;
  for (int i = 0; i < 8; ++i) {
    // Appended: GCC 12 at -O3 warns -Wrestrict inside libstdc++ on
    // `"t" + std::to_string(i)`.
    std::string name = "t";
    name += std::to_string(i);
    tr.track(name);
  }
  std::map<Key, sim::SimTime> ref_open;
  std::vector<Expected> ref_spans;
  std::uint64_t ref_unmatched = 0;

  const auto close = [&](const Key& k, sim::SimTime at) {
    const auto& [trace, hop, track] = k;
    tr.hop_close(trace, hop, track, at);
    const auto it = ref_open.find(k);
    if (it == ref_open.end()) {
      ++ref_unmatched;
      return;
    }
    ref_spans.push_back({track, hop, trace, it->second, at});
    ref_open.erase(it);
  };

  sim::Rng rng(0x5eed);
  std::vector<Key> opened;  // keys likely live; may be stale
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(opened.size()) - 1));
  };
  std::size_t max_live = 0;
  std::int64_t now = 0;
  constexpr double kOpenShare[] = {0.8, 0.5, 0.2};  // grow, churn, drain
  for (int round = 0; round < 4; ++round) {
    for (const double open_share : kOpenShare) {
      for (int op = 0; op < 20'000; ++op) {
        const sim::SimTime at = sim::nanoseconds(++now);
        if (rng.bernoulli(open_share)) {
          // A re-open of a key already open overwrites its open time.
          const Key k = !opened.empty() && rng.bernoulli(0.05)
                            ? opened[pick()]
                            : draw_key(rng);
          tr.hop_open(std::get<0>(k), std::get<1>(k), std::get<2>(k), at);
          ref_open[k] = at;
          opened.push_back(k);
          max_live = std::max(max_live, ref_open.size());
          continue;
        }
        Key k = draw_key(rng);
        if (!opened.empty() && rng.bernoulli(0.8)) {
          const std::size_t i = pick();
          k = opened[i];
          opened[i] = opened.back();
          opened.pop_back();
        }
        if (rng.bernoulli(0.1)) {
          tr.hop_abort(std::get<0>(k), std::get<1>(k), std::get<2>(k));
          ref_open.erase(k);
        } else {
          close(k, at);
        }
      }
    }
  }
  // Whatever is still open closes too, so the table must hold exactly
  // the reference's live keys.
  const std::vector<std::pair<Key, sim::SimTime>> left(ref_open.begin(),
                                                       ref_open.end());
  for (const auto& [k, at] : left) close(k, sim::nanoseconds(++now));

  EXPECT_GT(max_live, 4'000u);  // from 16 slots: at least 9 doublings
  EXPECT_GT(ref_unmatched, 1'000u);
  EXPECT_TRUE(ref_open.empty());
  EXPECT_EQ(tr.unmatched_closes(), ref_unmatched);
  ASSERT_EQ(tr.spans().size(), ref_spans.size());
  for (std::size_t i = 0; i < ref_spans.size(); ++i) {
    const Span& got = tr.spans()[i];
    const Expected& want = ref_spans[i];
    ASSERT_EQ(got.track, want.track) << "span " << i;
    ASSERT_EQ(got.name, static_cast<NameId>(want.hop)) << "span " << i;
    ASSERT_EQ(got.trace_id, want.trace_id) << "span " << i;
    ASSERT_EQ(got.start, want.start) << "span " << i;
    ASSERT_EQ(got.end, want.end) << "span " << i;
  }
}

TEST(SpanTracer, TraceIdsAreSequentialFromOne) {
  SpanTracer tr;
  EXPECT_EQ(tr.next_trace_id(), 1u);
  EXPECT_EQ(tr.next_trace_id(), 2u);
  EXPECT_EQ(tr.trace_ids_issued(), 2u);
}

TEST(ObsHub, BreakdownTilesTheDeliveryLatency) {
  ObsHub hub;
  const auto tx = hub.track("h1");
  const auto q = hub.track("h1/p0");
  const auto l = hub.track("link:h1:p0");
  const auto rx = hub.track("h2");
  const auto id = hub.assign_trace_id();
  hub.host_tx(id, tx, 0_ns, 100_ns);
  hub.queue_enter(id, q, 100_ns);
  hub.queue_exit(id, q, 150_ns);
  hub.link_transit(id, l, 150_ns, 1000_ns);
  hub.host_rx(id, rx, 1000_ns, 1100_ns);
  hub.delivered(id, rx, 0_ns, 1100_ns);

  ASSERT_EQ(hub.deliveries().size(), 1u);
  const auto d = hub.delivery_of(id);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->latency(), 1100_ns);

  const auto rows = hub.breakdown(id);
  ASSERT_EQ(rows.size(), 4u);
  sim::SimTime sum = sim::SimTime::zero();
  for (const auto& r : rows) sum += r.duration();
  EXPECT_EQ(sum, d->latency());
  EXPECT_EQ(rows[0].hop, "host-tx");
  EXPECT_EQ(rows[1].hop, "queue");
  EXPECT_EQ(rows[2].hop, "link");
  EXPECT_EQ(rows[3].hop, "host-rx");
}

TEST(Exporters, ChromeTraceJsonShape) {
  SpanTracer tr;
  const auto t = tr.track("nodeA");
  tr.hop(1, Hop::kLink, t, 1500_ns, 2750_ns);
  const auto json = chrome_trace_json(tr);
  // Complete event with sim-time microseconds at ns resolution.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.250"), std::string::npos);
  EXPECT_NE(json.find("nodeA"), std::string::npos);
  // Deterministic: same history, same bytes.
  SpanTracer tr2;
  tr2.hop(1, Hop::kLink, tr2.track("nodeA"), 1500_ns, 2750_ns);
  EXPECT_EQ(chrome_trace_json(tr2), json);
}

TEST(Exporters, SpansCsvShape) {
  SpanTracer tr;
  tr.hop(9, Hop::kQueue, tr.track("sw/p1"), 10_ns, 40_ns);
  EXPECT_EQ(spans_csv(tr),
            "trace_id,track,name,start_ns,end_ns,duration_ns\n"
            "9,sw/p1,queue,10,40,30\n");
}

}  // namespace
}  // namespace steelnet::obs
