#include "obs/span_tracer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "obs/exporters.hpp"
#include "obs/hub.hpp"

namespace steelnet::obs {
namespace {

using namespace steelnet::sim::literals;

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
