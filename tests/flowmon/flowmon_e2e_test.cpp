// The flowmon pipeline end to end: meter -> IPFIX export over the
// simulated network -> collector -> measured taxonomy, the golden
// determinism pin.
#include <gtest/gtest.h>

#include <limits>

#include "core/traffic_mix.hpp"
#include "flowmon/collector.hpp"
#include "flowmon/meter_point.hpp"
#include "flowmon/mix_scenario.hpp"
#include "flowmon/report.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"

namespace steelnet::flowmon {
namespace {

using namespace steelnet::sim::literals;

// ---------------------------------------------------------------------
// Collector unit behaviour, fed with hand-built export frames.

net::Frame export_frame(net::MacAddress dst, std::uint32_t seq,
                        bool with_template,
                        const std::vector<ExportRecord>& records,
                        std::uint32_t domain = 1) {
  MessageHeader h;
  h.observation_domain = domain;
  h.sequence = seq;
  h.export_time = 1_s;
  net::Frame f;
  f.dst = dst;
  f.src = net::MacAddress{0xE};
  f.ethertype = net::EtherType::kFlowmonExport;
  f.payload = encode_message(h, flow_template(), with_template, records);
  return f;
}

ExportRecord record_with(std::uint64_t packets, std::uint64_t bytes,
                         EndReason reason) {
  ExportRecord r;
  r.key.src = net::MacAddress{0x1};
  r.key.dst = net::MacAddress{0x2};
  r.key.ethertype = net::EtherType::kIpv4;
  r.packets = packets;
  r.bytes = bytes;
  r.wire_bytes = bytes + packets * 18;
  r.first_seen = 10_ms;
  r.last_seen = 10_ms + sim::milliseconds(std::int64_t(packets));
  r.min_iat = 990_us;
  r.mean_iat = 1_ms;
  r.jitter = 2_us;
  r.end_reason = reason;
  return r;
}

TEST(Collector, CheckpointsDoNotDoubleCount) {
  CollectorNode c{net::MacAddress{0xC0}};
  // Active-timeout checkpoint carries absolute totals; the closing record
  // supersedes it rather than adding to it.
  c.handle_frame(export_frame(c.mac(), 0, true,
                              {record_with(50, 5000,
                                           EndReason::kActiveTimeout)}),
                 0);
  c.handle_frame(export_frame(c.mac(), 1, false,
                              {record_with(100, 10000,
                                           EndReason::kIdleTimeout)}),
                 0);
  const auto flows = c.flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packets, 100u);
  EXPECT_EQ(flows[0].bytes, 10000u);
  EXPECT_EQ(flows[0].incarnations, 1u);
  EXPECT_FALSE(flows[0].open_ended);
  EXPECT_EQ(c.counters().records, 2u);
  EXPECT_EQ(c.counters().lost_records, 0u);
}

TEST(Collector, IdleRestartCountsIncarnationsAndSums) {
  CollectorNode c{net::MacAddress{0xC0}};
  c.handle_frame(export_frame(c.mac(), 0, true,
                              {record_with(10, 1000,
                                           EndReason::kIdleTimeout)}),
                 0);
  // The flow restarts later: a fresh cache incarnation, fresh totals.
  c.handle_frame(export_frame(c.mac(), 1, false,
                              {record_with(5, 500, EndReason::kIdleTimeout)}),
                 0);
  const auto flows = c.flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packets, 15u);
  EXPECT_EQ(flows[0].bytes, 1500u);
  EXPECT_EQ(flows[0].incarnations, 2u);
}

TEST(Collector, ForcedFlushMeansOpenEnded) {
  CollectorNode c{net::MacAddress{0xC0}};
  c.handle_frame(export_frame(c.mac(), 0, true,
                              {record_with(20, 2000,
                                           EndReason::kForcedEnd)}),
                 0);
  const auto flows = c.flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_TRUE(flows[0].open_ended);
}

TEST(Collector, PeriodicityRequiresSamplesAndLowJitter) {
  const auto flow_of = [](ExportRecord r) {
    CollectorNode c{net::MacAddress{0xC0}};
    c.handle_frame(export_frame(c.mac(), 0, true, {r}), 0);
    return c.flows().at(0);
  };
  // Steady cadence, plenty of packets: periodic.
  auto r = record_with(100, 5000, EndReason::kForcedEnd);
  EXPECT_TRUE(flow_of(r).periodic);
  // Same cadence but jitter above 10% of the mean IAT: not periodic.
  r.jitter = 200_us;
  EXPECT_FALSE(flow_of(r).periodic);
  // Too few packets to call it: not periodic.
  r = record_with(5, 250, EndReason::kForcedEnd);
  EXPECT_FALSE(flow_of(r).periodic);
}

TEST(Collector, SequenceGapsCountLostRecords) {
  CollectorNode c{net::MacAddress{0xC0}};
  c.handle_frame(export_frame(c.mac(), 0, true,
                              {record_with(1, 100, EndReason::kIdleTimeout),
                               record_with(2, 200, EndReason::kIdleTimeout)}),
                 0);
  // Next message claims 5 records were sent before it: 3 never arrived.
  c.handle_frame(export_frame(c.mac(), 5, false,
                              {record_with(3, 300, EndReason::kIdleTimeout)}),
                 0);
  EXPECT_EQ(c.counters().lost_records, 3u);
  EXPECT_EQ(c.counters().records, 3u);
}

TEST(Collector, FiltersForeignTraffic) {
  CollectorNode c{net::MacAddress{0xC0}};
  net::Frame f;
  f.dst = net::MacAddress{0x99};  // not ours
  f.ethertype = net::EtherType::kFlowmonExport;
  c.handle_frame(f, 0);
  net::Frame g;
  g.dst = c.mac();
  g.ethertype = net::EtherType::kIpv4;  // not telemetry
  c.handle_frame(g, 0);
  EXPECT_EQ(c.counters().frames_filtered, 2u);
  net::Frame bad = export_frame(c.mac(), 0, true, {});
  bad.payload.resize(5);
  c.handle_frame(bad, 0);
  EXPECT_EQ(c.counters().malformed, 1u);
}

// ---------------------------------------------------------------------
// Meter -> network -> collector, end to end on a real switch.

struct TapFixture {
  sim::Simulator sim;
  net::Network net{sim};
  net::SwitchNode* sw;
  net::HostNode* sender;
  net::HostNode* receiver;
  net::HostNode* mgmt;
  CollectorNode* collector;
  std::unique_ptr<MeterPoint> meter;

  TapFixture() {
    sw = &net.add_node<net::SwitchNode>("sw");
    sender = &net.add_node<net::HostNode>("tx", net::MacAddress{0x1});
    receiver = &net.add_node<net::HostNode>("rx", net::MacAddress{0x2});
    mgmt = &net.add_node<net::HostNode>("mgmt", net::MacAddress{0xE});
    collector = &net.add_node<CollectorNode>("col", net::MacAddress{0xC});
    net.connect(sender->id(), 0, sw->id(), 0);
    net.connect(receiver->id(), 0, sw->id(), 1);
    net.connect(mgmt->id(), 0, sw->id(), 2);
    net.connect(collector->id(), 0, sw->id(), 3);
    sw->add_fdb_entry(net::MacAddress{0x2}, 1);
    sw->add_fdb_entry(net::MacAddress{0xC}, 3);

    MeterConfig cfg;
    cfg.collector_mac = collector->mac();
    cfg.export_interval = 10_ms;
    cfg.idle_timeout = 20_ms;
    cfg.active_timeout = 50_ms;
    meter = std::make_unique<MeterPoint>(*sw, *mgmt, cfg);
  }

  void send_burst(int n, sim::SimTime period, std::size_t payload = 100) {
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(period * i, [this, payload] {
        net::Frame f;
        f.dst = net::MacAddress{0x2};
        f.payload.assign(payload, 0);
        sender->send(std::move(f));
      });
    }
  }
};

TEST(FlowmonE2e, MeteredFlowReachesCollectorOverTheWire) {
  TapFixture fx;
  fx.send_burst(100, 1_ms);
  fx.sim.run_until(200_ms);
  fx.meter.reset();  // detach + stop sweeping; queue drains

  ASSERT_EQ(fx.collector->counters().records_without_template, 0u);
  EXPECT_EQ(fx.collector->counters().lost_records, 0u);
  EXPECT_GE(fx.collector->counters().templates_learned, 1u);
  const auto flows = fx.collector->flows();
  ASSERT_EQ(flows.size(), 1u);
  const FlowView& v = flows[0];
  EXPECT_EQ(v.key.src.bits(), 0x1u);
  EXPECT_EQ(v.key.dst.bits(), 0x2u);
  EXPECT_EQ(v.packets, 100u);
  EXPECT_EQ(v.bytes, 100u * 100u);
  // 1 ms cadence, zero jitter at the tap: detected periodic; the flow
  // went silent and idle-expired: not open-ended.
  EXPECT_TRUE(v.periodic);
  EXPECT_FALSE(v.open_ended);
  EXPECT_EQ(v.mean_iat, 1_ms);
  // The active-timeout checkpoint plus the idle eviction both exported;
  // totals must not double-count.
  EXPECT_GE(fx.collector->counters().records, 2u);

  // Telemetry frames were seen by the meter but not metered.
  EXPECT_EQ(fx.meter, nullptr);  // released above
}

TEST(FlowmonE2e, MeasuredStatsClassifyLikeTheFlowWasConfigured) {
  TapFixture fx;
  fx.send_burst(100, 1_ms);  // 10 KB total: a mouse, measured
  fx.sim.run_until(200_ms);
  const auto stats = fx.collector->measured_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(core::classify(stats[0]), core::FlowClass::kMice);
  EXPECT_EQ(stats[0].total_bytes, 10'000u);
}

TEST(FlowmonE2e, ReportRendersMeasuredFlows) {
  TapFixture fx;
  fx.send_burst(20, 1_ms);
  fx.sim.run_until(100_ms);
  const auto flows = fx.collector->flows();
  ASSERT_FALSE(flows.empty());
  const auto table = flows_table(flows);
  EXPECT_NE(table.find("pkts"), std::string::npos);
  EXPECT_NE(table.find("00:00:00:00:00:01"), std::string::npos);
  const auto csv = flows_csv(flows);
  EXPECT_NE(csv.find("src,dst,pcp"), std::string::npos);
  EXPECT_NE(csv.find("00:00:00:00:00:01,00:00:00:00:00:02"),
            std::string::npos);
}

TEST(FlowmonE2e, OnePacketFlowExportsZeroMinIatNotTheSentinel) {
  // A single-packet flow has no inter-arrival gap, so FlowRecord::min_iat
  // still holds its SimTime::max() sentinel when the record is exported.
  // The sentinel must never reach the wire, the merged collector view, or
  // the rendered taxonomy artifacts -- all must report zero.
  TapFixture fx;
  fx.send_burst(1, 1_ms);
  fx.sim.run_until(100_ms);  // one packet, then idle-expire + export

  const auto flows = fx.collector->flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packets, 1u);
  EXPECT_EQ(flows[0].min_iat, sim::SimTime::zero());
  EXPECT_EQ(flows[0].mean_iat, sim::SimTime::zero());

  const auto csv = flows_csv(flows);
  const auto sentinel = std::to_string(sim::SimTime::max().nanos());
  EXPECT_EQ(csv.find(sentinel), std::string::npos) << csv;
}

TEST(Collector, WireSentinelMinIatNeverLeaksIntoMergedView) {
  // Decoded records are untrusted wire data: an exporter that skips the
  // single-packet guard (or a corrupted-but-parseable frame) can carry
  // the sentinel alongside a multi-packet count. The merge must drop it.
  CollectorNode c{net::MacAddress{0xC0}};
  auto r = record_with(10, 1000, EndReason::kIdleTimeout);
  r.min_iat = sim::SimTime::max();
  c.handle_frame(export_frame(c.mac(), 0, true, {r}), 0);
  const auto flows = c.flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].min_iat, sim::SimTime::zero());
}

TEST(Collector, RejectsWireTimesBeyondSimTime) {
  // lastSeenNs = 2^63 is a valid unsigned64 on the wire but has no
  // SimTime; an attached collector would compute its export lag as
  // now - INT64_MIN. The message is malformed and nothing is absorbed.
  sim::Simulator sim;
  net::Network net{sim};
  auto& c = net.add_node<CollectorNode>("col", net::MacAddress{0xC0});
  sim.run_until(5_ms);
  auto r = record_with(10, 1000, EndReason::kIdleTimeout);
  r.last_seen = sim::SimTime{std::numeric_limits<std::int64_t>::min()};
  c.handle_frame(export_frame(c.mac(), 0, true, {r}), 0);
  EXPECT_EQ(c.counters().malformed, 1u);
  EXPECT_EQ(c.counters().records, 0u);
  EXPECT_TRUE(c.flows().empty());
  EXPECT_EQ(c.export_lag_us().count(), 0u);
}

// ---------------------------------------------------------------------
// The measured §2.3 mix: golden determinism + taxonomy from measurement.

TEST(FlowmonE2e, GoldenMeasuredMixIdenticalForIdenticalSeeds) {
  MeasuredMixSpec spec;
  const auto a = run_measured_mix(spec);
  const auto b = run_measured_mix(spec);
  // Identical seeds -> identical measured flow records, bit for bit.
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].key, b.flows[i].key);
    EXPECT_EQ(a.flows[i].packets, b.flows[i].packets);
    EXPECT_EQ(a.flows[i].bytes, b.flows[i].bytes);
    EXPECT_EQ(a.flows[i].jitter, b.flows[i].jitter);
  }
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  // A different seed must not reproduce the fingerprint.
  MeasuredMixSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(run_measured_mix(other).fingerprint, a.fingerprint);
}

TEST(FlowmonE2e, MeasuredTaxonomyMatchesOfferedWorkload) {
  MeasuredMixSpec spec;
  const auto result = run_measured_mix(spec);

  // Every offered flow was measured; telemetry was lossless.
  EXPECT_EQ(result.flows.size(), result.flows_offered);
  EXPECT_EQ(result.collector.lost_records, 0u);
  EXPECT_EQ(result.collector.records_without_template, 0u);
  EXPECT_EQ(result.collector.malformed, 0u);
  EXPECT_EQ(result.cache.dropped_full, 0u);
  EXPECT_EQ(result.meter.frames_seen, result.frames_sent);

  // Classify the *measured* stats and compare against what was offered.
  const auto thresholds = spec.thresholds();
  std::size_t mice = 0, medium = 0, elephant = 0, micro = 0;
  for (const auto& s : result.measured) {
    switch (core::classify(s, thresholds)) {
      case core::FlowClass::kMice: ++mice; break;
      case core::FlowClass::kMedium: ++medium; break;
      case core::FlowClass::kElephant: ++elephant; break;
      case core::FlowClass::kDeterministicMicroflow: ++micro; break;
    }
  }
  EXPECT_EQ(mice, spec.mice);
  EXPECT_EQ(medium, spec.medium);
  EXPECT_EQ(elephant, spec.elephants);
  EXPECT_EQ(micro, spec.vplc_flows);

  // The §2.3 punchline, measured: every vPLC flow is periodic+open-ended
  // by cadence, and the bytes-only taxonomy misfiles at least some.
  std::size_t misfiled = 0;
  for (const auto& s : result.measured) {
    if (core::classify(s, thresholds) !=
        core::FlowClass::kDeterministicMicroflow) {
      continue;
    }
    EXPECT_TRUE(s.periodic);
    EXPECT_TRUE(s.open_ended);
    if (core::classify_bytes_only(s, thresholds) !=
        core::FlowClass::kDeterministicMicroflow) {
      ++misfiled;
    }
  }
  EXPECT_GT(misfiled, 0u);
}

}  // namespace
}  // namespace steelnet::flowmon
