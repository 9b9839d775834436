// Flowmon telemetry under injected faults: the collector's sequence-gap
// accounting and the switch egress-drop counters must equal the exact
// number of injected losses -- telemetry that can't count its own holes
// can't be trusted to count anyone else's.
#include <gtest/gtest.h>

#include "faults/fault_plane.hpp"
#include "flowmon/collector.hpp"
#include "flowmon/meter_point.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"

namespace steelnet::faults {
namespace {

using namespace steelnet::sim::literals;

// ---------------------------------------------------------------------
// Collector first-contact gap (regression: the pre-fix collector only
// counted gaps after it had seen a domain at least once).

flowmon::ExportRecord simple_record() {
  flowmon::ExportRecord r;
  r.key.src = net::MacAddress{0x1};
  r.key.dst = net::MacAddress{0x2};
  r.key.ethertype = net::EtherType::kIpv4;
  r.packets = 10;
  r.bytes = 1000;
  r.wire_bytes = 1180;
  r.first_seen = 10_ms;
  r.last_seen = 20_ms;
  r.min_iat = 990_us;
  r.mean_iat = 1_ms;
  r.jitter = 2_us;
  r.end_reason = flowmon::EndReason::kIdleTimeout;
  return r;
}

net::Frame export_frame(net::MacAddress dst, std::uint32_t seq,
                        std::uint32_t domain) {
  flowmon::MessageHeader h;
  h.observation_domain = domain;
  h.sequence = seq;
  h.export_time = 1_s;
  net::Frame f;
  f.dst = dst;
  f.src = net::MacAddress{0xE};
  f.ethertype = net::EtherType::kFlowmonExport;
  f.payload = flowmon::encode_message(h, flowmon::flow_template(), true,
                                      {simple_record()});
  return f;
}

TEST(CollectorGaps, FirstMessageOfADomainRevealsPriorLoss) {
  flowmon::CollectorNode c{net::MacAddress{0xC0}};
  // Exporters start at sequence 0; first contact at sequence 5 means five
  // records died before the collector ever heard from this domain.
  c.handle_frame(export_frame(c.mac(), 5, /*domain=*/1), 0);
  EXPECT_EQ(c.counters().lost_records, 5u);
  EXPECT_EQ(c.counters().records, 1u);
  // An in-order follow-up adds nothing.
  c.handle_frame(export_frame(c.mac(), 6, /*domain=*/1), 0);
  EXPECT_EQ(c.counters().lost_records, 5u);
  // Independent domains get independent first-contact accounting.
  c.handle_frame(export_frame(c.mac(), 2, /*domain=*/9), 0);
  EXPECT_EQ(c.counters().lost_records, 7u);
}

TEST(CollectorGaps, CleanFirstContactCountsNothing) {
  flowmon::CollectorNode c{net::MacAddress{0xC0}};
  c.handle_frame(export_frame(c.mac(), 0, 1), 0);
  EXPECT_EQ(c.counters().lost_records, 0u);
}

// ---------------------------------------------------------------------
// Meter -> collector over a faulted wire: the sequence-gap counter must
// reconstruct the exact number of records inside dropped export frames.

struct TelemetryFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::SwitchNode* sw;
  net::HostNode* sender;
  net::HostNode* receiver;
  net::HostNode* mgmt;
  flowmon::CollectorNode* collector;
  std::unique_ptr<flowmon::MeterPoint> meter;
  FaultPlane plane;

  explicit TelemetryFixture(std::uint64_t seed)
      : sw(&network.add_node<net::SwitchNode>("sw")),
        sender(&network.add_node<net::HostNode>("tx", net::MacAddress{0x1})),
        receiver(&network.add_node<net::HostNode>("rx", net::MacAddress{0x2})),
        mgmt(&network.add_node<net::HostNode>("mgmt", net::MacAddress{0xE})),
        collector(&network.add_node<flowmon::CollectorNode>(
            "col", net::MacAddress{0xC})),
        plane(network, seed) {
    network.connect(sender->id(), 0, sw->id(), 0);
    network.connect(receiver->id(), 0, sw->id(), 1);
    network.connect(mgmt->id(), 0, sw->id(), 2);
    network.connect(collector->id(), 0, sw->id(), 3);
    sw->add_fdb_entry(net::MacAddress{0x2}, 1);
    sw->add_fdb_entry(net::MacAddress{0xC}, 3);
    network.set_faults(&plane);

    flowmon::MeterConfig cfg;
    cfg.collector_mac = collector->mac();
    cfg.export_interval = 10_ms;
    cfg.idle_timeout = 20_ms;
    cfg.active_timeout = 50_ms;
    // Every export frame re-advertises the template: a lost first frame
    // must not leave the collector unable to decode the survivors, or
    // gap accounting could never be exact.
    cfg.template_refresh_frames = 1;
    meter = std::make_unique<flowmon::MeterPoint>(*sw, *mgmt, cfg);
  }

  void send_burst(int n, sim::SimTime period) {
    for (int i = 0; i < n; ++i) {
      simulator.schedule_at(period * i, [this] {
        net::Frame f;
        f.dst = net::MacAddress{0x2};
        f.payload.assign(100, 0);
        sender->send(std::move(f));
      });
    }
  }

  // Exact-tiling invariant: once the fault window has closed and a clean
  // export has arrived, the collector's reconstructed loss equals the
  // records the wire actually ate.
  void expect_gap_accounting_exact() const {
    const std::uint64_t exported = meter->stats().records_exported;
    const std::uint64_t received = collector->counters().records;
    EXPECT_EQ(collector->counters().lost_records, exported - received);
    EXPECT_EQ(collector->counters().records_without_template, 0u);
    EXPECT_EQ(plane.conservation_residual(), 0);
  }
};

TEST(FlowmonFaults, SequenceGapsEqualInjectedExportLoss) {
  TelemetryFixture fx{11};
  fx.send_burst(150, 1_ms);
  // Kill the management link (the export path) across the first
  // active-timeout checkpoint at ~50ms; exports resume at ~100ms.
  fx.plane.schedule(FaultScenario{
      .name = "export_hole",
      .seed = 11,
      .faults = {{.kind = FaultKind::kLinkDown,
                  .node = "mgmt",
                  .port = 0,
                  .at = 15_ms,
                  .duration = 60_ms}}});
  fx.simulator.run_until(400_ms);

  ASSERT_GT(fx.plane.counters().dropped_link_down, 0u);
  ASSERT_LT(fx.collector->counters().records,
            fx.meter->stats().records_exported);
  fx.expect_gap_accounting_exact();
  // Only export traffic crosses the mgmt link: the metered data flow
  // itself was untouched.
  EXPECT_EQ(fx.receiver->counters().received, 150u);
}

TEST(FlowmonFaults, RandomExportLossStillTilesExactly) {
  TelemetryFixture fx{23};
  // Continuous traffic to 300ms yields checkpoints every 50ms plus the
  // idle close at ~320ms; the loss window covers the middle checkpoints
  // and the clean tail reveals every gap.
  fx.send_burst(300, 1_ms);
  fx.plane.schedule(FaultScenario{
      .name = "export_loss",
      .seed = 23,
      .faults = {{.kind = FaultKind::kLoss,
                  .node = "mgmt",
                  .port = 0,
                  .at = 40_ms,
                  .duration = 220_ms,
                  .probability = 0.6}}});
  fx.simulator.run_until(600_ms);

  ASSERT_GT(fx.plane.counters().dropped_loss, 0u);
  fx.expect_gap_accounting_exact();
  EXPECT_EQ(fx.receiver->counters().received, 300u);
}

// ---------------------------------------------------------------------
// Switch egress-drop counter vs. an exactly-sized overload burst.

TEST(FlowmonFaults, EgressDropCounterMatchesBurstOverflowExactly) {
  // A slow receiver link plus a tiny egress queue: a back-to-back burst
  // of N frames fits 1 on the wire + C in the queue; the switch must
  // count exactly N - 1 - C overflow drops, and the fault plane's wire
  // ledger must stay balanced (overflow happens before the wire).
  sim::Simulator simulator;
  net::Network network{simulator};
  net::SwitchConfig cfg;
  cfg.queue_capacity = 4;
  auto& sw = network.add_node<net::SwitchNode>("sw", cfg);
  auto& tx = network.add_node<net::HostNode>("tx", net::MacAddress{0x1});
  auto& rx = network.add_node<net::HostNode>("rx", net::MacAddress{0x2});
  network.connect(tx.id(), 0, sw.id(), 0);
  net::LinkParams slow;
  slow.bits_per_second = 1'000'000;  // ~1 ms per 100 B frame
  network.connect(rx.id(), 0, sw.id(), 1, slow);
  sw.add_fdb_entry(net::MacAddress{0x2}, 1);
  FaultPlane plane{network, 1};
  network.set_faults(&plane);

  constexpr int kBurst = 20;
  constexpr std::uint64_t kQueue = 4;
  for (int i = 0; i < kBurst; ++i) {
    // 2 us apart over a fast ingress link: back-to-back at the egress.
    simulator.schedule_at(sim::microseconds(i * 2), [&tx] {
      net::Frame f;
      f.dst = net::MacAddress{0x2};
      f.payload.assign(100, 0);
      tx.send(std::move(f));
    });
  }
  simulator.run_until(1_s);

  EXPECT_EQ(
      static_cast<std::uint64_t>(sw.counters().frames_dropped_overflow),
      static_cast<std::uint64_t>(kBurst) - 1 - kQueue);
  EXPECT_EQ(rx.counters().received, 1 + kQueue);
  EXPECT_EQ(plane.conservation_residual(), 0);
}

}  // namespace
}  // namespace steelnet::faults
