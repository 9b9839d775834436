// The campus determinism bar, tier-1: every export -- Prometheus, Chrome
// trace, per-cell CSV -- is byte-identical at shards 1 vs {2, 4, 8},
// and the cross-shard frame handoff runs through the receiving cell's
// FramePool (allocation-free steady state).
#include "net/campus.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace steelnet::net {
namespace {

CampusOptions small_campus(std::size_t shards) {
  CampusOptions opt;
  opt.cells = 10;
  opt.devices_per_cell = 3;
  opt.cycle = sim::milliseconds(4);
  opt.horizon = sim::milliseconds(80);
  opt.seed = 21;
  opt.shards = shards;
  return opt;
}

/// The tab_campus table campus: 48 cells x 8 devices, faults on.
CampusOptions table_campus(bool skew) {
  CampusOptions opt;
  opt.cells = 48;
  opt.devices_per_cell = 8;
  opt.cycle = sim::milliseconds(4);
  opt.horizon = sim::milliseconds(150);
  opt.seed = 1;
  opt.faults = true;
  opt.skew = skew;
  return opt;
}

// Golden pins: the artifact bytes themselves, not just their agreement
// across shard counts. A refactor of the renderers must keep these.
TEST(Campus, TableCampusFingerprintPinned) {
  EXPECT_EQ(run_campus(table_campus(false)).fingerprint(),
            0x522f8f18a43c9a70ULL);
}

TEST(Campus, SkewedTableCampusFingerprintPinned) {
  EXPECT_EQ(run_campus(table_campus(true)).fingerprint(),
            0x3d94b2cac8a5b1ecULL);
}

TEST(Campus, ArtifactsByteIdenticalAcrossShardCounts) {
  const CampusResult golden = run_campus(small_campus(1));
  const std::string csv = golden.to_csv();
  const std::string prom = golden.to_prometheus();
  const std::string trace = golden.to_chrome_trace();
  ASSERT_FALSE(csv.empty());
  ASSERT_FALSE(prom.empty());
  ASSERT_FALSE(trace.empty());

  for (const std::size_t shards : {2, 4, 8}) {
    const CampusResult r = run_campus(small_campus(shards));
    EXPECT_EQ(r.to_csv(), csv) << "shards=" << shards;
    EXPECT_EQ(r.to_prometheus(), prom) << "shards=" << shards;
    EXPECT_EQ(r.to_chrome_trace(), trace) << "shards=" << shards;
    EXPECT_EQ(r.fingerprint(), golden.fingerprint()) << "shards=" << shards;
    EXPECT_EQ(r.cells, golden.cells) << "shards=" << shards;
  }
}

TEST(Campus, CyclicTrafficActuallyRuns) {
  const CampusResult r = run_campus(small_campus(2));
  ASSERT_EQ(r.cells.size(), 10u);
  for (const CellReport& c : r.cells) {
    // ~80ms / 4ms cycle ~ 19 cycles per controller, 3 controllers.
    EXPECT_GT(c.cyclic_tx, 30u) << c.name;
    EXPECT_GT(c.cyclic_rx, 30u) << c.name;
    EXPECT_GT(c.frames_delivered, 100u) << c.name;
    EXPECT_EQ(c.watchdog_trips, 0u) << c.name;  // no faults configured
  }
}

TEST(Campus, CrossCellReportsFlowAndRecycleThroughThePool) {
  const CampusResult r = run_campus(small_campus(4));
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  for (const CellReport& c : r.cells) {
    sent += c.reports_sent;
    received += c.reports_received;
    // Sink recycles every report frame it consumes, so the pool reuses
    // buffers once cyclic traffic is warm.
    EXPECT_GT(c.pool_reused, 0u) << c.name;
    if (c.reports_received > 0) {
      // Origin-to-sink latency includes the backbone channel latency, so
      // the per-report average is strictly above it.
      EXPECT_GT(c.report_latency_ns_total,
                static_cast<std::int64_t>(c.reports_received) * 20'000)
          << c.name;
      EXPECT_EQ(c.report_bytes, c.reports_received * 32) << c.name;
    }
  }
  EXPECT_GT(sent, 0u);
  // Every report sent before the lookahead edge of the horizon arrives;
  // the rest are counted beyond-horizon, never lost.
  EXPECT_LE(received, sent);
  EXPECT_GT(received, sent / 2);
}

TEST(Campus, ShardCountDoesNotLeakIntoStats) {
  const CampusResult a = run_campus(small_campus(1));
  const CampusResult b = run_campus(small_campus(8));
  EXPECT_EQ(a.stats.events, b.stats.events);
  EXPECT_EQ(a.stats.msgs_sent, b.stats.msgs_sent);
  EXPECT_EQ(a.stats.msgs_delivered, b.stats.msgs_delivered);
  EXPECT_EQ(a.stats.beyond_horizon, b.stats.beyond_horizon);
}

TEST(Campus, ReportFloorsLetEachVisitCoverAReportPeriod) {
  // Only the 10 ms reporter sends, and it promises its next tick, so a
  // cell's window ends at its neighbours' next reports instead of their
  // next PROFINET hop: a single-shard run needs at most one round per
  // report period (single-shard round counts are deterministic). Without
  // the promises this campus takes over 300 rounds.
  const CampusOptions opt = table_campus(false);
  const CampusResult r = run_campus(opt);
  const auto periods = static_cast<std::uint64_t>(
      opt.horizon.nanos() / kCampusReportPeriod.nanos());
  EXPECT_GT(r.stats.msgs_delivered, 0u);
  EXPECT_LE(r.stats.rounds, periods);
}

TEST(Campus, SeedChangesArtifactsUnderFaults) {
  // Without faults, the fault-free campus quantizes to the same integer
  // counters for nearby seeds (jitter shifts phases, not counts); the
  // fault storm is where the seed visibly bites -- crash times and lossy
  // windows move, so drops and outages differ.
  CampusOptions opt = small_campus(2);
  opt.faults = true;
  const CampusResult a = run_campus(opt);
  opt.seed = 22;
  const CampusResult b = run_campus(opt);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Campus, SkewedCampusByteIdenticalAcrossPartitionerAndShards) {
  // The headline determinism bar of the balancing work: the deliberately
  // skewed campus (hot first quarter) produces byte-identical artifacts
  // at any shard count AND under either placement strategy. Calibration
  // comes from a golden 1-shard run, exactly the --profile-out workflow.
  CampusOptions golden_opt = small_campus(1);
  golden_opt.skew = true;
  const CampusResult golden = run_campus(golden_opt);
  const std::string csv = golden.to_csv();
  const std::string prom = golden.to_prometheus();
  ASSERT_FALSE(csv.empty());
  const std::vector<std::uint64_t> measured = golden.profile.weights();
  ASSERT_EQ(measured.size(), golden_opt.cells);

  for (const std::size_t shards : {2, 4, 8}) {
    for (const bool use_measured : {false, true}) {
      CampusOptions opt = small_campus(shards);
      opt.skew = true;
      if (use_measured) opt.measured_weights = measured;
      const CampusResult r = run_campus(opt);
      EXPECT_EQ(r.to_csv(), csv)
          << "shards=" << shards << " measured=" << use_measured;
      EXPECT_EQ(r.to_prometheus(), prom)
          << "shards=" << shards << " measured=" << use_measured;
      EXPECT_EQ(r.fingerprint(), golden.fingerprint())
          << "shards=" << shards << " measured=" << use_measured;
      // The measured profile of every rerun matches the calibration run.
      EXPECT_EQ(r.profile.to_text(), golden.profile.to_text())
          << "shards=" << shards << " measured=" << use_measured;
    }
  }
}

TEST(Campus, MeasuredPartitionerReducesImbalanceOnSkew) {
  CampusOptions calib = small_campus(1);
  calib.skew = true;
  const CampusResult golden = run_campus(calib);

  CampusOptions prefix_opt = small_campus(4);
  prefix_opt.skew = true;
  const CampusResult prefix = run_campus(prefix_opt);

  CampusOptions measured_opt = prefix_opt;
  measured_opt.measured_weights = golden.profile.weights();
  const CampusResult measured = run_campus(measured_opt);

  // The hot quarter piles onto the first shards under the contiguous
  // prefix walk; LPT over measured rates spreads it.
  EXPECT_LT(measured.imbalance_permille, prefix.imbalance_permille);
  EXPECT_EQ(measured.shard_events.size(), 4u);
  EXPECT_EQ(prefix.shard_events.size(), 4u);
  EXPECT_EQ(std::accumulate(measured.shard_events.begin(),
                            measured.shard_events.end(), std::uint64_t{0}),
            std::accumulate(prefix.shard_events.begin(),
                            prefix.shard_events.end(), std::uint64_t{0}));
}

TEST(Campus, SkewActuallySkewsTheLoad) {
  // Hot cells run a 4x faster cycle, so their measured rate dominates.
  CampusOptions opt = small_campus(2);
  opt.skew = true;
  const CampusResult r = run_campus(opt);
  ASSERT_EQ(r.profile.cells.size(), 10u);
  const std::uint64_t hot = r.profile.cells[0].events;
  const std::uint64_t cold = r.profile.cells[9].events;
  EXPECT_GT(hot, 2 * cold);
  // Without skew the same cells are near-uniform.
  const CampusResult flat = run_campus(small_campus(2));
  EXPECT_LT(flat.profile.cells[0].events,
            2 * flat.profile.cells[9].events);
}

TEST(Campus, SingleCellCampusIsDegenerateButValid) {
  CampusOptions opt = small_campus(4);
  opt.cells = 1;  // no backbone, no reports -- just one PROFINET island
  const CampusResult r = run_campus(opt);
  ASSERT_EQ(r.cells.size(), 1u);
  EXPECT_GT(r.cells[0].cyclic_tx, 0u);
  EXPECT_EQ(r.cells[0].reports_sent, 0u);
}

}  // namespace
}  // namespace steelnet::net
