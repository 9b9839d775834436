// The seed-sweep harness invariants on the InstaPLC testbed:
//   * switchover latency bounded by watchdog-cycles x cycle-time,
//   * no delivery after a kill,
//   * frame conservation (residual 0) under arbitrary fault mixes,
//   * byte-identical reruns (obs exports included) per seed,
//   * digital-twin re-sync and flap-shorter-than-watchdog behaviour.
#include "faults/scenario_runner.hpp"

#include <gtest/gtest.h>

#include "sim/hash.hpp"

namespace steelnet::faults {
namespace {

using namespace steelnet::sim::literals;

void expect_invariants(const ScenarioOutcome& out) {
  SCOPED_TRACE(out.scenario + " seed=" + std::to_string(out.seed));
  EXPECT_EQ(out.residual, 0) << "frame conservation violated";
  EXPECT_EQ(out.post_kill_deliveries, 0u) << "delivery after a kill";
  if (out.switched_over) {
    EXPECT_GT(out.switchover_latency, sim::SimTime::zero());
    EXPECT_LE(out.switchover_latency, switchover_bound(RunnerOptions{}));
  }
}

TEST(ScenarioRunner, SilentPrimarySwitchesOverWithinBound) {
  const ScenarioOutcome out =
      ScenarioRunner{}.run(silent_primary_scenario(1));
  expect_invariants(out);
  ASSERT_TRUE(out.switched_over);
  // The kill hits at 1s; detection needs 3 silent cycles + <=1 tick.
  EXPECT_GE(out.switchover_at, 1_s);
  EXPECT_LE(out.switchover_at, 1_s + switchover_bound(RunnerOptions{}));
  // Detection + rule flip races the device's own 3-cycle watchdog; the
  // seed behaviour allows at most one boundary trip before outputs resume.
  EXPECT_LE(out.device_watchdog_trips, 1u);
  EXPECT_LE(out.max_output_gap, 12_ms);
  EXPECT_TRUE(out.secondary_running);
}

TEST(ScenarioRunner, PrimaryCrashSwitchesOverAndNothingLeaksAfterKill) {
  const ScenarioOutcome out =
      ScenarioRunner{}.run(primary_crash_scenario(1));
  expect_invariants(out);
  ASSERT_TRUE(out.switched_over);
  EXPECT_EQ(out.post_kill_deliveries, 0u);
  // The crash is harsher than the graceful stop: in-flight frames toward
  // the dead host are absorbed and accounted.
  EXPECT_GT(out.faults.dropped_receiver_down + out.faults.suppressed_tx, 0u);
  EXPECT_LE(out.device_watchdog_trips, 1u);
  EXPECT_TRUE(out.secondary_running);
}

TEST(ScenarioRunner, LossBurstLongerThanWindowSwitchesOver) {
  const ScenarioOutcome out = ScenarioRunner{}.run(loss_burst_scenario(1));
  expect_invariants(out);
  // 10 ms of 100% loss = 5 silent cycles > the 3-cycle window.
  ASSERT_TRUE(out.switched_over);
  EXPECT_GT(out.faults.dropped_loss, 0u);
  EXPECT_LE(out.device_watchdog_trips, 1u);
}

TEST(ScenarioRunner, LinkFlapSwitchesOverDuringFirstDownWindow) {
  const ScenarioOutcome out = ScenarioRunner{}.run(link_flap_scenario(1));
  expect_invariants(out);
  ASSERT_TRUE(out.switched_over);
  EXPECT_GE(out.switchover_at, 1_s);
  EXPECT_LE(out.switchover_at, 1_s + 10_ms);
  EXPECT_GT(out.faults.dropped_link_down, 0u);
  EXPECT_EQ(out.faults.link_down_events, 3u);
  EXPECT_EQ(out.faults.link_up_events, 3u);
}

TEST(ScenarioRunner, FlapShorterThanWatchdogWindowDoesNotSwitchover) {
  const ScenarioOutcome out = ScenarioRunner{}.run(short_flap_scenario(1));
  expect_invariants(out);
  // 3 ms outage < 3 cycles x 2 ms: cyclic frames resume before the
  // monitor (or the device watchdog) can fire.
  EXPECT_FALSE(out.switched_over);
  EXPECT_EQ(out.device_watchdog_trips, 0u);
  EXPECT_GT(out.faults.dropped_link_down, 0u);
  EXPECT_LE(out.max_output_gap, 8_ms);
}

TEST(ScenarioRunner, TwinStaysSyncedThroughConnectLossBurst) {
  // 100% loss on the secondary's link exactly while it connects: the
  // ConnectReq retry budget must carry the twin sync through the burst.
  FaultScenario sc;
  sc.name = "connect_burst";
  sc.seed = 5;
  FaultSpec f;
  f.kind = FaultKind::kLoss;
  f.node = "v2";
  f.port = 0;
  f.at = 95_ms;  // secondary connects at 100ms
  f.duration = 50_ms;
  f.probability = 1.0;
  sc.faults.push_back(f);
  const ScenarioOutcome out = ScenarioRunner{}.run(sc);
  expect_invariants(out);
  EXPECT_GT(out.faults.dropped_loss, 0u);
  EXPECT_TRUE(out.twin_synced);
  EXPECT_TRUE(out.secondary_running);
  EXPECT_FALSE(out.switched_over);  // the primary was never in trouble
}

TEST(ScenarioRunner, TwinResyncsSecondaryAfterPrimaryCrashAndRestart) {
  // The primary crashes, the secondary takes over; when the old primary's
  // pod restarts it reconnects -- and the twin absorbs it as the new
  // standby, keeping the device on exactly one AR throughout.
  FaultScenario sc;
  sc.name = "crash_restart";
  sc.seed = 6;
  FaultSpec f;
  f.kind = FaultKind::kNodeCrash;
  f.node = "v1";
  f.at = 1_s;
  f.duration = 500_ms;  // pod restart at 1.5s
  sc.faults.push_back(f);
  const ScenarioOutcome out = ScenarioRunner{}.run(sc);
  expect_invariants(out);
  ASSERT_TRUE(out.switched_over);
  EXPECT_TRUE(out.twin_synced);
  EXPECT_EQ(out.faults.node_crashes, 1u);
  EXPECT_EQ(out.faults.node_restarts, 1u);
  // After switchover the device keeps exchanging data (at most the one
  // boundary trip the seed failover tests allow).
  EXPECT_LE(out.device_watchdog_trips, 1u);
}

TEST(ScenarioRunner, SameSeedSameScenarioIsByteIdentical) {
  RunnerOptions opts;
  opts.keep_exports = true;
  const ScenarioRunner runner{opts};
  for (const std::uint64_t seed : {1ULL, 17ULL}) {
    for (const FaultScenario& sc :
         {loss_burst_scenario(seed), random_scenario(seed)}) {
      SCOPED_TRACE(sc.name + " seed=" + std::to_string(seed));
      const ScenarioOutcome a = runner.run(sc);
      const ScenarioOutcome b = runner.run(sc);
      EXPECT_EQ(a.fingerprint(), b.fingerprint());
      // Byte-identical observability exports, not just equal counters.
      EXPECT_EQ(a.metrics_prom, b.metrics_prom);
      EXPECT_EQ(a.trace_json, b.trace_json);
      EXPECT_EQ(a.metrics_fp, b.metrics_fp);
      EXPECT_EQ(a.trace_fp, b.trace_fp);
    }
  }
}

TEST(InstaPlcTestbed, CollectStreamsTheFingerprintsOfTheKeptExports) {
  // collect() hashes the exports without building them unless they are
  // kept; both ways must give the same fingerprints, and the kept text
  // must hash to them.
  RunnerOptions kept;
  kept.keep_exports = true;
  for (const FaultScenario& sc :
       {primary_crash_scenario(3), random_scenario(29)}) {
    SCOPED_TRACE(sc.name);
    const ScenarioOutcome streamed = ScenarioRunner{}.run(sc);
    const ScenarioOutcome full = ScenarioRunner{kept}.run(sc);
    EXPECT_TRUE(streamed.metrics_prom.empty());
    EXPECT_TRUE(streamed.trace_json.empty());
    ASSERT_FALSE(full.trace_json.empty());
    EXPECT_EQ(streamed.metrics_fp, full.metrics_fp);
    EXPECT_EQ(streamed.trace_fp, full.trace_fp);
    EXPECT_EQ(full.metrics_fp, sim::fnv1a64(full.metrics_prom));
    EXPECT_EQ(full.trace_fp, sim::fnv1a64(full.trace_json));
    EXPECT_EQ(streamed.fingerprint(), full.fingerprint());
  }
}

TEST(ScenarioRunner, SweepJobs8MatchesJobs1ByteForByte) {
  // The parallel-sweep acceptance bar: fanning the runs across a worker
  // pool must not change a single byte of any outcome -- counters,
  // fingerprints, or the full Prometheus/Chrome-trace exports.
  RunnerOptions opts;
  opts.keep_exports = true;
  const ScenarioRunner runner{opts};
  std::vector<FaultScenario> scenarios;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    scenarios.push_back(random_scenario(seed));
  }
  const auto seq = runner.run_sweep(scenarios, /*jobs=*/1);
  const auto par = runner.run_sweep(scenarios, /*jobs=*/8);
  ASSERT_EQ(seq.size(), scenarios.size());
  ASSERT_EQ(par.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    SCOPED_TRACE(scenarios[i].name + " seed=" +
                 std::to_string(scenarios[i].seed));
    ASSERT_TRUE(seq[i].ok()) << seq[i].error;
    ASSERT_TRUE(par[i].ok()) << par[i].error;
    const ScenarioOutcome& a = *seq[i].value;
    const ScenarioOutcome& b = *par[i].value;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.metrics_fp, b.metrics_fp);
    EXPECT_EQ(a.trace_fp, b.trace_fp);
    EXPECT_EQ(a.metrics_prom, b.metrics_prom);
    EXPECT_EQ(a.trace_json, b.trace_json);
  }
}

TEST(ScenarioRunner, SweepSlotsComeBackInScenarioOrder) {
  const ScenarioRunner runner;
  const auto scenarios = canonical_scenarios(1);
  const auto slots = runner.run_sweep(scenarios, /*jobs=*/4);
  ASSERT_EQ(slots.size(), scenarios.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ASSERT_TRUE(slots[i].ok()) << slots[i].error;
    EXPECT_EQ(slots[i].value->scenario, scenarios[i].name);
  }
}

TEST(ScenarioRunner, DifferentSeedsDiverge) {
  // A jittered link makes every arrival time seed-dependent: two seeds
  // colliding on the full trace export is effectively impossible.
  FaultScenario sc;
  sc.name = "jitter";
  FaultSpec f;
  f.kind = FaultKind::kJitter;
  f.node = "v1";
  f.port = 0;
  f.at = 200_ms;
  f.duration = 2_s;
  f.delay = 200_us;
  sc.faults.push_back(f);
  const ScenarioRunner runner;
  sc.seed = 1;
  const ScenarioOutcome a = runner.run(sc);
  sc.seed = 2;
  const ScenarioOutcome b = runner.run(sc);
  EXPECT_NE(a.trace_fp, b.trace_fp);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ScenarioRunner, RandomScenarioSweep64SeedsHoldsAllInvariants) {
  // The property sweep: 64 seeded random fault mixes (link down/flap,
  // loss, corruption, duplication, reordering, jitter, crash, stop) on
  // the full InstaPLC stack. Every run must conserve frames exactly and
  // never deliver a dead node's post-kill frames; switchovers, when they
  // happen, must stay within the watchdog bound.
  const ScenarioRunner runner;
  int switchovers = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const FaultScenario sc = random_scenario(seed);
    ASSERT_FALSE(sc.faults.empty());
    // The scenario text format round-trips every generated spec.
    EXPECT_EQ(FaultScenario::parse(sc.to_text()), sc);
    const ScenarioOutcome out = runner.run(sc);
    expect_invariants(out);
    if (out.switched_over) ++switchovers;
  }
  // The mix is rich enough that some scenarios kill the primary.
  EXPECT_GT(switchovers, 0);
}

TEST(ScenarioRunner, CanonicalScenariosCoverTheFaultMatrix) {
  const auto scenarios = canonical_scenarios(3);
  ASSERT_EQ(scenarios.size(), 4u);
  EXPECT_EQ(scenarios[0].name, "silent_primary");
  EXPECT_EQ(scenarios[1].name, "loss_burst");
  EXPECT_EQ(scenarios[2].name, "link_flap");
  EXPECT_EQ(scenarios[3].name, "primary_crash");
  for (const auto& sc : scenarios) EXPECT_EQ(sc.seed, 3u);
}

}  // namespace
}  // namespace steelnet::faults
