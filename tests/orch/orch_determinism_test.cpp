// Determinism regression for the orchestration layer: one seed must
// reproduce the placement trace and the full Prometheus export (fleet
// counters included) byte for byte, and sweeps must be invariant to the
// worker-pool size.
#include <gtest/gtest.h>

#include "core/sweep_runner.hpp"
#include "orch/orch_runner.hpp"
#include "small_orch_config.hpp"

namespace steelnet::orch {
namespace {

OrchConfig stormy(std::uint64_t seed) {
  OrchConfig cfg = small_orch_config(seed);
  cfg.scenario = OrchScenario::kRackFailure;
  return cfg;
}

TEST(OrchDeterminism, SameSeedIsByteIdentical) {
  OrchConfig cfg = stormy(5);
  cfg.keep_exports = true;
  const OrchOutcome a = OrchRunner::run(cfg);
  const OrchOutcome b = OrchRunner::run(cfg);
  ASSERT_TRUE(a.place_error.empty()) << a.place_error;
  EXPECT_EQ(a.trace_text, b.trace_text);
  EXPECT_EQ(a.metrics_prom, b.metrics_prom);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.trace_fp, 0u);
  EXPECT_NE(a.metrics_fp, 0u);
}

TEST(OrchDeterminism, PrometheusExportCarriesFleetCounters) {
  OrchConfig cfg = stormy(5);
  cfg.keep_exports = true;
  const OrchOutcome out = OrchRunner::run(cfg);
  // Fleet counters are part of the deterministic obs surface: the export
  // must carry the orch ledger, not just the network-plane metrics.
  for (const char* metric :
       {"steelnet_orch_failovers_started{node=\"fleet\"}",
        "steelnet_orch_switchovers{node=\"fleet\"}",
        "steelnet_orch_heartbeats_rx", "steelnet_orch_slo_violations",
        "steelnet_orch_switchover_latency_us_count"}) {
    EXPECT_NE(out.metrics_prom.find(metric), std::string::npos)
        << "missing " << metric << " in export";
  }
}

TEST(OrchDeterminism, SmallConfigFingerprintPinned) {
  // Golden pin of the whole outcome hash, not only run-to-run agreement.
  EXPECT_EQ(OrchRunner::run(small_orch_config(1)).fingerprint(),
            0x1c1d6f8cbe254fcaULL);
}

TEST(OrchDeterminism, DifferentSeedsDiverge) {
  const OrchOutcome a = OrchRunner::run(stormy(1));
  const OrchOutcome b = OrchRunner::run(stormy(2));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(OrchDeterminism, SweepIsInvariantToJobCount) {
  std::vector<OrchConfig> cfgs;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    OrchConfig cfg = stormy(s);
    cfg.scenario = (s % 2 == 0) ? OrchScenario::kRollingUpgrade
                                : OrchScenario::kRackFailure;
    cfgs.push_back(cfg);
  }
  const auto sweep = [&cfgs](std::size_t jobs) {
    return core::SweepRunner{jobs}.run(cfgs.size(), [&cfgs](std::size_t i) {
      return OrchRunner::run(cfgs[i]);
    });
  };
  const auto serial = sweep(1);
  const auto pooled = sweep(4);
  ASSERT_EQ(serial.size(), cfgs.size());
  ASSERT_EQ(pooled.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    ASSERT_TRUE(pooled[i].ok()) << pooled[i].error;
    EXPECT_EQ(serial[i].value->fingerprint(), pooled[i].value->fingerprint())
        << "slot " << i << " diverged across pool sizes";
  }
}

}  // namespace
}  // namespace steelnet::orch
