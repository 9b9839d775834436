// The lossy-radio factory floor: the sharded run must be byte-identical
// at any shard count, every cell's conservation ledger must balance, and
// the watchdog-bound degradation curve must be monotone down the SNR
// ladder (the tab_radio acceptance gate, pinned here at the default seed).
#include "net/radio_floor.hpp"

#include <gtest/gtest.h>

namespace steelnet::net {
namespace {

const RadioCellReport* cell_named(const RadioFloorResult& r,
                                  const std::string& name) {
  for (const RadioCellReport& c : r.cells) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(RadioFloor, ShardCountNeverChangesTheBytes) {
  RadioFloorOptions opt;
  opt.shards = 1;
  const RadioFloorResult r1 = run_radio_floor(opt);
  opt.shards = 8;
  const RadioFloorResult r8 = run_radio_floor(opt);

  ASSERT_EQ(r1.cells.size(), r8.cells.size());
  EXPECT_EQ(r1.cells, r8.cells);
  EXPECT_EQ(r1.fingerprint(), r8.fingerprint());
  EXPECT_EQ(r1.to_csv(), r8.to_csv());
  EXPECT_EQ(r1.to_prometheus(), r8.to_prometheus());
  EXPECT_EQ(r1.to_chrome_trace(), r8.to_chrome_trace());

  // Every cell's ledger balances: each offered frame resolved to exactly
  // one cause, radio drops included.
  for (const RadioCellReport& c : r1.cells) {
    EXPECT_EQ(c.residual, 0) << c.name;
    EXPECT_GT(c.frames_offered, 0u) << c.name;
  }

  // The acceptance curve behind bench/tab_radio: within every scenario
  // family the radio gets monotonically worse down the SNR ladder.
  EXPECT_TRUE(degradation_monotone(r1));

  // Curve endpoints. At the healthy rung the radio behaves like the wire:
  // no drops, and the InstaPLC watchdog bound still holds.
  const RadioCellReport* healthy = cell_named(r1, "clean_snr00");
  ASSERT_NE(healthy, nullptr);
  EXPECT_EQ(healthy->drop_permille(), 0u);
  EXPECT_LE(healthy->max_output_gap_ns, r1.watchdog_bound_ns);
  // At the bottom rung the station cannot even associate: total dead air,
  // the output gap degenerates to the full horizon.
  const RadioCellReport* dead = cell_named(r1, "clean_snr40");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->drop_permille(), 1000u);
  EXPECT_EQ(dead->max_output_gap_ns, r1.horizon_ns);

  // The roaming-storm cells actually roam, and each handoff's dead-air
  // window shows up as handoff drops.
  const RadioCellReport* roam = cell_named(r1, "roam_clean");
  ASSERT_NE(roam, nullptr);
  EXPECT_GT(roam->roam_events, 0u);
  EXPECT_GT(roam->radio_dropped_handoff, 0u);
}

TEST(RadioFloor, MeasuredPartitionKeepsArtifactsByteIdentical) {
  // The calibration round-trip on the naturally skewed SNR ladder: dead
  // rungs execute far fewer events than healthy ones, so the measured
  // profile genuinely reshuffles placement -- and nothing in the
  // artifacts may move. Short horizon: placement invariance doesn't need
  // the full 3s run.
  RadioFloorOptions calib;
  calib.horizon = sim::milliseconds(300);
  calib.shards = 1;
  const RadioFloorResult golden = run_radio_floor(calib);
  ASSERT_FALSE(golden.profile.cells.empty());

  RadioFloorOptions opt = calib;
  opt.shards = 8;
  opt.measured_weights = golden.profile.weights();
  const RadioFloorResult measured = run_radio_floor(opt);
  EXPECT_EQ(measured.cells, golden.cells);
  EXPECT_EQ(measured.fingerprint(), golden.fingerprint());
  EXPECT_EQ(measured.to_csv(), golden.to_csv());
  EXPECT_EQ(measured.to_prometheus(), golden.to_prometheus());
  EXPECT_EQ(measured.profile.to_text(), golden.profile.to_text());

  // The placement itself differs from the prefix walk (the profile has
  // signal), and the diagnostics report a valid partition.
  RadioFloorOptions prefix_opt = calib;
  prefix_opt.shards = 8;
  const RadioFloorResult prefix = run_radio_floor(prefix_opt);
  EXPECT_EQ(prefix.fingerprint(), golden.fingerprint());
  EXPECT_NE(measured.partition, prefix.partition);
  EXPECT_LE(measured.imbalance_permille, prefix.imbalance_permille);
}

TEST(RadioFloor, DefaultFloorFingerprintPinned) {
  // Golden pin of the artifact bytes of the default floor (seed 1).
  EXPECT_EQ(run_radio_floor(RadioFloorOptions{}).fingerprint(),
            0x301b7df05e86c83dULL);
}

TEST(RadioFloor, SeedSelectsTheFloor) {
  RadioFloorOptions opt;
  opt.shards = 4;
  const RadioFloorResult base = run_radio_floor(opt);
  opt.seed = 2;
  const RadioFloorResult other = run_radio_floor(opt);
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  // Structure is seed-independent: same cells, same scenario grid.
  ASSERT_EQ(base.cells.size(), other.cells.size());
  for (std::size_t i = 0; i < base.cells.size(); ++i) {
    EXPECT_EQ(base.cells[i].name, other.cells[i].name);
    EXPECT_EQ(base.cells[i].scenario, other.cells[i].scenario);
  }
}

}  // namespace
}  // namespace steelnet::net
