// The assign() contract: both placements are deterministic, use every
// shard, clamp to the cell count, and fail with typed errors -- and the
// LPT tie-break rule (all-equal weights delegate to prefix-quota) pins
// uniform floors to their historical placement. RateProfile's text
// round-trip is the --profile-out/--profile-in unit.
#include "sim/partitioner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "sim/random.hpp"
#include "sim/sharded_simulator.hpp"

namespace steelnet::sim {
namespace {

std::uint64_t load_of(const std::vector<std::uint64_t>& w,
                      const std::vector<std::uint32_t>& map,
                      std::uint32_t shard) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (map[i] == shard) sum += w[i];
  }
  return sum;
}

TEST(PrefixQuota, MatchesTheKernelsStaticPartition) {
  // Without measured weights the kernel places cells by the prefix-quota
  // walk over their declared weights.
  const std::vector<std::uint64_t> weights{100, 1, 1, 1, 7, 7, 3, 9};
  const PrefixQuotaPartitioner prefix;
  for (std::size_t shards = 1; shards <= weights.size(); ++shards) {
    ShardedSimulator ss;
    for (const std::uint64_t w : weights) {
      ss.add_cell("cell" + std::to_string(ss.cell_count()), w);
    }
    (void)ss.run(SimTime{1}, shards);
    EXPECT_EQ(ss.partition_map(), prefix.assign(weights, shards))
        << "shards=" << shards;
  }
}

TEST(PrefixQuota, GroupsAreContiguousAndEveryShardNonempty) {
  const std::vector<std::uint64_t> weights{5, 5, 5, 5, 5, 5, 5, 5, 5, 5};
  const auto map = PrefixQuotaPartitioner{}.assign(weights, 4);
  ASSERT_EQ(map.size(), weights.size());
  for (std::size_t i = 1; i < map.size(); ++i) {
    EXPECT_GE(map[i], map[i - 1]);  // contiguous: shard ids never go back
  }
  EXPECT_EQ(map.back(), 3u);  // every shard used
}

TEST(Lpt, EqualWeightsReproducePrefixQuotaExactly) {
  const std::vector<std::uint64_t> weights(12, 7);
  const LptPartitioner lpt;
  const PrefixQuotaPartitioner prefix;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(lpt.assign(weights, shards), prefix.assign(weights, shards))
        << "shards=" << shards;
  }
}

TEST(Lpt, SkewedWeightsBeatPrefixQuotaOnImbalance) {
  // The tab_campus --skew shape: a hot contiguous block that prefix-quota
  // (fed the uniform *declared* weights) piles onto the first shards.
  std::vector<std::uint64_t> measured(16, 100);
  for (std::size_t i = 0; i < 4; ++i) measured[i] = 1'000;
  const std::vector<std::uint64_t> declared(16, 1);

  const auto naive = PrefixQuotaPartitioner{}.assign(declared, 4);
  const auto balanced = LptPartitioner{}.assign(measured, 4);
  const auto naive_stats = partition_stats(measured, naive);
  const auto lpt_stats = partition_stats(measured, balanced);
  EXPECT_LT(lpt_stats.imbalance_permille(), naive_stats.imbalance_permille());
  EXPECT_EQ(lpt_stats.total_load, naive_stats.total_load);
}

TEST(Lpt, DeterministicTieBreaksAndStableAcrossCalls) {
  sim::Rng rng{99};
  std::vector<std::uint64_t> weights(64);
  for (auto& w : weights) {
    w = static_cast<std::uint64_t>(rng.uniform_int(0, 500));
  }
  const LptPartitioner lpt;
  const auto first = lpt.assign(weights, 8);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(lpt.assign(weights, 8), first);
  // Contract checks on the result.
  EXPECT_NO_THROW(validate_assignment(first, weights.size(), 8));
  // Load-tie rule: two equal heaviest cells land on shards 0 and 1.
  const auto tied = lpt.assign({50, 50, 1, 1}, 2);
  EXPECT_EQ(tied[0], 0u);
  EXPECT_EQ(tied[1], 1u);
}

TEST(Lpt, GreedyPackingBalancesTheClassicExample) {
  // LPT on {7,6,5,4,3} over 2 shards packs greedily to {7,4,3}/{6,5} =
  // 14/11 -- one off the optimal 13/12, and well under the 18 the
  // contiguous prefix walk's best split ({7,6}/{5,4,3} = 13/12 happens
  // to be reachable here, but only because the heavy cells lead).
  const std::vector<std::uint64_t> weights{7, 6, 5, 4, 3};
  const auto map = LptPartitioner{}.assign(weights, 2);
  const std::uint64_t s0 = load_of(weights, map, 0);
  const std::uint64_t s1 = load_of(weights, map, 1);
  EXPECT_EQ(s0 + s1, 25u);
  // The LPT guarantee: max load <= (4/3 - 1/3m) x optimal = 14.4 here.
  EXPECT_LE(std::max(s0, s1), 14u);
}

TEST(Partitioners, SharedContractEdgeCases) {
  const auto check = [](const auto& p, const char* name) {
    SCOPED_TRACE(name);
    // shards == 0 is a typed error.
    try {
      (void)p.assign({1, 2, 3}, 0);
      FAIL() << "expected PartitionError";
    } catch (const PartitionError& e) {
      EXPECT_EQ(e.code(), PartitionErrorCode::kBadShardCount);
    }
    // Empty weights yield an empty assignment.
    EXPECT_TRUE(p.assign({}, 4).empty());
    // Shards clamp to the cell count: 2 cells over 8 shards use {0, 1}.
    const auto clamped = p.assign({3, 3}, 8);
    EXPECT_EQ(clamped, (std::vector<std::uint32_t>{0, 1}));
    EXPECT_NO_THROW(validate_assignment(clamped, 2, 8));
  };
  check(PrefixQuotaPartitioner{}, "prefix");
  check(LptPartitioner{}, "lpt");
}

TEST(PartitionStats, HandComputedImbalance) {
  // Loads {30, 10}: max 30, mean 20 -> 1500 permille.
  const auto stats = partition_stats({30, 10}, {0, 1});
  EXPECT_EQ(stats.total_load, 40u);
  EXPECT_EQ(stats.max_load, 30u);
  ASSERT_EQ(stats.shard_load.size(), 2u);
  EXPECT_EQ(stats.imbalance_permille(), 1500u);
  // Perfect balance reads exactly 1000.
  EXPECT_EQ(partition_stats({5, 5}, {0, 1}).imbalance_permille(), 1000u);
  // Empty partitions read 1000 (no signal, not a division crash).
  EXPECT_EQ(PartitionStats{}.imbalance_permille(), 1000u);
}

TEST(PartitionStats, SizeMismatchIsTyped) {
  try {
    (void)partition_stats({1, 2, 3}, {0, 1});
    FAIL() << "expected PartitionError";
  } catch (const PartitionError& e) {
    EXPECT_EQ(e.code(), PartitionErrorCode::kBadAssignment);
  }
}

TEST(ValidateAssignment, RejectsGapsAndOutOfRangeShards) {
  // Shard 1 unused out of 2 requested (with 2+ cells): invalid.
  EXPECT_THROW(validate_assignment({0, 0, 0}, 3, 2), PartitionError);
  // Shard id beyond the clamped count: invalid.
  EXPECT_THROW(validate_assignment({0, 5}, 2, 2), PartitionError);
  // Size mismatch: invalid.
  EXPECT_THROW(validate_assignment({0, 1}, 3, 2), PartitionError);
  EXPECT_NO_THROW(validate_assignment({0, 1, 0}, 3, 2));
}

TEST(RateProfile, TextRoundTripPreservesOrderAndCounts) {
  RateProfile p;
  p.cells.push_back({"cell_hot", 182'403, 5'521});
  p.cells.push_back({"cell_idle", 0, 0});
  p.cells.push_back({"cell_mid", 77, 3});
  const RateProfile back = RateProfile::parse(p.to_text());
  ASSERT_EQ(back.cells.size(), 3u);
  EXPECT_EQ(back.cells[0].name, "cell_hot");
  EXPECT_EQ(back.cells[0].events, 182'403u);
  EXPECT_EQ(back.cells[0].msgs, 5'521u);
  EXPECT_EQ(back.cells[1].name, "cell_idle");
  EXPECT_EQ(back.cells[2].msgs, 3u);
  // weights() clamps idle cells to 1 so LPT still counts occupancy.
  EXPECT_EQ(back.weights(),
            (std::vector<std::uint64_t>{187'924, 1, 80}));
}

TEST(RateProfile, ParserSkipsCommentsAndBlankLines) {
  const std::string text =
      "# steelnet cell-rate profile v1\n"
      "\n"
      "# calibration run, seed 1\n"
      "cell,events,msgs\n"
      "a,10,2\n"
      "\n"
      "b,3,0\n";
  const RateProfile p = RateProfile::parse(text);
  ASSERT_EQ(p.cells.size(), 2u);
  EXPECT_EQ(p.cells[0].name, "a");
  EXPECT_EQ(p.cells[1].events, 3u);
}

TEST(RateProfile, MalformedTextIsATypedError) {
  const char* kBad[] = {
      "",                                            // no header
      "cell,events\na,1\n",                          // wrong header
      "cell,events,msgs\na,1\n",                     // short row
      "cell,events,msgs\na,1,2,3\n",                 // long row
      "cell,events,msgs\na,x,2\n",                   // non-numeric count
      "cell,events,msgs\na,18446744073709551616,0\n", // count over 2^64-1
  };
  for (const char* text : kBad) {
    try {
      (void)RateProfile::parse(text);
      FAIL() << "expected PartitionError for: " << text;
    } catch (const PartitionError& e) {
      EXPECT_EQ(e.code(), PartitionErrorCode::kMalformedProfile);
    }
  }
  // The largest count that fits still parses.
  EXPECT_EQ(RateProfile::parse("cell,events,msgs\na,0,18446744073709551615\n")
                .cells[0]
                .msgs,
            UINT64_MAX);
}

}  // namespace
}  // namespace steelnet::sim
