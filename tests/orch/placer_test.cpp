// Placement edge cases: the Placer must answer every degenerate fleet
// with a typed error (never a crash), and both policies must rank
// feasible nodes exactly as documented (ties to the lowest index, so
// placement replays byte-identically).
#include "orch/placer.hpp"

#include <gtest/gtest.h>

#include "sim/time.hpp"

namespace steelnet::orch {
namespace {

ComputeNodeState make_node(std::uint32_t rack, std::uint32_t capacity,
                           std::uint32_t used = 0) {
  ComputeNodeState n;
  n.spec.rack = rack;
  n.spec.capacity_mcpu = capacity;
  n.used_mcpu = used;
  return n;
}

PlacementRequest demand(std::uint32_t mcpu) {
  PlacementRequest req;
  req.demand_mcpu = mcpu;
  return req;
}

TEST(Placer, EmptyFleetIsTypedError) {
  const auto r = Placer{PolicyKind::kBinPack}.place({}, demand(100));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, PlaceError::kNoNodes);
}

TEST(Placer, ZeroCapacityNodesPlaceNothing) {
  const std::vector<ComputeNodeState> nodes = {make_node(0, 0),
                                               make_node(1, 0)};
  const auto r = Placer{PolicyKind::kBinPack}.place(nodes, demand(1));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, PlaceError::kInsufficientCapacity);
}

TEST(Placer, DemandLargerThanEveryNodeIsInsufficientCapacity) {
  const std::vector<ComputeNodeState> nodes = {make_node(0, 4000),
                                               make_node(1, 4000)};
  const auto r = Placer{PolicyKind::kBinPack}.place(nodes, demand(4001));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, PlaceError::kInsufficientCapacity);
}

TEST(Placer, AllNodesDeadOrDrainingIsNoEligibleNode) {
  std::vector<ComputeNodeState> nodes = {make_node(0, 4000),
                                         make_node(1, 4000)};
  nodes[0].alive = false;
  nodes[1].draining = true;
  const auto r = Placer{PolicyKind::kBinPack}.place(nodes, demand(100));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, PlaceError::kNoEligibleNode);
}

TEST(Placer, SingleRackAntiAffinityUnsatisfiable) {
  // All capacity lives in rack 0; a twin excluded from rack 0 has
  // nowhere to go, and the error says so (not "insufficient capacity").
  const std::vector<ComputeNodeState> nodes = {make_node(0, 4000),
                                               make_node(0, 4000)};
  PlacementRequest req = demand(100);
  req.exclude_rack = 0;
  const auto r = Placer{PolicyKind::kBinPack}.place(nodes, req);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, PlaceError::kAntiAffinityUnsatisfiable);
}

TEST(Placer, AntiAffinitySkipsExcludedRack) {
  // Rack 0 is fuller (bin-pack would prefer it) but excluded.
  const std::vector<ComputeNodeState> nodes = {make_node(0, 4000, 3000),
                                               make_node(1, 4000, 100)};
  PlacementRequest req = demand(100);
  req.exclude_rack = 0;
  const auto r = Placer{PolicyKind::kBinPack}.place(nodes, req);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.node, 1u);
}

TEST(Placer, BinPackPrefersFullestFeasibleNode) {
  const std::vector<ComputeNodeState> nodes = {
      make_node(0, 4000, 1000), make_node(0, 4000, 3500),
      make_node(0, 4000, 3950)};  // too full for 100 mcpu
  const auto r = Placer{PolicyKind::kBinPack}.place(nodes, demand(100));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.node, 1u);
}

TEST(Placer, LatencyAwarePrefersPreferredRackEvenWhenBusier) {
  const std::vector<ComputeNodeState> nodes = {make_node(0, 4000, 0),
                                               make_node(1, 4000, 3000)};
  PlacementRequest req = demand(100);
  req.preferred_rack = 1;
  const auto r = Placer{PolicyKind::kLatencyAware}.place(nodes, req);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.node, 1u) << "locality must dominate load";
}

TEST(Placer, LatencyAwareSpreadsLoadInsideRack) {
  const std::vector<ComputeNodeState> nodes = {make_node(0, 4000, 2000),
                                               make_node(0, 4000, 500)};
  PlacementRequest req = demand(100);
  req.preferred_rack = 0;
  const auto r = Placer{PolicyKind::kLatencyAware}.place(nodes, req);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.node, 1u);
}

TEST(Placer, TiesBreakTowardLowestIndex) {
  const std::vector<ComputeNodeState> nodes = {
      make_node(0, 4000, 1000), make_node(0, 4000, 1000),
      make_node(0, 4000, 1000)};
  PlacementRequest req = demand(100);
  req.preferred_rack = 0;
  const auto rb = Placer{PolicyKind::kBinPack}.place(nodes, req);
  const auto rl = Placer{PolicyKind::kLatencyAware}.place(nodes, req);
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(rl.ok());
  EXPECT_EQ(*rb.node, 0u);
  EXPECT_EQ(*rl.node, 0u);
}

TEST(Placer, PlacementIsPureAndRepeatable) {
  std::vector<ComputeNodeState> nodes;
  for (std::uint32_t i = 0; i < 16; ++i) {
    nodes.push_back(make_node(i % 4, 4000, (i * 977) % 3000));
  }
  PlacementRequest req = demand(250);
  req.preferred_rack = 2;
  const auto first = Placer{PolicyKind::kLatencyAware}.place(nodes, req);
  for (int i = 0; i < 10; ++i) {
    const auto again = Placer{PolicyKind::kLatencyAware}.place(nodes, req);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again.node, *first.node);
  }
}

TEST(ComputeNode, CpuDemandScalesInverselyWithCycleTime) {
  using namespace steelnet::sim::literals;
  EXPECT_EQ(cpu_demand_mcpu(sim::milliseconds(1)), 200u);
  EXPECT_EQ(cpu_demand_mcpu(sim::milliseconds(2)), 100u);
  EXPECT_EQ(cpu_demand_mcpu(sim::milliseconds(4)), 50u);
  // Glacial controllers still cost at least one millicore.
  EXPECT_GE(cpu_demand_mcpu(sim::seconds(60)), 1u);
}

}  // namespace
}  // namespace steelnet::orch
