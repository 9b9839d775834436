// steelnet::orch -- placement: which compute node runs a vPLC.
//
// The Placer separates *feasibility* from *preference*:
//   * feasibility (node alive, not draining, capacity >= demand, rack not
//     excluded by anti-affinity) is checked by the Placer itself, and the
//     reason the fleet could not be placed comes back as a typed error --
//     an oversubscribed fleet is an answer, never a crash;
//   * preference is score(policy, node, request), computed for every
//     feasible node. Ties break toward the lowest node index, so placement
//     is a pure function of (nodes, request, policy) and placement traces
//     replay byte-identically.
//
// Two policies ship (the tab_orch ablation):
//   * bin-packing  -- best-fit: prefer the fullest feasible node, which
//     consolidates the fleet onto few nodes and leaves big holes for
//     future placements (classic consolidation scheduler);
//   * latency-aware -- prefer nodes in the rack closest to the vPLC's
//     field devices (the request's preferred rack), and spread load
//     inside a rack; cross-rack placements pay a hop penalty. This is
//     the policy that keeps cycle-time slack and caps the activation
//     queue depth any single node sees during a failover storm.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "orch/compute.hpp"

namespace steelnet::orch {

struct PlacementRequest {
  VplcId vplc = 0;
  std::uint32_t demand_mcpu = 0;
  /// Rack of the vPLC's field devices (locality hint); kNoRack = none.
  std::uint32_t preferred_rack = kNoRack;
  /// Anti-affinity: never place in this rack (a secondary must not share
  /// the primary's failure domain); kNoRack = unconstrained.
  std::uint32_t exclude_rack = kNoRack;
};

/// Why a placement could not be made. Ordered by specificity: the Placer
/// reports the most informative error that explains the rejection.
enum class PlaceError : std::uint8_t {
  kNone = 0,
  /// No compute nodes registered at all.
  kNoNodes,
  /// Capacity exists only in the excluded rack: anti-affinity cannot be
  /// satisfied (e.g. a single-rack topology asking for rack-disjoint
  /// twins).
  kAntiAffinityUnsatisfiable,
  /// Every eligible node lacks free capacity for the demand.
  kInsufficientCapacity,
  /// All nodes are dead or draining.
  kNoEligibleNode,
};

[[nodiscard]] const char* to_string(PlaceError e);

/// Outcome of one placement attempt: a node index, or a typed error.
struct PlaceResult {
  std::optional<ComputeId> node;
  PlaceError error = PlaceError::kNone;

  [[nodiscard]] bool ok() const { return node.has_value(); }
};

enum class PolicyKind : std::uint8_t {
  /// Best-fit bin packing: score = post-placement utilization.
  kBinPack,
  /// Rack locality first, then load spreading: in-rack nodes outrank any
  /// cross-rack node; within a tier the least-utilized node wins.
  kLatencyAware,
};

[[nodiscard]] const char* to_string(PolicyKind k);

/// How much `policy` prefers placing `req` on the feasible `node`; higher
/// wins.
[[nodiscard]] double score(PolicyKind policy, const ComputeNodeState& node,
                           const PlacementRequest& req);

/// Stateless placement driver: scans `nodes` in index order, filters by
/// feasibility, ranks by `policy`. Does NOT reserve capacity -- the
/// caller (FleetManager) commits the reservation so rejected candidates
/// leave no trace.
class Placer {
 public:
  explicit Placer(PolicyKind policy) : policy_(policy) {}

  [[nodiscard]] PlaceResult place(
      const std::vector<ComputeNodeState>& nodes,
      const PlacementRequest& req) const;

 private:
  PolicyKind policy_;
};

}  // namespace steelnet::orch
