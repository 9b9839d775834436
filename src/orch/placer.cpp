#include "orch/placer.hpp"

namespace steelnet::orch {

const char* to_string(PlaceError e) {
  switch (e) {
    case PlaceError::kNone:
      return "ok";
    case PlaceError::kNoNodes:
      return "no compute nodes registered";
    case PlaceError::kAntiAffinityUnsatisfiable:
      return "anti-affinity unsatisfiable (capacity only in excluded rack)";
    case PlaceError::kInsufficientCapacity:
      return "insufficient capacity on every eligible node";
    case PlaceError::kNoEligibleNode:
      return "no alive, non-draining node";
  }
  return "?";
}

const char* to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kBinPack:
      return "binpack";
    case PolicyKind::kLatencyAware:
      return "latency";
  }
  return "?";
}

double score(PolicyKind policy, const ComputeNodeState& node,
             const PlacementRequest& req) {
  switch (policy) {
    case PolicyKind::kBinPack:
      if (node.spec.capacity_mcpu == 0) return 0.0;
      return static_cast<double>(node.used_mcpu + req.demand_mcpu) /
             node.spec.capacity_mcpu;
    case PolicyKind::kLatencyAware: {
      // In-rack nodes occupy the [2, 3) score band, cross-rack nodes
      // [0, 1): locality always dominates, load spreading
      // (1 - utilization) ranks within a band.
      const bool local = req.preferred_rack != kNoRack &&
                         node.spec.rack == req.preferred_rack;
      return (local ? 2.0 : 0.0) + (1.0 - node.utilization());
    }
  }
  return 0.0;
}

PlaceResult Placer::place(const std::vector<ComputeNodeState>& nodes,
                          const PlacementRequest& req) const {
  PlaceResult result;
  if (nodes.empty()) {
    result.error = PlaceError::kNoNodes;
    return result;
  }
  bool any_eligible = false;
  bool any_outside_excluded_rack = false;
  bool best_found = false;
  double best_score = 0.0;
  ComputeId best = 0;
  for (ComputeId i = 0; i < nodes.size(); ++i) {
    const ComputeNodeState& n = nodes[i];
    if (!n.placeable()) continue;
    any_eligible = true;
    if (req.exclude_rack != kNoRack && n.spec.rack == req.exclude_rack) {
      continue;
    }
    any_outside_excluded_rack = true;
    if (n.free_mcpu() < req.demand_mcpu) continue;
    const double s = score(policy_, n, req);
    if (!best_found || s > best_score) {
      best_found = true;
      best_score = s;
      best = i;  // strict '>' keeps ties on the lowest index
    }
  }
  if (best_found) {
    result.node = best;
    return result;
  }
  if (!any_eligible) {
    result.error = PlaceError::kNoEligibleNode;
  } else if (!any_outside_excluded_rack) {
    result.error = PlaceError::kAntiAffinityUnsatisfiable;
  } else {
    result.error = PlaceError::kInsufficientCapacity;
  }
  return result;
}

}  // namespace steelnet::orch
