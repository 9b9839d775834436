// steelnet::mlnet -- the three Fig. 6 topologies and the traffic-aware
// planner behind the ML-aware one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mlnet/workload.hpp"
#include "net/topology.hpp"

namespace steelnet::mlnet {

enum class TopologyKind : std::uint8_t {
  kRing,       ///< classic industrial ring, one central server rack
  kLeafSpine,  ///< IT-style two-tier fabric, servers on one leaf
  kMlAware,    ///< traffic-aware cells with dimensioned edge servers
};

[[nodiscard]] std::string to_string(TopologyKind kind);
[[nodiscard]] std::vector<TopologyKind> all_topologies();

/// The built experiment network: client hosts and the server each client
/// should address.
struct MlFabric {
  net::Fabric fabric;
  std::vector<net::NodeId> clients;
  std::vector<net::NodeId> servers;
  /// servers index assigned to each client (same order as clients).
  std::vector<std::size_t> client_server;
  /// Rough capex: switch count + server count (for the cost discussion).
  std::size_t switches = 0;
  std::size_t server_count = 0;
};

/// Output of the traffic-aware planner: how many clients share one edge
/// server/cell so that neither its 1 Gb/s edge link nor its server's
/// workers run above 60% utilization.
struct MlAwarePlan {
  std::size_t clients_per_cell = 0;
  std::size_t cells = 0;
  double per_client_bps = 0;
  double cell_load_bps = 0;
};

/// §5: "The preliminary design aligns inference accuracy with
/// infrastructure cost and network dimensioning" -- computes the cell
/// size from the accuracy-driven per-client load.
[[nodiscard]] MlAwarePlan plan_ml_aware(MlApp app, std::size_t n_clients,
                                        double target_accuracy);

/// Builds the requested topology with `n_clients` clients and installs
/// routes; the ML-aware cells are planned for `target_accuracy`. Clients
/// are net::HostNode, servers too; application wiring is the caller's
/// business (see inference.hpp).
MlFabric build_ml_topology(net::Network& network, TopologyKind kind,
                           MlApp app, std::size_t n_clients,
                           double target_accuracy);

}  // namespace steelnet::mlnet
