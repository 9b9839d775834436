// steelnet::net -- the star builder and static shortest-path routing.
//
// A campus cell is one star (build_star). mlnet builds its ring, leaf-spine
// and ML-aware fabrics itself and routes them with
// install_shortest_path_routes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/host_node.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"

namespace steelnet::net {

/// Deterministic locally-administered MAC for host index `i`.
[[nodiscard]] MacAddress host_mac(std::uint32_t i);

/// A built topology: node ids of all hosts and switches, in creation order.
struct Fabric {
  Network* net = nullptr;
  std::vector<NodeId> hosts{};
  std::vector<NodeId> switches{};

  [[nodiscard]] HostNode& host(std::size_t i) const;
  [[nodiscard]] std::size_t host_count() const { return hosts.size(); }
};

struct TopologyOptions {
  LinkParams host_link{};   ///< host <-> switch links
  SwitchConfig switch_cfg{};
  std::string name_prefix = "n";
};

/// One switch, `n_hosts` spokes.
Fabric build_star(Network& net, std::size_t n_hosts, TopologyOptions opt = {});

/// Computes shortest paths over the switch graph and installs static
/// forwarding entries for every host MAC on every switch. Ties break
/// toward the lowest port id, so routing is deterministic.
void install_shortest_path_routes(const Fabric& fabric);

}  // namespace steelnet::net
