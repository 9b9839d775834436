#include "mlnet/topologies.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace steelnet::mlnet {

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kRing: return "Ring";
    case TopologyKind::kLeafSpine: return "Leaf Spine";
    case TopologyKind::kMlAware: return "ML-aware";
  }
  return "?";
}

std::vector<TopologyKind> all_topologies() {
  return {TopologyKind::kRing, TopologyKind::kLeafSpine,
          TopologyKind::kMlAware};
}

namespace {

constexpr std::uint64_t kAccessBps = 1'000'000'000;   ///< client links
constexpr std::uint64_t kTrunkBps = 1'000'000'000;    ///< switch-switch links
constexpr std::uint64_t kServerBps = 10'000'000'000;  ///< central server NICs
constexpr std::uint64_t kEdgeBps = 1'000'000'000;     ///< ML-aware edge servers
constexpr std::size_t kRingSwitches = 16;
constexpr std::size_t kSpines = 4;
constexpr std::size_t kLeaves = 8;
/// Planner headroom: the share of an edge link or server it may fill.
constexpr double kTargetUtilization = 0.6;

}  // namespace

MlAwarePlan plan_ml_aware(MlApp app, std::size_t n_clients,
                          double target_accuracy) {
  if (n_clients == 0) throw std::invalid_argument("plan_ml_aware: 0 clients");
  MlAwarePlan plan;
  plan.per_client_bps = client_offered_bps(app, target_accuracy);
  const double budget = double(kEdgeBps) * kTargetUtilization;
  plan.clients_per_cell = std::max<std::size_t>(
      1, static_cast<std::size_t>(budget / plan.per_client_bps));
  // Also respect compute: a cell server must sustain the inference rate.
  const auto params = workload_params(app);
  const double per_client_cpu =
      params.fps * double(params.service_ns) / 1e9;
  const auto cpu_cap = static_cast<std::size_t>(
      double(kServerWorkers) * kTargetUtilization / per_client_cpu);
  plan.clients_per_cell = std::min(plan.clients_per_cell,
                                   std::max<std::size_t>(1, cpu_cap));
  plan.cells = (n_clients + plan.clients_per_cell - 1) /
               plan.clients_per_cell;
  plan.cell_load_bps = plan.per_client_bps * double(plan.clients_per_cell);
  return plan;
}

namespace {

net::NodeId add_host(net::Network& net, MlFabric& mf, const std::string& name,
                     net::NodeId sw, net::PortId port,
                     std::uint64_t bps) {
  const auto idx = static_cast<std::uint32_t>(mf.fabric.hosts.size());
  auto& h = net.add_node<net::HostNode>(name, net::host_mac(idx));
  net.connect(h.id(), net::HostNode::kNicPort, sw, port,
              net::LinkParams{bps, sim::nanoseconds(500)});
  mf.fabric.hosts.push_back(h.id());
  return h.id();
}

net::NodeId add_switch(net::Network& net, MlFabric& mf,
                       const std::string& name) {
  net::SwitchConfig cfg;
  cfg.mac_learning = false;
  auto& sw = net.add_node<net::SwitchNode>(name, cfg);
  mf.fabric.switches.push_back(sw.id());
  return sw.id();
}

}  // namespace

MlFabric build_ml_topology(net::Network& network, TopologyKind kind,
                           MlApp app, std::size_t n_clients,
                           double target_accuracy) {
  if (n_clients == 0) {
    throw std::invalid_argument("build_ml_topology: 0 clients");
  }
  MlFabric mf;
  mf.fabric.net = &network;
  const net::LinkParams trunk{kTrunkBps, sim::nanoseconds(500)};

  switch (kind) {
    case TopologyKind::kRing: {
      // n switches in a ring; clients spread around; one server rack
      // (2 servers for HA realism) on switch 0.
      const std::size_t n_sw =
          std::min<std::size_t>(kRingSwitches,
                                std::max<std::size_t>(3, n_clients));
      std::vector<net::NodeId> sws;
      for (std::size_t i = 0; i < n_sw; ++i) {
        sws.push_back(add_switch(network, mf, "ring-sw" + std::to_string(i)));
      }
      for (std::size_t i = 0; i < n_sw; ++i) {
        network.connect(sws[i], 1, sws[(i + 1) % n_sw], 0, trunk);
      }
      // Server on switch 0, port 2.
      mf.servers.push_back(add_host(network, mf, "server-0", sws[0], 2,
                                    kServerBps));
      // Clients on ports 3.. of each switch, round-robin.
      std::vector<net::PortId> next_port(n_sw, 3);
      for (std::size_t c = 0; c < n_clients; ++c) {
        const std::size_t s = c % n_sw;
        mf.clients.push_back(add_host(network, mf,
                                      "client-" + std::to_string(c), sws[s],
                                      next_port[s]++, kAccessBps));
        mf.client_server.push_back(0);
      }
      break;
    }

    case TopologyKind::kLeafSpine: {
      std::vector<net::NodeId> spines, leaves;
      for (std::size_t s = 0; s < kSpines; ++s) {
        spines.push_back(add_switch(network, mf, "spine" + std::to_string(s)));
      }
      for (std::size_t l = 0; l < kLeaves; ++l) {
        leaves.push_back(add_switch(network, mf, "leaf" + std::to_string(l)));
      }
      for (std::size_t l = 0; l < kLeaves; ++l) {
        for (std::size_t s = 0; s < kSpines; ++s) {
          network.connect(leaves[l], static_cast<net::PortId>(s), spines[s],
                          static_cast<net::PortId>(l), trunk);
        }
      }
      // Servers on leaf 0 (the "server rack" leaf): two for capacity.
      const auto first_port = static_cast<net::PortId>(kSpines);
      mf.servers.push_back(add_host(network, mf, "server-0", leaves[0],
                                    first_port, kServerBps));
      mf.servers.push_back(add_host(network, mf, "server-1", leaves[0],
                                    static_cast<net::PortId>(first_port + 1),
                                    kServerBps));
      // Clients on the remaining leaves.
      std::vector<net::PortId> next_port(kLeaves,
                                         static_cast<net::PortId>(
                                             first_port + 2));
      for (std::size_t c = 0; c < n_clients; ++c) {
        const std::size_t l = 1 + (c % (kLeaves - 1));
        mf.clients.push_back(add_host(network, mf,
                                      "client-" + std::to_string(c),
                                      leaves[l], next_port[l]++, kAccessBps));
        mf.client_server.push_back(c % mf.servers.size());
      }
      break;
    }

    case TopologyKind::kMlAware: {
      // Traffic-aware: cells sized by the planner, each with its own
      // edge server one hop from its clients; cells joined by an
      // aggregation switch (inter-cell traffic is negligible by design).
      const MlAwarePlan plan = plan_ml_aware(app, n_clients, target_accuracy);
      const auto agg = add_switch(network, mf, "agg");
      std::size_t placed = 0;
      for (std::size_t cell = 0; cell < plan.cells; ++cell) {
        const auto sw = add_switch(network, mf,
                                   "cell" + std::to_string(cell));
        network.connect(sw, 0, agg, static_cast<net::PortId>(cell), trunk);
        const std::size_t server_idx = mf.servers.size();
        mf.servers.push_back(add_host(network, mf,
                                      "edge-" + std::to_string(cell), sw, 1,
                                      kEdgeBps));
        net::PortId port = 2;
        for (std::size_t k = 0;
             k < plan.clients_per_cell && placed < n_clients;
             ++k, ++placed) {
          mf.clients.push_back(add_host(network, mf,
                                        "client-" + std::to_string(placed),
                                        sw, port++, kAccessBps));
          mf.client_server.push_back(server_idx);
        }
      }
      break;
    }
  }

  mf.switches = mf.fabric.switches.size();
  mf.server_count = mf.servers.size();
  net::install_shortest_path_routes(mf.fabric);
  return mf;
}

}  // namespace steelnet::mlnet
