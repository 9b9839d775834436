#include "net/topology.hpp"

#include <deque>
#include <map>
#include <set>
#include <stdexcept>

namespace steelnet::net {

MacAddress host_mac(std::uint32_t i) {
  // 02:sn:00:xx:xx:xx -- locally administered, unicast.
  return MacAddress{0x02'53'00'000000ULL + i};
}

HostNode& Fabric::host(std::size_t i) const {
  return dynamic_cast<HostNode&>(net->node(hosts.at(i)));
}

Fabric build_star(Network& net, std::size_t n_hosts, TopologyOptions opt) {
  Fabric f;
  f.net = &net;
  auto cfg = opt.switch_cfg;
  cfg.mac_learning = false;  // static routing installed explicitly
  const NodeId sw =
      net.add_node<SwitchNode>(opt.name_prefix + "-sw0", cfg).id();
  f.switches.push_back(sw);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const auto idx = static_cast<std::uint32_t>(i);
    const NodeId h = net.add_node<HostNode>(
                            opt.name_prefix + "-h" + std::to_string(idx),
                            host_mac(idx))
                         .id();
    net.connect(h, HostNode::kNicPort, sw, static_cast<PortId>(i),
                opt.host_link);
    f.hosts.push_back(h);
  }
  return f;
}

namespace {

struct SwitchGraph {
  // adjacency: switch id -> (port, neighbor switch id)
  std::map<NodeId, std::vector<std::pair<PortId, NodeId>>> adj;
  // host attachment: host id -> (switch id, switch port)
  std::map<NodeId, std::pair<NodeId, PortId>> host_at;
};

SwitchGraph analyze(const Fabric& f) {
  SwitchGraph g;
  const std::set<NodeId> sw_set(f.switches.begin(), f.switches.end());
  for (NodeId s : f.switches) {
    for (const auto& [port, peer] : f.net->ports_of(s)) {
      if (sw_set.contains(peer)) {
        g.adj[s].emplace_back(port, peer);
      }
    }
  }
  for (NodeId h : f.hosts) {
    const auto p = f.net->peer(h, HostNode::kNicPort);
    if (!p) throw std::logic_error("host not connected");
    g.host_at[h] = *p;
  }
  return g;
}

}  // namespace

void install_shortest_path_routes(const Fabric& fabric) {
  const SwitchGraph g = analyze(fabric);

  for (NodeId h : fabric.hosts) {
    const auto [root_sw, root_port] = g.host_at.at(h);
    const MacAddress mac =
        dynamic_cast<HostNode&>(fabric.net->node(h)).mac();

    // BFS outward from the host's switch; dist in switch hops.
    std::map<NodeId, int> dist;
    dist[root_sw] = 0;
    std::deque<NodeId> bfs{root_sw};
    while (!bfs.empty()) {
      const NodeId u = bfs.front();
      bfs.pop_front();
      const auto it = g.adj.find(u);
      if (it == g.adj.end()) continue;
      for (const auto& [port, v] : it->second) {
        (void)port;
        if (!dist.contains(v)) {
          dist[v] = dist[u] + 1;
          bfs.push_back(v);
        }
      }
    }

    // Each switch forwards toward a strictly-closer neighbor (lowest port
    // wins for determinism); the root switch forwards to the host port.
    for (NodeId s : fabric.switches) {
      auto& sw = dynamic_cast<SwitchNode&>(fabric.net->node(s));
      if (s == root_sw) {
        sw.add_fdb_entry(mac, root_port);
        continue;
      }
      const auto dit = dist.find(s);
      if (dit == dist.end()) continue;  // disconnected
      const auto ait = g.adj.find(s);
      if (ait == g.adj.end()) continue;
      // All equal-cost next hops, then a deterministic per-destination
      // pick (hash ECMP): spreads distinct hosts across parallel paths
      // (leaf-spine) while keeping each flow on one stable path.
      std::vector<PortId> candidates;
      for (const auto& [port, v] : ait->second) {
        const auto dv = dist.find(v);
        if (dv != dist.end() && dv->second == dit->second - 1) {
          candidates.push_back(port);
        }
      }
      if (!candidates.empty()) {
        sw.add_fdb_entry(mac,
                         candidates[mac.bits() % candidates.size()]);
      }
    }
  }
}

}  // namespace steelnet::net
