#include "net/topology.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace steelnet::net {
namespace {

using namespace steelnet::sim::literals;

struct PingResult {
  int delivered = 0;
  sim::SimTime last_rx;
};

// mlnet builds its ring and leaf-spine fabrics itself and routes them with
// install_shortest_path_routes; these builders give the routing tests the
// same shapes: trunk ports first, hosts after them.
NodeId add_switch(Fabric& f) {
  SwitchConfig cfg;
  cfg.mac_learning = false;
  const NodeId id =
      f.net->add_node<SwitchNode>("sw" + std::to_string(f.switches.size()),
                                  cfg)
          .id();
  f.switches.push_back(id);
  return id;
}

void add_host(Fabric& f, NodeId sw, PortId port) {
  const auto idx = static_cast<std::uint32_t>(f.hosts.size());
  // Appended: GCC 12 at -O3 warns -Wrestrict inside libstdc++ on
  // `"h" + std::to_string(idx)`.
  std::string name = "h";
  name += std::to_string(idx);
  const NodeId h = f.net->add_node<HostNode>(name, host_mac(idx)).id();
  f.net->connect(h, HostNode::kNicPort, sw, port);
  f.hosts.push_back(h);
}

/// A ring of `n` switches, one host on each (port 2).
Fabric ring(Network& net, std::size_t n) {
  Fabric f{&net};
  for (std::size_t i = 0; i < n; ++i) add_switch(f);
  for (std::size_t i = 0; i < n; ++i) {
    net.connect(f.switches[i], 1, f.switches[(i + 1) % n], 0);
  }
  for (std::size_t i = 0; i < n; ++i) add_host(f, f.switches[i], 2);
  return f;
}

/// Leaf port s connects to spine s; hosts follow the spine ports.
Fabric leaf_spine(Network& net, std::size_t spines, std::size_t leaves,
                  std::size_t hosts_per_leaf) {
  Fabric f{&net};
  for (std::size_t i = 0; i < spines + leaves; ++i) add_switch(f);
  for (std::size_t l = 0; l < leaves; ++l) {
    for (std::size_t s = 0; s < spines; ++s) {
      net.connect(f.switches[spines + l], static_cast<PortId>(s),
                  f.switches[s], static_cast<PortId>(l));
    }
    for (std::size_t h = 0; h < hosts_per_leaf; ++h) {
      add_host(f, f.switches[spines + l], static_cast<PortId>(spines + h));
    }
  }
  return f;
}

/// Switches the installed route from host `src` to host `dst` traverses,
/// or -1 if it never reaches `dst`.
int route_hops(const Fabric& f, std::size_t src, std::size_t dst) {
  if (src == dst) return 0;
  const MacAddress mac = f.host(dst).mac();
  NodeId cur = f.net->peer(f.hosts.at(src), HostNode::kNicPort)->first;
  for (int hops = 1; hops <= static_cast<int>(f.switches.size()); ++hops) {
    const auto* sw = dynamic_cast<const SwitchNode*>(&f.net->node(cur));
    if (sw == nullptr) return -1;
    const auto out = sw->lookup(mac);
    if (!out) return -1;
    const auto peer = f.net->peer(cur, *out);
    if (!peer) return -1;
    if (peer->first == f.hosts.at(dst)) return hops;
    cur = peer->first;
  }
  return -1;  // a forwarding loop
}

PingResult ping(Fabric& f, std::size_t src, std::size_t dst) {
  PingResult r;
  f.host(dst).set_receiver([&](Frame, sim::SimTime at) {
    ++r.delivered;
    r.last_rx = at;
  });
  Frame frame;
  frame.dst = f.host(dst).mac();
  frame.payload.resize(46);
  f.host(src).send(std::move(frame));
  f.net->sim().run();
  return r;
}

TEST(Topology, StarAllPairsReachable) {
  sim::Simulator sim;
  Network net{sim};
  auto f = build_star(net, 4);
  install_shortest_path_routes(f);
  for (std::size_t s = 0; s < 4; ++s) {
    for (std::size_t d = 0; d < 4; ++d) {
      if (s == d) continue;
      EXPECT_EQ(ping(f, s, d).delivered, 1) << s << "->" << d;
    }
  }
}

TEST(Topology, RingUsesShortSide) {
  sim::Simulator sim;
  Network net{sim};
  auto f = ring(net, 6);
  install_shortest_path_routes(f);
  EXPECT_EQ(ping(f, 0, 1).delivered, 1);
  EXPECT_EQ(route_hops(f, 0, 1), 2);
  // Host 0 to host 5: one hop around the back, not five forward.
  EXPECT_EQ(route_hops(f, 0, 5), 2);
  // Opposite side of a 6-ring: 4 switches either way... 0->3 = 3 hops + 1.
  EXPECT_EQ(route_hops(f, 0, 3), 4);
}

TEST(Topology, LeafSpineTwoHopsAcrossLeaves) {
  sim::Simulator sim;
  Network net{sim};
  auto f = leaf_spine(net, 2, 3, 2);
  install_shortest_path_routes(f);
  // Same leaf: 1 switch. Cross leaf: leaf-spine-leaf = 3 switches.
  EXPECT_EQ(route_hops(f, 0, 1), 1);
  EXPECT_EQ(route_hops(f, 0, 2), 3);
  EXPECT_EQ(ping(f, 0, 5).delivered, 1);
}

TEST(Topology, AllPairsOnLeafSpine) {
  sim::Simulator sim;
  Network net{sim};
  auto f = leaf_spine(net, 2, 2, 2);
  install_shortest_path_routes(f);
  for (std::size_t s = 0; s < f.host_count(); ++s) {
    for (std::size_t d = 0; d < f.host_count(); ++d) {
      if (s == d) continue;
      EXPECT_GT(route_hops(f, s, d), 0) << s << "->" << d;
    }
  }
}

TEST(Topology, HostMacsAreUniqueAndLocal) {
  EXPECT_NE(host_mac(0), host_mac(1));
  EXPECT_FALSE(host_mac(7).is_multicast());
  EXPECT_EQ(host_mac(3).bits() & 0x0200'0000'0000ULL, 0x0200'0000'0000ULL);
}

TEST(Topology, RouteHopsUnreachableIsMinusOne) {
  sim::Simulator sim;
  Network net{sim};
  auto f = build_star(net, 2);
  // No routes installed: lookup fails.
  EXPECT_EQ(route_hops(f, 0, 1), -1);
}

}  // namespace
}  // namespace steelnet::net
