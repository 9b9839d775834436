// Golden determinism tests: identical seeds must produce bit-identical
// results forever. If a change to the library intentionally alters
// behaviour, update the pinned fingerprints below (and say so in the
// change description) -- an *unintended* fingerprint change is a
// regression in the determinism guarantee.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "core/traffic_mix.hpp"
#include "host/host_path.hpp"
#include "mlnet/inference.hpp"
#include "net/switch_node.hpp"
#include "plc/redundancy.hpp"
#include "profinet/io_device.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"
#include "tap/reflection.hpp"

namespace steelnet {
namespace {

using namespace steelnet::sim::literals;

/// FNV-1a over a double sequence's bit patterns.
std::uint64_t fingerprint(const std::vector<double>& values) {
  std::uint64_t h = sim::kFnv1aOffset;
  for (double v : values) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    sim::fnv1a64_mix(h, bits);
  }
  return h;
}

TEST(Golden, RngStreamPinned) {
  sim::Rng rng{2025};
  std::uint64_t h = sim::kFnv1aOffset;
  for (int i = 0; i < 64; ++i) sim::fnv1a64_mix(h, rng.next_u64());
  EXPECT_EQ(h, 10222540825773612038ULL) << "xoshiro sequence changed";
}

TEST(Golden, ReflectionDelaysPinned) {
  tap::ReflectionConfig cfg;
  cfg.variant = ebpf::ReflectorVariant::kTsRb;
  cfg.packets = 200;
  cfg.seed = 99;
  const auto r = tap::run_traffic_reflection(cfg);
  EXPECT_EQ(fingerprint(r.delay_us.raw()), 13599000041657250848ULL)
      << "traffic-reflection sample stream changed";
}

TEST(Golden, TrafficMixPinned) {
  core::MixSpec spec;
  const auto flows = core::generate_mix(spec);
  std::vector<double> bytes;
  bytes.reserve(flows.size());
  for (const auto& f : flows) bytes.push_back(double(f.total_bytes));
  EXPECT_EQ(fingerprint(bytes), 17498984022749266986ULL)
      << "traffic-mix generation changed";
}

TEST(Golden, MlInferenceLatenciesPinned) {
  // One short Fig. 6 run per topology: the link rates, switch counts and
  // cell plan shape the latencies; the counts pin the infrastructure.
  const std::uint64_t want[] = {15798619790613839876ULL,
                                13093787952070150365ULL,
                                8196863456232880002ULL};
  for (mlnet::TopologyKind k : mlnet::all_topologies()) {
    mlnet::InferenceConfig cfg;
    cfg.topology = k;
    cfg.app = mlnet::MlApp::kDefectDetection;
    cfg.clients = 256;
    cfg.duration = 200_ms;
    cfg.seed = 7;
    const auto r = mlnet::run_inference_experiment(cfg);
    std::uint64_t h = fingerprint(r.latency_ms.raw());
    sim::fnv1a64_mix(h, r.switches);
    sim::fnv1a64_mix(h, r.servers);
    EXPECT_EQ(h, want[std::size_t(k)])
        << r.topology << " inference latencies or infrastructure changed";
  }
}

TEST(Golden, RedundantPairTakeoverPinned) {
  // tab_availability's hardware-pair row: primary fails at 1 s.
  sim::Simulator simulator;
  net::Network network{simulator};
  auto& sw = network.add_node<net::SwitchNode>("sw");
  auto& dev_host = network.add_node<net::HostNode>("dev", net::MacAddress{0xD});
  auto& a_host = network.add_node<net::HostNode>("plc-a", net::MacAddress{0x1});
  auto& b_host = network.add_node<net::HostNode>("plc-b", net::MacAddress{0x2});
  network.connect(dev_host.id(), 0, sw.id(), 0);
  network.connect(a_host.id(), 0, sw.id(), 1);
  network.connect(b_host.id(), 0, sw.id(), 2);
  profinet::IoDevice device(dev_host);
  profinet::ControllerConfig cfg;
  cfg.device_mac = dev_host.mac();
  profinet::CyclicController primary(a_host, cfg);
  profinet::CyclicController secondary(b_host, cfg);
  std::optional<sim::SimTime> last;
  sim::SimTime max_gap;
  device.set_output_handler([&](const std::vector<std::uint8_t>&, bool run) {
    if (!run) return;  // safe-state writes don't count as control
    const sim::SimTime now = simulator.now();
    if (last) max_gap = std::max(max_gap, now - *last);
    last = now;
  });
  plc::RedundantPlcPair pair(primary, secondary, simulator);
  pair.start();
  simulator.schedule_at(1_s, [&] { pair.fail_primary(); });
  simulator.run_until(5_s);
  ASSERT_TRUE(pair.takeover_latency().has_value());
  EXPECT_EQ(pair.takeover_latency()->nanos(), 130'000'000);
  EXPECT_EQ(max_gap.nanos(), 131'993'984);
}

TEST(Golden, HostPathSamplesPinned) {
  // Sizes on both sides of the 256-byte TLP boundary.
  constexpr std::size_t kSizes[] = {64, 300, 1500};
  const auto samples = [&](host::HostPath& path) {
    std::vector<double> out;
    for (int i = 0; i < 300; ++i) {
      const std::size_t bytes = kSizes[i % 3];
      out.push_back(double(path.sample_rx(bytes).nanos()));
      out.push_back(double(path.sample_tx(bytes).nanos()));
    }
    return out;
  };
  EXPECT_EQ(fingerprint(samples(*host::HostProfile::virtualized_rt(5))),
            9025612156989954880ULL)
      << "virtualized_rt sample stream changed";
}

}  // namespace
}  // namespace steelnet
