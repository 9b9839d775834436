// Golden determinism tests: identical seeds must produce bit-identical
// results forever. If a change to the library intentionally alters
// behaviour, update the pinned fingerprints below (and say so in the
// change description) -- an *unintended* fingerprint change is a
// regression in the determinism guarantee.
#include <gtest/gtest.h>

#include <cstring>

#include "core/traffic_mix.hpp"
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

}  // namespace
}  // namespace steelnet
