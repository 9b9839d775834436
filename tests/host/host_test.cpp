#include "host/host_path.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/stats.hpp"

namespace steelnet::host {
namespace {

using namespace steelnet::sim::literals;

double stddev(const sim::SampleSet& s) {
  const double mean = s.mean();
  double sq = 0;
  for (const double x : s.raw()) sq += (x - mean) * (x - mean);
  return std::sqrt(sq / static_cast<double>(s.count() - 1));
}

/// PCIe + `kernel` in series: a host stack without contention or a vhost
/// hop.
std::unique_ptr<LatencySampler> bare_stack(KernelKind kernel,
                                           std::uint64_t seed) {
  auto chain = std::make_unique<ChainSampler>();
  chain->add(std::make_unique<PcieModel>(PcieConfig{}, seed));
  chain->add(std::make_unique<KernelModel>(kernel, seed + 1));
  return chain;
}

TEST(Samplers, FixedIsFixed) {
  FixedSampler s(3_us);
  EXPECT_EQ(s.sample(64), 3_us);
  EXPECT_EQ(s.sample(9000), 3_us);
}

TEST(Samplers, ParetoTailMostlyBase) {
  ParetoTailSampler s(1_us, 0.01, 10_us, 1.5, 11);
  int excursions = 0;
  for (int i = 0; i < 10000; ++i) {
    if (s.sample(64) > 1_us) ++excursions;
  }
  EXPECT_NEAR(excursions, 100, 60);
  EXPECT_THROW(ParetoTailSampler(1_us, 1.5, 10_us, 1.5, 1),
               std::invalid_argument);
}

TEST(Samplers, ChainSums) {
  ChainSampler c;
  c.add(std::make_unique<FixedSampler>(1_us));
  c.add(std::make_unique<FixedSampler>(2_us));
  EXPECT_EQ(c.sample(64), 3_us);
  EXPECT_EQ(c.stages(), 2u);
}

TEST(Samplers, ContentionScalesWithLoad) {
  ContentionScaledSampler s(std::make_unique<FixedSampler>(1_us), 0.1, 0.0,
                            3);
  EXPECT_EQ(s.sample(64), 1_us);  // load 1: unchanged
  s.set_load(11);                 // 1 + 0.1*10 = 2x
  EXPECT_EQ(s.sample(64), 2_us);
  s.set_load(0);  // clamps to 1
  EXPECT_EQ(s.load(), 1u);
  EXPECT_THROW(ContentionScaledSampler(nullptr, 0.1, 0.0, 3),
               std::invalid_argument);
}

TEST(Samplers, ContentionJitterGrowsWithLoad) {
  ContentionScaledSampler s(std::make_unique<FixedSampler>(10_us), 0.0, 0.02,
                            5);
  sim::SampleSet low, high;
  for (int i = 0; i < 5000; ++i) low.add(double(s.sample(64).nanos()));
  s.set_load(25);
  for (int i = 0; i < 5000; ++i) high.add(double(s.sample(64).nanos()));
  EXPECT_LT(stddev(low), 1.0);  // load 1: no jitter at all
  EXPECT_GT(stddev(high), 100.0);
}

TEST(Pcie, SmallPacketOverheadDominates) {
  PcieModel pcie(PcieConfig{}, 1);
  // The paper (§2.1, [77]): PCIe contributes > 90% of NIC latency for
  // small packets common in industrial automation.
  EXPECT_GT(pcie.overhead_fraction(20), 0.9);
  EXPECT_GT(pcie.overhead_fraction(64), 0.9);
  EXPECT_LT(pcie.overhead_fraction(4096), pcie.overhead_fraction(64));
}

TEST(Pcie, NominalGrowsWithTlpCount) {
  PcieConfig cfg;
  cfg.base = 800_ns;
  PcieModel pcie(cfg, 1);
  // 256-byte TLPs, 120 ns for each one beyond the first.
  EXPECT_EQ(pcie.nominal(0), 800_ns);
  EXPECT_EQ(pcie.nominal(256), 800_ns);
  EXPECT_EQ(pcie.nominal(257), 920_ns);
  EXPECT_EQ(pcie.nominal(1024), 800_ns + 360_ns);
}

TEST(Pcie, SampleJittersAroundNominal) {
  PcieModel pcie(PcieConfig{}, 9);
  sim::SampleSet st;
  for (int i = 0; i < 10000; ++i) st.add(double(pcie.sample(64).nanos()));
  EXPECT_NEAR(st.mean(), double(pcie.nominal(64).nanos()), 5.0);
  EXPECT_GT(stddev(st), 10.0);
}

TEST(Kernel, PreemptRtHasTighterTailThanVanilla) {
  KernelModel vanilla(KernelKind::kVanilla, 21);
  KernelModel rt(KernelKind::kPreemptRt, 21);
  sim::SampleSet sv, sr;
  for (int i = 0; i < 50000; ++i) {
    sv.add(double(vanilla.sample(64).nanos()));
    sr.add(double(rt.sample(64).nanos()));
  }
  // §2.1/§3: PREEMPT_RT trades a slightly higher median for much better
  // tail behaviour.
  EXPECT_GT(sr.median(), sv.median());
  EXPECT_LT(sr.percentile(99.99), sv.percentile(99.99));
}

TEST(Kernel, DualKernelBeatsBothTails) {
  KernelModel dual(KernelKind::kDualKernel, 5);
  KernelModel rt(KernelKind::kPreemptRt, 5);
  sim::SampleSet sd, sr;
  for (int i = 0; i < 30000; ++i) {
    sd.add(double(dual.sample(64).nanos()));
    sr.add(double(rt.sample(64).nanos()));
  }
  EXPECT_LT(sd.percentile(99.9), sr.percentile(99.9));
  EXPECT_LT(sd.median(), sr.median());
}

TEST(Kernel, Names) {
  EXPECT_EQ(to_string(KernelKind::kVanilla), "vanilla");
  EXPECT_EQ(to_string(KernelKind::kPreemptRt), "preempt_rt");
  EXPECT_EQ(to_string(KernelKind::kDualKernel), "dual_kernel");
}

TEST(HostPath, IdealIsZero) {
  HostPath p(std::make_unique<FixedSampler>(0_ns),
             std::make_unique<FixedSampler>(0_ns));
  EXPECT_EQ(p.sample_rx(64), 0_ns);
  EXPECT_EQ(p.sample_tx(1500), 0_ns);
}

TEST(HostPath, ProfilesOrderedByQuality) {
  HostPath bare(bare_stack(KernelKind::kDualKernel, 1),
                bare_stack(KernelKind::kDualKernel, 3));
  HostPath rt(bare_stack(KernelKind::kPreemptRt, 1),
              bare_stack(KernelKind::kPreemptRt, 3));
  auto vm = HostProfile::virtualized_rt(1);
  sim::SampleSet sb, sr, sv;
  for (int i = 0; i < 20000; ++i) {
    sb.add(double(bare.sample_rx(64).nanos()));
    sr.add(double(rt.sample_rx(64).nanos()));
    sv.add(double(vm->sample_rx(64).nanos()));
  }
  EXPECT_LT(sb.median(), sr.median());
  EXPECT_LT(sr.median(), sv.median());
  EXPECT_LT(sb.percentile(99.9), sr.percentile(99.9));
}

TEST(HostPath, LoadIncreasesLatency) {
  auto p = HostProfile::virtualized_rt(3);
  sim::SampleSet before, after;
  for (int i = 0; i < 20000; ++i) before.add(double(p->sample_rx(64).nanos()));
  p->set_load(25);
  for (int i = 0; i < 20000; ++i) after.add(double(p->sample_rx(64).nanos()));
  EXPECT_GT(after.mean(), before.mean() * 1.5);
  EXPECT_GT(stddev(after), stddev(before));
}

TEST(HostPath, NullSamplerRejected) {
  EXPECT_THROW(HostPath(nullptr, std::make_unique<FixedSampler>(0_ns)),
               std::invalid_argument);
}

}  // namespace
}  // namespace steelnet::host
