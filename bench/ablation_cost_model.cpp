// Ablation (DESIGN.md): replace the stochastic eBPF cost model with its
// deterministic counterpart. The Fig. 4 CDF spread collapses to vertical
// lines -- i.e. the published variability is *entirely* produced by the
// modelled execution-environment effects (cache misses, ring-buffer
// contention, IRQs), not by the protocol or network.
#include <iostream>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "tap/reflection.hpp"

int main(int argc, char** argv) {
  using namespace steelnet;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv, {kSeed}, /*default_seed=*/11);

  std::cout << "=== Ablation: stochastic vs deterministic eBPF cost model "
               "(TS-RB, 1 flow, 5000 packets) ===\n\n";

  tap::ReflectionConfig stochastic;
  stochastic.variant = ebpf::ReflectorVariant::kTsRb;
  stochastic.packets = 5000;
  stochastic.seed = args.seed;
  const auto rs = tap::run_traffic_reflection(stochastic);

  tap::ReflectionConfig deterministic = stochastic;
  deterministic.costs =
      ebpf::CostModel::deterministic(tap::fig4_calibrated_costs());
  const auto rd = tap::run_traffic_reflection(deterministic);

  std::cout << core::quantile_table({{"stochastic", &rs.delay_us},
                                     {"deterministic", &rd.delay_us}},
                                    "us")
            << '\n';

  const double spread_s = rs.delay_us.max() - rs.delay_us.min();
  const double spread_d = rd.delay_us.max() - rd.delay_us.min();
  core::TextTable table({"model", "delay spread (us)", "p99 jitter (ns)"});
  table.add_row({"stochastic", core::TextTable::num(spread_s, 3),
                 core::TextTable::num(rs.jitter_ns.percentile(99), 1)});
  table.add_row({"deterministic", core::TextTable::num(spread_d, 3),
                 core::TextTable::num(rd.jitter_ns.percentile(99), 1)});
  table.print(std::cout);

  bench::Checks checks{args};
  checks.out() << "\nshape check:\n";
  checks.check(spread_d < spread_s / 20.0,
               "deterministic costs collapse the CDF spread (>20x)");
  return checks.exit_code();
}
