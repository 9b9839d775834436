// Ablation (§3 methodology): why Traffic Reflection uses one TAP clock.
//
// The same reflection delays are measured (a) by the tap's single clock
// at 8 ns resolution, and (b) as a naive two-endpoint setup with PTP-
// disciplined clocks would, across increasing path asymmetry. The tap
// measurement is exact; the PTP one inherits servo noise plus the
// unobservable asymmetry bias.
#include <iostream>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "tap/reflection.hpp"

int main(int argc, char** argv) {
  using namespace steelnet;
  using namespace steelnet::sim::literals;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv, {kSeed}, /*default_seed=*/7);

  std::cout << "=== Ablation: single-clock TAP vs two PTP clocks ===\n\n";

  core::TextTable table({"path asymmetry", "median |error|", "p99 |error|",
                         "max |error|"});
  for (const auto asym : {0_ns, 200_ns, 500_ns, 1000_ns}) {
    tap::ReflectionConfig cfg;
    cfg.packets = 5000;
    cfg.with_ptp_comparison = true;
    cfg.ptp.servo_noise = 30_ns;
    cfg.ptp.drift_ppb = 20;
    cfg.ptp.path_asymmetry = asym;
    cfg.seed = args.seed;
    const auto r = tap::run_traffic_reflection(cfg);

    sim::SampleSet err_ns;
    for (std::size_t i = 0; i < r.delay_us.raw().size(); ++i) {
      err_ns.add(std::abs(r.ptp_delay_us.raw()[i] - r.delay_us.raw()[i]) *
                 1e3);
    }
    table.add_row({asym.to_string(),
                   core::TextTable::num(err_ns.median(), 1) + " ns",
                   core::TextTable::num(err_ns.percentile(99), 1) + " ns",
                   core::TextTable::num(err_ns.max(), 1) + " ns"});
  }
  table.print(std::cout);

  std::cout << "\ntap timestamp quantization: 8 ns (bounded, unbiased); "
               "PTP error grows with asymmetry and is invisible to the "
               "protocol (§3, [63]).\n";
  return 0;
}
