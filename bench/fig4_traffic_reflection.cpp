// Reproduces Fig. 4: "Even minor code changes in an eBPF application
// cause noticeable delays (left), while more real-time flows handled by
// XDP and eBPF increase jitter (right)."
//
// Left panel: delay CDFs of the six reflector variants (1 flow). The
// variants cluster: no-ring-buffer (Base/TS/TS-TS/TS-OW) vs ring-buffer
// (TS-RB/TS-D-RB).
// Right panel: jitter CDF of the Base variant at 1 vs 25 concurrent
// real-time flows.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "tap/reflection.hpp"

int main(int argc, char** argv) {
  using namespace steelnet;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv, {kSeed}, /*default_seed=*/42);

  constexpr std::size_t kPackets = 10'000;

  std::cout << "=== Fig. 4 (left): reflection delay per eBPF variant, "
               "1 flow, " << kPackets << " packets ===\n\n";

  std::vector<std::unique_ptr<tap::ReflectionReport>> reports;
  std::vector<core::QuantileSeries> series;
  for (ebpf::ReflectorVariant v : ebpf::all_reflector_variants()) {
    tap::ReflectionConfig cfg;
    cfg.variant = v;
    cfg.packets = kPackets;
    cfg.seed = args.seed;
    reports.push_back(std::make_unique<tap::ReflectionReport>(
        tap::run_traffic_reflection(cfg)));
    series.push_back({reports.back()->variant,
                      &reports.back()->delay_us});
  }
  std::cout << core::quantile_table(series, "us") << '\n';

  std::cout << "delay CDF, no ring buffer (TS-TS):\n"
            << core::ascii_cdf(reports[2]->delay_us, "delay (us)") << '\n';
  std::cout << "delay CDF, ring buffer (TS-RB):\n"
            << core::ascii_cdf(reports[3]->delay_us, "delay (us)") << '\n';

  std::cout << "=== Fig. 4 (right): jitter vs concurrent flows (Base) "
               "===\n\n";
  tap::ReflectionConfig one;
  one.packets = kPackets;
  one.seed = args.seed + 1;
  const auto r1 = tap::run_traffic_reflection(one);
  tap::ReflectionConfig many = one;
  many.flows = 25;
  const auto r25 = tap::run_traffic_reflection(many);

  std::cout << core::quantile_table(
                   {{"1 flow", &r1.jitter_ns}, {"25 flows", &r25.jitter_ns}},
                   "ns")
            << '\n';
  std::cout << "jitter CDF, 1 flow:\n"
            << core::ascii_cdf(r1.jitter_ns, "jitter (ns)") << '\n';
  std::cout << "jitter CDF, 25 flows:\n"
            << core::ascii_cdf(r25.jitter_ns, "jitter (ns)") << '\n';

  bench::Checks checks{args};
  checks.out() << "paper's shape checks:\n";
  checks.check(
      reports[3]->delay_us.median() > reports[2]->delay_us.median() + 2.0,
      "ring-buffer variants form a separate, slower cluster");
  checks.check(r25.jitter_ns.percentile(99) > 2 * r1.jitter_ns.percentile(99),
               "25 flows raise tail jitter by >2x (toward ~1 us)");
  return checks.exit_code();
}
