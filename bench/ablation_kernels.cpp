// §2.1's kernel discussion, quantified cyclictest-style: per-packet host
// latency distributions for vanilla Linux, PREEMPT_RT and a dual-kernel
// RTOS, including the metric the paper says existing evaluations omit --
// *consecutive* jitter events (bursts), which is what actually expires a
// PROFINET watchdog.
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "core/sweep_runner.hpp"
#include "host/kernel.hpp"
#include "sim/stats.hpp"

namespace {

/// One kernel's 200k-cycle sampling run -- independent per kernel kind,
/// so the three runs fan out across the sweep pool.
struct KernelRun {
  std::string name;
  steelnet::sim::SampleSet samples;
  std::size_t longest_miss_run = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace steelnet;
  using namespace steelnet::sim::literals;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv, {kSeed, kJobs}, /*default_seed=*/17);

  constexpr int kSamples = 200'000;
  // A sample "misses" when the kernel stage alone eats more than half of
  // a 250 us motion-control budget (§2.1: latencies down to 250 us).
  const double budget_ns = 125'000;

  std::cout << "=== §2.1: kernel-induced latency, " << kSamples
            << " cycles ===\n\n";

  const std::vector<host::KernelKind> kinds{host::KernelKind::kVanilla,
                                            host::KernelKind::kPreemptRt,
                                            host::KernelKind::kDualKernel};
  // Each kernel model owns its RNG (derived from kind + seed): the three
  // sampling runs are independent and reduce in kind order.
  const auto slots = core::SweepRunner{args.jobs}.run(
      kinds.size(), [&](std::size_t i) {
        host::KernelModel model(kinds[i], args.seed);
        KernelRun run;
        run.name = to_string(kinds[i]);
        std::vector<bool> misses;
        misses.reserve(kSamples);
        for (int s = 0; s < kSamples; ++s) {
          const double ns = double(model.sample(64).nanos());
          run.samples.add(ns / 1000.0);  // us
          misses.push_back(ns > budget_ns);
        }
        run.longest_miss_run = sim::longest_true_run(misses);
        return run;
      });

  std::vector<KernelRun> runs;
  for (const auto& slot : slots) {
    if (!slot.ok()) {
      std::cerr << "ablation_kernels: sampling run failed: " << slot.error
                << "\n";
      return 1;
    }
    runs.push_back(*slot.value);
  }
  std::vector<core::QuantileSeries> series;
  for (const KernelRun& r : runs) series.push_back({r.name, &r.samples});
  std::cout << core::quantile_table(series, "us") << '\n';

  core::TextTable table({"kernel", "misses (>125 us)",
                         "longest consecutive-miss run",
                         "survives watchdog factor 3?"});
  for (const KernelRun& r : runs) {
    std::size_t misses = 0;
    for (double v : r.samples.raw()) {
      if (v > budget_ns / 1000.0) ++misses;
    }
    table.add_row({r.name, std::to_string(misses),
                   std::to_string(r.longest_miss_run),
                   r.longest_miss_run < 3 ? "yes" : "NO"});
  }
  table.print(std::cout);

  bench::Checks checks{args};
  checks.out() << "\nshape checks (§2.1 [84]):\n";
  checks.check(runs[1].samples.percentile(99.99) <
                   runs[0].samples.percentile(99.99),
               "PREEMPT_RT beats vanilla at the 99.99th percentile");
  checks.check(runs[2].samples.percentile(99.99) <
                   runs[1].samples.percentile(99.99),
               "the dual-kernel RTOS beats PREEMPT_RT");
  checks.check(runs[1].samples.max() > runs[2].samples.max(),
               "PREEMPT_RT is still not hard real-time (worst case)");
  return checks.exit_code();
}
