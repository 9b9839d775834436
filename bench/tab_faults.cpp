// The fault matrix on the InstaPLC testbed: run the canonical fault
// scenarios (silent primary, loss burst, link flap, primary crash, plus
// the flap-shorter-than-watchdog control) through the seed-sweep harness
// and report, per scenario:
//   * whether/when the SDN app switched over and the measured switchover
//     latency against the watchdog bound (cycles+1) x cycle-time,
//   * per-cause drop counters -- which must tile the injected faults
//     exactly (conservation residual 0),
//   * the post-kill delivery count (must be 0),
//   * the run fingerprint, computed twice to prove byte-identical replay.
//
//   --sweep <n>       additionally run n seeded random fault scenarios
//                     (the CI smoke sweep) and report the same invariants
//   --jobs <n>        fan the independent runs out over n worker threads
//                     (default: hardware concurrency); every artifact is
//                     byte-identical to the --jobs 1 sequential loop
//   --csv             one CSV row per run: every hashed outcome field
//   --trace <file>    Chrome-trace JSON of the silent-primary run
//   --metrics <file>  Prometheus dump of the silent-primary run
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "core/sweep_runner.hpp"
#include "faults/scenario_runner.hpp"

namespace {

using steelnet::faults::ScenarioOutcome;

struct Row {
  ScenarioOutcome out;
  bool deterministic = false;
};

std::string us(steelnet::sim::SimTime t) {
  return std::to_string(t.nanos() / 1000) + "us";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace steelnet;
  using namespace steelnet::sim::literals;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv, {kSeed, kCsv, kTrace, kMetrics, kSweep, kJobs},
      /*default_seed=*/1);

  faults::RunnerOptions opts;
  opts.keep_exports = args.trace_path.has_value() ||
                      args.metrics_path.has_value();
  const faults::ScenarioRunner runner{opts};

  std::vector<faults::FaultScenario> scenarios =
      faults::canonical_scenarios(args.seed);
  scenarios.push_back(faults::short_flap_scenario(args.seed));
  for (std::uint64_t i = 0; i < args.sweep; ++i) {
    scenarios.push_back(faults::random_scenario(args.seed + i));
  }

  // Every (scenario, replay) pair is an independent single-threaded
  // simulation; fan them out and reduce in scenario order, so the rows --
  // and with them every CSV/trace/metrics artifact -- are byte-identical
  // at any --jobs value.
  const auto slots =
      core::SweepRunner{args.jobs}.run(scenarios.size(), [&](std::size_t i) {
        Row row;
        row.out = runner.run(scenarios[i]);
        // Replay with the same seed: the whole outcome -- obs exports
        // included -- must be byte-identical.
        row.deterministic =
            runner.run(scenarios[i]).fingerprint() == row.out.fingerprint();
        return row;
      });

  std::vector<Row> rows;
  rows.reserve(scenarios.size());
  std::string trace_json;
  std::string metrics_prom;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].ok()) {
      std::cerr << "tab_faults: scenario '" << scenarios[i].name
                << "' (seed " << scenarios[i].seed
                << ") failed: " << slots[i].error << "\n";
      return 1;
    }
    Row row = *slots[i].value;
    if (opts.keep_exports && trace_json.empty()) {
      trace_json = row.out.trace_json;
      metrics_prom = row.out.metrics_prom;
    }
    rows.push_back(std::move(row));
  }

  const sim::SimTime bound = faults::switchover_bound(opts);

  bool conserved = true;
  bool no_leaks = true;
  bool replayed = true;
  bool bounded = true;
  int switchovers = 0;
  for (const Row& r : rows) {
    conserved &= r.out.residual == 0;
    no_leaks &= r.out.post_kill_deliveries == 0;
    replayed &= r.deterministic;
    if (r.out.switched_over) {
      ++switchovers;
      bounded &= r.out.switchover_latency <= bound;
    }
  }
  bounded &= switchovers >= 3;

  if (args.trace_path) {
    bench::write_file("tab_faults", *args.trace_path, "Chrome-trace JSON",
                      trace_json);
  }
  if (args.metrics_path) {
    bench::write_file("tab_faults", *args.metrics_path, "Prometheus metrics",
                      metrics_prom);
  }

  if (args.csv) {
    std::cout << "scenario";
    ScenarioOutcome{}.fields(bench::CsvFields{std::cout, /*header=*/true});
    std::cout << ",bound_ns,deterministic,fingerprint\n";
    for (const Row& r : rows) {
      std::cout << r.out.scenario;
      r.out.fields(bench::CsvFields{std::cout});
      std::cout << ',' << bound.nanos() << ',' << (r.deterministic ? 1 : 0)
                << ',' << r.out.fingerprint() << '\n';
    }
  } else {
    std::cout << "=== fault matrix: switchover latency and drop accounting "
                 "(seed " << args.seed << ") ===\n\n";
    core::TextTable table({"scenario", "switchover", "latency", "bound",
                           "max gap", "trips", "wire drops", "residual",
                           "post-kill", "replay"});
    for (const Row& r : rows) {
      const ScenarioOutcome& o = r.out;
      table.add_row(
          {o.scenario,
           o.switched_over ? "at " + us(o.switchover_at) : "none",
           o.switched_over ? us(o.switchover_latency) : "-", us(bound),
           us(o.max_output_gap), std::to_string(o.device_watchdog_trips),
           std::to_string(o.faults.wire_drops()), std::to_string(o.residual),
           std::to_string(o.post_kill_deliveries),
           r.deterministic ? "identical" : "DIVERGED"});
    }
    table.print(std::cout);

    std::cout << "\ndrop causes per scenario:\n";
    core::TextTable drops({"scenario", "link_down", "loss", "sender_down",
                           "receiver_down", "suppressed", "corrupt", "dup",
                           "reorder", "jitter"});
    for (const Row& r : rows) {
      const auto& f = r.out.faults;
      drops.add_row({r.out.scenario, std::to_string(f.dropped_link_down),
                     std::to_string(f.dropped_loss),
                     std::to_string(f.dropped_sender_down),
                     std::to_string(f.dropped_receiver_down),
                     std::to_string(f.suppressed_tx + f.suppressed_rx),
                     std::to_string(f.corrupted), std::to_string(f.duplicated),
                     std::to_string(f.reordered), std::to_string(f.jittered)});
    }
    drops.print(std::cout);
  }

  bench::Checks checks{args};
  checks.out() << "\nshape checks:\n";
  checks.check(conserved,
               "per-cause drop counters tile injected faults exactly "
               "(residual 0 everywhere)");
  checks.check(no_leaks, "no frame created after a kill was ever delivered");
  checks.check(bounded, "every switchover landed within the watchdog bound " +
                            us(bound) + " (" + std::to_string(switchovers) +
                            " switchovers)");
  checks.check(replayed,
               "every scenario replays byte-identically from its seed");
  return checks.exit_code();
}
