// The lossy-radio factory floor: the InstaPLC switchover story and the
// PR 3 fault matrix replayed with the device link behind a
// LossyRadioBackend -- an SNR ladder (healthy wire-equivalent radio down
// to below the association floor) crossed with the canonical fault
// scenarios, plus two roaming-storm cells. The headline is how far the
// wired watchdog bound (switchover_cycles + 1) x io_cycle degrades as
// link quality drops, and the acceptance gate is that the degradation
// curve is monotone down the ladder at the default seed.
//
// Modes:
//   --shards <n>      run a single shard count instead of {1, 8}
//   --csv             the per-cell CSV artifact of one run (the exact
//                     byte stream the CI diff gate compares across shard
//                     counts) instead of the rendered table
//   --sweep <k>       k seeded floors through the sweep pool; one
//                     fingerprint row per seed, byte-identical at any
//                     --jobs/--shards combination
//   --metrics <file>  Prometheus dump of the (first) run
//   --trace <file>    Chrome-trace JSON of the (first) run
//   --bench-json <f>  the SNR-ladder degradation curve (worst output gap
//                     vs watchdog bound per rung, per scenario family) as
//                     a JSON benchmark artifact
//   --profile-out <f> write the (first) run's measured cell-rate profile
//   --profile-in <f>  feed a calibration profile back: cells are placed
//                     by measured rate (the SNR ladder is naturally
//                     skewed: dead rungs run far fewer events than
//                     healthy ones)
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "core/sweep_runner.hpp"
#include "net/radio_floor.hpp"

namespace {

using steelnet::net::RadioCellReport;
using steelnet::net::RadioFloorOptions;
using steelnet::net::RadioFloorResult;
using steelnet::bench::hex16;

constexpr const char* kProg = "tab_radio";

/// Measured weights of `--profile-in`; empty means prefix placement.
std::vector<std::uint64_t> g_weights;

RadioFloorOptions floor_options(std::uint64_t seed, std::size_t shards) {
  RadioFloorOptions opt;
  opt.seed = seed;
  opt.shards = shards;
  opt.measured_weights = g_weights;
  return opt;
}

const char* placement() { return g_weights.empty() ? "prefix" : "measured"; }

}  // namespace

int main(int argc, char** argv) {
  using namespace steelnet;

  const auto args = bench::BenchArgs::parse(argc, argv, /*default_seed=*/1);
  if (args.profile_in_path.has_value()) {
    g_weights = bench::read_profile(kProg, *args.profile_in_path).weights();
  }

  // --- SNR-ladder degradation curve -> BENCH_radio.json ---------------------
  if (args.bench_json_path.has_value()) {
    const RadioFloorResult r =
        net::run_radio_floor(floor_options(args.seed, args.shards == 0
                                                          ? 8
                                                          : args.shards));
    const bool monotone = net::degradation_monotone(r);
    if (args.profile_out_path.has_value()) {
      bench::write_profile(kProg, *args.profile_out_path, r.profile);
    }
    std::ofstream out{*args.bench_json_path};
    out << "{\n  \"bench\": \"radio_snr_degradation\",\n"
        << "  \"context\": {\"seed\": " << args.seed
        << ", \"horizon_ns\": " << r.horizon_ns
        << ", \"watchdog_bound_ns\": " << r.watchdog_bound_ns
        << ", \"cells\": " << r.cells.size() << ", \"partitioner\": \""
        << placement()
        << "\", \"imbalance_permille\": " << r.imbalance_permille
        << "},\n  \"points\": [\n";
    bool first = true;
    for (const RadioCellReport& c : r.cells) {
      char line[320];
      std::snprintf(line, sizeof(line),
                    "%s    {\"cell\": \"%s\", \"scenario\": \"%s\", "
                    "\"snr_offset_millidb\": %" PRId64
                    ", \"max_output_gap_ns\": %" PRId64
                    ", \"gap_vs_bound_permille\": %" PRId64
                    ", \"drop_permille\": %" PRIu64 ", \"roams\": %" PRIu64
                    "}",
                    first ? "" : ",\n", c.name.c_str(), c.scenario.c_str(),
                    c.snr_offset_millidb, c.max_output_gap_ns,
                    c.max_output_gap_ns * 1000 / r.watchdog_bound_ns,
                    c.drop_permille(), c.roam_events);
      out << line;
      first = false;
    }
    out << "\n  ],\n  \"monotone_degradation\": "
        << (monotone ? "true" : "false")
        << ",\n  \"artifact_fp\": \"" << hex16(r.fingerprint()) << "\"\n}\n";
    std::cout << "wrote " << *args.bench_json_path << "\n";
    if (!monotone) {
      std::cerr << "tab_radio: degradation curve is NOT monotone down the "
                   "SNR ladder\n";
      return 1;
    }
    return 0;
  }

  // --- seed sweep (each task itself sharded) --------------------------------
  if (args.sweep > 0) {
    const std::size_t shards = args.shards == 0 ? 2 : args.shards;
    const auto slots = core::SweepRunner{args.jobs, shards}.run(
        args.sweep, [&](std::size_t i) {
          const RadioFloorResult r =
              net::run_radio_floor(floor_options(args.seed + i, shards));
          std::uint64_t drops = 0;
          std::uint64_t roams = 0;
          std::int64_t worst_gap = 0;
          for (const RadioCellReport& c : r.cells) {
            drops += c.radio_dropped_snr + c.radio_dropped_no_assoc +
                     c.radio_dropped_handoff;
            roams += c.roam_events;
            worst_gap = std::max(worst_gap, c.max_output_gap_ns);
          }
          struct Row {
            std::uint64_t fp, drops, roams;
            std::int64_t worst_gap;
          };
          return Row{r.fingerprint(), drops, roams, worst_gap};
        });
    core::CsvWriter csv(
        {"seed", "fingerprint", "radio_drops", "roams", "worst_gap_ns"});
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].ok()) {
        std::cerr << "tab_radio: sweep seed " << args.seed + i
                  << " failed: " << slots[i].error << "\n";
        return 1;
      }
      const auto& row = *slots[i].value;
      csv.add_row({std::to_string(args.seed + i), hex16(row.fp),
                   std::to_string(row.drops), std::to_string(row.roams),
                   std::to_string(row.worst_gap)});
    }
    csv.print(std::cout);
    return 0;
  }

  // --- table / CSV mode -----------------------------------------------------
  const std::vector<std::size_t> shard_counts =
      args.shards != 0 ? std::vector<std::size_t>{args.shards}
                       : std::vector<std::size_t>{1, 8};
  std::vector<RadioFloorResult> results;
  for (const std::size_t sh : shard_counts) {
    results.push_back(net::run_radio_floor(floor_options(args.seed, sh)));
  }

  if (args.metrics_path.has_value()) {
    std::ofstream{*args.metrics_path} << results.front().to_prometheus();
  }
  if (args.trace_path.has_value()) {
    std::ofstream{*args.trace_path} << results.front().to_chrome_trace();
  }
  if (args.profile_out_path.has_value()) {
    bench::write_profile(kProg, *args.profile_out_path,
                         results.front().profile);
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    // Placement diagnostics go to stderr so the CSV byte stream on
    // stdout stays the CI-compared artifact.
    std::cerr << "tab_radio: shards=" << shard_counts[i]
              << " partitioner=" << placement()
              << " imbalance_permille=" << results[i].imbalance_permille
              << "\n";
  }

  if (args.csv) {
    // The CI diff-gate artifact: the raw per-cell CSV of the FIRST run.
    std::cout << results.front().to_csv();
    return 0;
  }

  const RadioFloorResult& r = results.front();
  core::TextTable table({"cell", "scenario", "snr_off_db", "gap_ns",
                         "gap/bound", "drop_pm", "roams", "wdt"});
  for (const RadioCellReport& c : r.cells) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.1fx",
                  static_cast<double>(c.max_output_gap_ns) /
                      static_cast<double>(r.watchdog_bound_ns));
    table.add_row({c.name, c.scenario,
                   std::to_string(c.snr_offset_millidb / 1000),
                   std::to_string(c.max_output_gap_ns), ratio,
                   std::to_string(c.drop_permille()),
                   std::to_string(c.roam_events),
                   std::to_string(c.watchdog_trips)});
  }
  table.print(std::cout);

  const bool monotone = net::degradation_monotone(r);
  std::cout << "watchdog bound: " << r.watchdog_bound_ns
            << " ns; degradation down the SNR ladder: "
            << (monotone ? "monotone" : "NOT MONOTONE") << "\n";
  if (!monotone) return 1;

  if (results.size() > 1) {
    const bool identical =
        results.front().fingerprint() == results.back().fingerprint() &&
        results.front().cells == results.back().cells;
    std::cout << "artifacts shards=" << shard_counts.front()
              << " vs shards=" << shard_counts.back() << ": "
              << (identical ? "byte-identical" : "DIVERGED") << "\n";
    if (!identical) return 1;
  }
  return 0;
}
