// The campus at fleet scale on the sharded kernel: hundreds of
// production cells, tens of thousands of PROFINET devices, one
// sim::ShardedSimulator run -- the workload that motivates conservative
// parallel simulation in the first place.
//
// Default mode runs the table campus at shards 1 and 8 and reports, per
// shard count, the cyclic/report/drop totals plus the artifact
// fingerprint -- which must be identical across the two rows (the
// determinism headline the tests and the `contract` gates pin).
//
// Modes. Each takes --seed <n>, --csv and the flags listed under it, and
// any other flag exits 2 (`--help` prints the three sets):
//
// (no selector)       the table above, or with --csv the per-cell CSV
//                     artifact of one run (the exact byte stream the
//                     `contract` ctest gates compare across shard counts);
//                     the checks still set the exit code, on stderr
//   --shards <n>      run a single shard count instead of {1, 8}
//   --metrics <file>  Prometheus dump of the (first) run
//   --trace <file>    Chrome-trace JSON of the (first) run
//   --profile-out <f> write the (first) run's measured cell-rate profile
//   --profile-in <f>  feed a calibration profile back: cells are placed
//                     by measured rate (LPT) instead of prefix-quota
//   --skew            hot-zone variant: the first quarter of the cells
//                     runs 4x cyclic rate + fault storms (the workload
//                     the measured-rate partitioner exists for)
// --sweep <k>         k seeded small campuses through the seed-sweep
//                     harness (each itself sharded via --shards); one
//                     fingerprint row per seed, byte-identical at any
//                     --jobs/--shards combination. The output is CSV
//                     either way, so --csv changes nothing here
//   --shards <n> --jobs <n> --skew
// --bench-json <f>    the BIG campus (240 cells x 48 devices ~ 11.5k
//                     PROFINET endpoints) over a shard ladder {1,2,4,8};
//                     the shards=1 rung doubles as the calibration run
//                     whose measured profile drives a second, profile-
//                     guided pass over shards {2,4,8} -- so each threaded
//                     rung appears twice (prefix vs measured placement),
//                     with per-rung partition map / per-shard loads /
//                     imbalance recorded for post-hoc diagnosis
//   --scale <n>       override the big campus cell count (default 240)
//   --profile-out <f> write the calibration run's profile
//   --skew
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "core/sweep_runner.hpp"
#include "net/campus.hpp"
#include "sim/partitioner.hpp"

namespace {

using steelnet::net::CampusOptions;
using steelnet::net::CampusResult;
using steelnet::bench::hex16;

constexpr const char* kProg = "tab_campus";

CampusOptions table_options(std::uint64_t seed) {
  CampusOptions opt;
  opt.cells = 48;
  opt.devices_per_cell = 8;
  opt.cycle = steelnet::sim::milliseconds(4);
  opt.horizon = steelnet::sim::milliseconds(150);
  opt.seed = seed;
  opt.faults = true;
  return opt;
}

CampusOptions big_options(std::uint64_t seed, std::size_t cells) {
  CampusOptions opt;
  opt.cells = cells == 0 ? 240 : cells;
  opt.devices_per_cell = 48;
  opt.cycle = steelnet::sim::milliseconds(8);
  opt.horizon = steelnet::sim::milliseconds(250);
  opt.backbone_degree = 3;
  opt.seed = seed;
  return opt;
}

struct Totals {
  std::uint64_t cyclic_tx = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t reports_rx = 0;
  std::uint64_t watchdog_trips = 0;
  std::uint64_t drops = 0;
};

Totals totals_of(const CampusResult& r) {
  Totals t;
  for (const auto& c : r.cells) {
    t.cyclic_tx += c.cyclic_tx;
    t.frames_delivered += c.frames_delivered;
    t.reports_rx += c.reports_received;
    t.watchdog_trips += c.watchdog_trips;
    t.drops += c.dropped_loss + c.dropped_link_down + c.dropped_sender_down +
               c.dropped_receiver_down;
  }
  return t;
}

/// JSON array of an integer vector, e.g. "[3,1,0]".
template <typename V>
std::string json_array(const V& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(v[i]);
  }
  out += "]";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace steelnet;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv,
      {kSeed, kCsv, kTrace, kMetrics, kShards, kSkew, kProfileOut,
       kProfileIn},
      /*default_seed=*/1,
      {{kSweep, {kSeed, kCsv, kJobs, kShards, kSkew}},
       {kBenchJson, {kSeed, kCsv, kScale, kSkew, kProfileOut}}});

  // --- big-campus shard ladder -> BENCH_campus.json ------------------------
  //
  // The shards=1 rung doubles as the calibration run: its measured
  // profile drives a second, profile-guided pass over shards {2,4,8}, so
  // every threaded rung appears twice (prefix vs measured placement).
  // All fingerprints must be identical -- placement must never leak into
  // artifacts -- and under --skew the measured pass must beat prefix on
  // the max/mean load ratio (checked; wall clock is recorded but only
  // meaningful on multi-core hosts).
  if (args.mode == kBenchJson) {
    struct Rung {
      std::size_t shards;
      const char* strategy;
      double wall_s;
      double frames_per_s;
      std::uint64_t fp;
      std::uint64_t events;
      std::uint64_t delivered;
      std::uint64_t imbalance_permille;
      std::vector<std::uint32_t> partition;
      std::vector<std::uint64_t> shard_events;
    };
    std::vector<Rung> rungs;
    sim::RateProfile calibration;
    const auto run_rung = [&](std::size_t sh, bool measured) {
      CampusOptions opt = big_options(args.seed, args.scale);
      opt.shards = sh;
      opt.skew = args.skew;
      if (measured) opt.measured_weights = calibration.weights();
      const CampusResult r = net::run_campus(opt);
      const Totals t = totals_of(r);
      rungs.push_back({sh, measured ? "measured" : "prefix",
                       r.stats.wall_seconds,
                       r.stats.wall_seconds > 0.0
                           ? static_cast<double>(t.frames_delivered) /
                                 r.stats.wall_seconds
                           : 0.0,
                       r.fingerprint(), r.stats.events, t.frames_delivered,
                       r.imbalance_permille, r.partition, r.shard_events});
      std::fprintf(stderr,
                   "tab_campus: shards=%zu partitioner=%s wall=%.2fs "
                   "imbalance=%" PRIu64 " fp=%s\n",
                   sh, rungs.back().strategy, r.stats.wall_seconds,
                   r.imbalance_permille, hex16(r.fingerprint()).c_str());
      if (sh == 1 && !measured) calibration = r.profile;
    };
    for (const std::size_t sh : {1, 2, 4, 8}) {
      run_rung(sh, /*measured=*/false);
    }
    for (const std::size_t sh : {2, 4, 8}) run_rung(sh, /*measured=*/true);
    bool identical = true;
    for (const Rung& r : rungs) identical &= r.fp == rungs.front().fp;
    if (args.profile_out_path.has_value()) {
      bench::write_profile(kProg, *args.profile_out_path, calibration);
    }
    const auto rung_at = [&](std::size_t sh, const char* strategy) {
      for (const Rung& r : rungs) {
        if (r.shards == sh && std::string(r.strategy) == strategy) return &r;
      }
      return static_cast<const Rung*>(nullptr);
    };

    const CampusOptions copt = big_options(args.seed, args.scale);
    std::ostringstream out;
    out << "{\n  \"bench\": \"campus_shard_scaling\",\n"
        << "  \"context\": {\"cells\": " << copt.cells
        << ", \"devices\": " << copt.cells * copt.devices_per_cell
        << ", \"horizon_ms\": " << copt.horizon.nanos() / 1'000'000
        << ", \"seed\": " << args.seed
        << ", \"skew\": " << (args.skew ? "true" : "false")
        << ", \"hardware_concurrency\": "
        << std::thread::hardware_concurrency()
        << ", \"steelnet_build_type\": \"" STEELNET_BUILD_TYPE
           "\", \"steelnet_compiler\": \"" STEELNET_COMPILER
           "\"},\n  \"points\": [\n";
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      const Rung& r = rungs[i];
      char line[320];
      std::snprintf(line, sizeof(line),
                    "    {\"shards\": %zu, \"partitioner\": \"%s\", "
                    "\"wall_s\": %.3f, \"frames_per_s\": %.1f, "
                    "\"events\": %" PRIu64 ", \"frames_delivered\": %" PRIu64
                    ", \"imbalance_permille\": %" PRIu64
                    ", \"artifact_fp\": \"%s\",\n",
                    r.shards, r.strategy, r.wall_s, r.frames_per_s, r.events,
                    r.delivered, r.imbalance_permille, hex16(r.fp).c_str());
      out << line << "     \"shard_events\": " << json_array(r.shard_events)
          << ",\n     \"partition\": " << json_array(r.partition) << "}"
          << (i + 1 < rungs.size() ? "," : "") << "\n";
    }
    const double base = rungs.front().wall_s;
    out << "  ],\n  \"speedup\": {";
    bool first = true;
    for (const Rung& r : rungs) {
      if (std::string(r.strategy) != "prefix") continue;
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%s\"%zu\": %.2f",
                    first ? "" : ", ", r.shards,
                    r.wall_s > 0.0 ? base / r.wall_s : 0.0);
      out << cell;
      first = false;
    }
    out << "},\n  \"measured_vs_prefix\": {";
    first = true;
    for (const std::size_t sh : {2, 4, 8}) {
      const Rung* p = rung_at(sh, "prefix");
      const Rung* m = rung_at(sh, "measured");
      if (p == nullptr || m == nullptr) continue;
      char cell[192];
      std::snprintf(cell, sizeof(cell),
                    "%s\"%zu\": {\"wall_prefix_s\": %.3f, "
                    "\"wall_measured_s\": %.3f, \"imbalance_prefix\": %" PRIu64
                    ", \"imbalance_measured\": %" PRIu64 "}",
                    first ? "" : ", ", sh, p->wall_s, m->wall_s,
                    p->imbalance_permille, m->imbalance_permille);
      out << cell;
      first = false;
    }
    out << "},\n  \"artifacts_identical\": " << (identical ? "true" : "false")
        << "\n}\n";
    bench::write_file(kProg, *args.bench_json_path, "bench JSON", out.str());

    bench::Checks checks{args};
    checks.out() << "shape checks:\n";
    checks.check(identical,
                 "every rung's artifacts are byte-identical (placement "
                 "never leaks into them)");
    if (args.skew) {
      // The headline claim of the skewed ladder: measured placement must
      // balance what prefix-quota cannot. (Deterministic, so checkable
      // even on one core, unlike wall clock.)
      const Rung* p8 = rung_at(8, "prefix");
      const Rung* m8 = rung_at(8, "measured");
      checks.check(m8->imbalance_permille < p8->imbalance_permille,
                   "measured placement improves the load ratio at shards=8 "
                   "(prefix=" + std::to_string(p8->imbalance_permille) +
                       " measured=" + std::to_string(m8->imbalance_permille) +
                       ")");
    }
    return checks.exit_code();
  }

  // --- seed sweep (each task itself sharded) --------------------------------
  if (args.mode == kSweep) {
    const std::size_t shards = args.shards == 0 ? 2 : args.shards;
    const auto slots =
        core::SweepRunner{args.jobs, shards}.run(
            args.sweep, [&](std::size_t i) {
              CampusOptions opt = table_options(args.seed + i);
              opt.cells = 12;
              opt.devices_per_cell = 3;
              opt.horizon = sim::milliseconds(80);
              opt.shards = shards;
              opt.skew = args.skew;
              const CampusResult r = net::run_campus(opt);
              return std::pair<std::uint64_t, Totals>{r.fingerprint(),
                                                      totals_of(r)};
            });
    core::CsvWriter csv({"seed", "fingerprint", "cyclic_tx", "reports_rx",
                         "watchdog_trips", "drops"});
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].ok()) {
        std::cerr << "tab_campus: sweep seed " << args.seed + i
                  << " failed: " << slots[i].error << "\n";
        return 1;
      }
      const auto& [fp, t] = *slots[i].value;
      csv.add_row({std::to_string(args.seed + i), hex16(fp),
                   std::to_string(t.cyclic_tx), std::to_string(t.reports_rx),
                   std::to_string(t.watchdog_trips),
                   std::to_string(t.drops)});
    }
    csv.print(std::cout);
    return 0;
  }

  // --- table / CSV mode -----------------------------------------------------
  const std::vector<std::size_t> shard_counts =
      args.shards != 0 ? std::vector<std::size_t>{args.shards}
                       : std::vector<std::size_t>{1, 8};
  sim::RateProfile profile_in;
  if (args.profile_in_path.has_value()) {
    profile_in = bench::read_profile(kProg, *args.profile_in_path,
                                     table_options(args.seed).cells);
  }
  std::vector<CampusResult> results;
  for (const std::size_t sh : shard_counts) {
    CampusOptions opt = table_options(args.seed);
    opt.shards = sh;
    opt.skew = args.skew;
    opt.measured_weights = profile_in.weights();
    results.push_back(net::run_campus(opt));
    std::fprintf(stderr,
                 "tab_campus: shards=%zu imbalance_permille=%" PRIu64 "\n", sh,
                 results.back().imbalance_permille);
  }
  if (args.profile_out_path.has_value()) {
    bench::write_profile(kProg, *args.profile_out_path,
                         results.front().profile);
  }

  if (args.metrics_path.has_value()) {
    bench::write_file(kProg, *args.metrics_path, "Prometheus metrics",
                      results.front().to_prometheus());
  }
  if (args.trace_path.has_value()) {
    bench::write_file(kProg, *args.trace_path, "Chrome-trace JSON",
                      results.front().to_chrome_trace());
  }

  if (args.csv) {
    std::cout << results.front().to_csv();
  } else {
    core::TextTable table({"shards", "events", "cyclic_tx", "delivered",
                           "reports_rx", "wdt_trips", "drops",
                           "fingerprint"});
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CampusResult& r = results[i];
      const Totals t = totals_of(r);
      table.add_row({std::to_string(shard_counts[i]),
                     std::to_string(r.stats.events),
                     std::to_string(t.cyclic_tx),
                     std::to_string(t.frames_delivered),
                     std::to_string(t.reports_rx),
                     std::to_string(t.watchdog_trips),
                     std::to_string(t.drops), hex16(r.fingerprint())});
    }
    table.print(std::cout);
  }
  bench::Checks checks{args};
  if (results.size() > 1) {
    checks.check(
        results.front().fingerprint() == results.back().fingerprint() &&
            results.front().cells == results.back().cells,
        "artifacts shards=" + std::to_string(shard_counts.front()) +
            " vs shards=" + std::to_string(shard_counts.back()) +
            " are byte-identical");
  }
  return checks.exit_code();
}
