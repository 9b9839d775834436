// Fleet-scale vPLC orchestration: place a >= 1000-controller fleet on a
// >= 50-node leaf-spine data center and drive it through the three
// tab_orch experiments:
//
//   * rolling upgrade -- drain/reboot every compute node; a gentle grace
//     upgrades the fleet through make-before-break handovers (zero
//     control gaps), an aggressive grace reboots stragglers out from
//     under their vPLCs and every resulting gap lands in the accounted
//     SLO ledger;
//   * rack-failure storm ladder -- crash 1/2/4/8 hosts of one rack at the
//     same instant and watch the switchover-latency distribution broaden
//     against the (kWatchdogHeartbeats + 1) x kHeartbeatPeriod bound as
//     per-node activation queues fill;
//   * placement ablation -- bin-packing vs latency-aware under identical
//     fleets: rack-locality, load spread, and what a rack-0 storm costs a
//     consolidated fleet vs a spread one.
//
// Every run is accounted: failovers_started == switchovers +
// currently_down (residual 0), switchovers_within_bound + slo_violations
// == switchovers, frame conservation residual 0, and every run is
// executed twice to prove byte-identical replay.
//
//   --sweep <n>       additionally run n seeded rack-failure storms (the
//                     CI smoke sweep) under the same invariants
//   --jobs <n>        fan independent runs over n workers (default:
//                     hardware concurrency); every artifact is
//                     byte-identical to --jobs 1
//   --csv             one CSV row per run: every hashed outcome field
//   --metrics <file>  Prometheus dump of the full-rack storm run
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "core/sweep_runner.hpp"
#include "orch/orch_runner.hpp"

namespace {

using steelnet::orch::OrchConfig;
using steelnet::orch::OrchOutcome;
using steelnet::orch::OrchScenario;
using steelnet::orch::PolicyKind;

struct Row {
  std::string label;
  OrchOutcome out;
  bool deterministic = false;
};

std::string fmt_us(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0fus", us);
  return buf;
}

std::string fmt_frac(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", f);
  return buf;
}

OrchConfig base_config(std::uint64_t seed) {
  OrchConfig cfg;
  cfg.seed = seed;
  return cfg;  // defaults: 8 racks x 8 nodes, 1024 vPLCs, 2 s horizon
}

}  // namespace

int main(int argc, char** argv) {
  using namespace steelnet;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv, {kSeed, kCsv, kMetrics, kSweep, kJobs}, /*default_seed=*/1);

  struct Plan {
    std::string label;
    OrchConfig cfg;
  };
  std::vector<Plan> plans;
  auto add = [&](std::string label, OrchScenario sc, PolicyKind pol,
                 std::uint32_t storm, std::uint32_t victim) {
    OrchConfig cfg = base_config(args.seed);
    cfg.scenario = sc;
    cfg.policy = pol;
    cfg.storm_nodes = storm;
    cfg.victim_rack = victim;
    plans.push_back({std::move(label), cfg});
  };
  add("steady/latency", OrchScenario::kSteady, PolicyKind::kLatencyAware, 0,
      orch::kNoRack);
  add("steady/binpack", OrchScenario::kSteady, PolicyKind::kBinPack, 0,
      orch::kNoRack);
  add("upgrade-gentle", OrchScenario::kRollingUpgrade,
      PolicyKind::kLatencyAware, 0, orch::kNoRack);
  add("upgrade-aggressive", OrchScenario::kRollingAggressive,
      PolicyKind::kLatencyAware, 0, orch::kNoRack);
  for (const std::uint32_t storm : {1u, 2u, 4u, 8u}) {
    add("storm-" + std::to_string(storm) + "/latency",
        OrchScenario::kRackFailure, PolicyKind::kLatencyAware, storm, 0);
  }
  add("storm-8/binpack", OrchScenario::kRackFailure, PolicyKind::kBinPack, 8,
      0);
  // The --metrics artifact rides the full-rack latency-aware storm.
  const std::size_t metrics_plan = 7;  // storm-8/latency
  if (args.metrics_path.has_value()) {
    plans[metrics_plan].cfg.keep_exports = true;
  }
  const std::size_t canonical = plans.size();
  for (std::uint64_t i = 0; i < args.sweep; ++i) {
    OrchConfig cfg = base_config(args.seed + i);
    cfg.scenario = OrchScenario::kRackFailure;
    cfg.storm_nodes = 8;  // victim rack drawn from the seed's storm stream
    plans.push_back({"sweep-" + std::to_string(args.seed + i), cfg});
  }

  // Every (plan, replay) pair is an independent single-threaded
  // simulation; fan them out and reduce in plan order, so all artifacts
  // are byte-identical at any --jobs value.
  const auto slots =
      core::SweepRunner{args.jobs}.run(plans.size(), [&](std::size_t i) {
        Row row;
        row.label = plans[i].label;
        row.out = orch::OrchRunner::run(plans[i].cfg);
        row.deterministic = orch::OrchRunner::run(plans[i].cfg).fingerprint() ==
                            row.out.fingerprint();
        return row;
      });

  std::vector<Row> rows;
  rows.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].ok()) {
      std::cerr << "tab_orch: plan '" << plans[i].label
                << "' failed: " << slots[i].error << "\n";
      return 1;
    }
    rows.push_back(*slots[i].value);
  }

  if (args.metrics_path) {
    bench::write_file("tab_orch", *args.metrics_path, "Prometheus metrics",
                      rows[metrics_plan].out.metrics_prom);
  }

  if (args.csv) {
    std::cout << "run";
    OrchOutcome{}.fields(bench::CsvFields{std::cout, /*header=*/true});
    std::cout << ",deterministic,fingerprint\n";
    for (const Row& r : rows) {
      std::cout << r.label;
      r.out.fields(bench::CsvFields{std::cout});
      std::cout << ',' << (r.deterministic ? 1 : 0) << ','
                << r.out.fingerprint() << '\n';
    }
  } else {
    std::cout << "=== fleet orchestration: " << rows[0].out.vplcs_placed
              << " vPLCs on " << rows[0].out.compute_nodes
              << " nodes, watchdog bound "
              << fmt_us(static_cast<double>(rows[0].out.watchdog_bound_ns) /
                        1e3)
              << " (seed " << args.seed << ") ===\n\n";
    core::TextTable table({"run", "failovers", "switch", "in-bound", "viol",
                           "handover", "cold", "queue", "p50", "p99", "max",
                           "avail", "replay"});
    for (std::size_t i = 0; i < canonical; ++i) {
      const OrchOutcome& o = rows[i].out;
      table.add_row(
          {rows[i].label, std::to_string(o.fleet.failovers_started),
           std::to_string(o.fleet.switchovers),
           std::to_string(o.fleet.switchovers_within_bound),
           std::to_string(o.fleet.slo_violations),
           std::to_string(o.fleet.graceful_handovers),
           std::to_string(o.fleet.cold_restarts),
           std::to_string(o.fleet.activation_queue_peak),
           o.latency_count ? fmt_us(o.latency_p50_us) : "-",
           o.latency_count ? fmt_us(o.latency_p99_us) : "-",
           o.latency_count ? fmt_us(o.latency_max_us) : "-",
           fmt_frac(o.availability),
           rows[i].deterministic ? "identical" : "DIVERGED"});
    }
    table.print(std::cout);

    std::cout << "\nplacement ablation (steady fleet):\n";
    core::TextTable ab({"policy", "rack-local", "util max/mean",
                        "storm-8 switchovers", "storm-8 viol",
                        "storm-8 p99"});
    const OrchOutcome& lat_steady = rows[0].out;
    const OrchOutcome& bp_steady = rows[1].out;
    const OrchOutcome& lat_storm = rows[7].out;
    const OrchOutcome& bp_storm = rows[8].out;
    ab.add_row({"latency", fmt_frac(lat_steady.rack_local_fraction),
                fmt_frac(lat_steady.utilization_spread),
                std::to_string(lat_storm.fleet.switchovers),
                std::to_string(lat_storm.fleet.slo_violations),
                lat_storm.latency_count ? fmt_us(lat_storm.latency_p99_us)
                                        : "-"});
    ab.add_row({"binpack", fmt_frac(bp_steady.rack_local_fraction),
                fmt_frac(bp_steady.utilization_spread),
                std::to_string(bp_storm.fleet.switchovers),
                std::to_string(bp_storm.fleet.slo_violations),
                bp_storm.latency_count ? fmt_us(bp_storm.latency_p99_us)
                                       : "-"});
    ab.print(std::cout);
  }

  // --- shape checks (the exit code) ----------------------------------------
  bool scale_ok = true;
  bool accounted = true;
  bool replayed = true;
  bool settled = true;
  for (const Row& r : rows) {
    const OrchOutcome& o = r.out;
    scale_ok &= o.place_error.empty() && o.compute_nodes >= 50 &&
                o.vplcs_placed >= 1000;
    accounted &= o.ledger_residual == 0 && o.conservation_residual == 0 &&
                 o.fleet.switchovers_within_bound + o.fleet.slo_violations ==
                     o.fleet.switchovers;
    // Classification consistency: a violation-free run's worst gap fits
    // the bound.
    if (o.fleet.slo_violations == 0 && o.latency_count > 0) {
      accounted &= o.latency_max_us * 1e3 <=
                   static_cast<double>(o.watchdog_bound_ns);
    }
    replayed &= r.deterministic;
    if (o.scenario == "rack-failure") settled &= o.currently_down == 0;
  }
  const OrchOutcome& steady_lat = rows[0].out;
  const OrchOutcome& steady_bp = rows[1].out;
  const bool steady_quiet = steady_lat.fleet.failovers_started == 0 &&
                            steady_bp.fleet.failovers_started == 0 &&
                            steady_lat.availability == 1.0;
  const OrchOutcome& gentle = rows[2].out;
  const OrchOutcome& aggressive = rows[3].out;
  const bool upgraded =
      gentle.fleet.graceful_handovers > 0 &&
      gentle.fleet.nodes_rejoined == gentle.compute_nodes &&
      aggressive.fleet.nodes_rejoined == aggressive.compute_nodes &&
      aggressive.fleet.failovers_started > 0;
  const bool ladder = rows[7].out.fleet.switchovers >=
                      rows[4].out.fleet.switchovers;
  const bool ablation =
      steady_lat.rack_local_fraction >= 0.9 &&
      steady_bp.rack_local_fraction <= 0.5 &&
      steady_bp.utilization_spread > steady_lat.utilization_spread;

  bench::Checks checks{args};
  checks.out() << "\nshape checks:\n";
  checks.check(scale_ok,
               "every run placed >= 1000 vPLCs on >= 50 compute nodes");
  checks.check(accounted,
               "SLO ledger closed: failovers == switchovers + down, "
               "in-bound + violations == switchovers, frame residual 0");
  checks.check(steady_quiet,
               "steady fleet: zero failovers, availability 1.0");
  checks.check(upgraded,
               "rolling upgrades: gentle hands over gracefully, aggressive "
               "produces real accounted failovers, all nodes rejoin");
  checks.check(settled && ladder,
               "storm ladder: wider storms switch more vPLCs over and every "
               "storm settles (none left down)");
  checks.check(ablation,
               "ablation: latency-aware keeps rack locality, bin-packing "
               "consolidates (higher util spread)");
  checks.check(replayed, "every run replays byte-identically from its seed");
  return checks.exit_code();
}
