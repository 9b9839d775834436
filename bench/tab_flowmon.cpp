// The flowmon telemetry pipeline end to end: meters the §2.3 measured
// workload in-network, then reports what the collector saw -- per-flow
// table (top talkers), metering/export/collector counters, and the golden
// fingerprint that pins determinism -- followed by the two-tier collector
// federation (cell meters -> cell collectors -> plant collector over the
// simulated fabric) with its per-tier record-conservation table.
// `--csv` dumps the measured flows and the federation rows as CSV instead.
#include <iostream>
#include <string>

#include "bench_args.hpp"
#include "flowmon/federation.hpp"
#include "flowmon/mix_scenario.hpp"
#include "flowmon/report.hpp"

int main(int argc, char** argv) {
  using namespace steelnet;
  using bench::hex16;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv, {kSeed, kCsv, kMetrics}, /*default_seed=*/7);

  flowmon::MeasuredMixSpec spec;
  spec.seed = args.seed;
  const auto result = flowmon::run_measured_mix(spec);

  flowmon::FederationSpec fed_spec;
  fed_spec.seed = args.seed;
  const auto fed = flowmon::run_federation(fed_spec);

  if (args.metrics_path.has_value()) {
    bench::write_file("tab_flowmon", *args.metrics_path, "Prometheus metrics",
                      fed.metrics_prom);
  }

  std::uint64_t meter_records = 0, cell_received = 0, cell_lost = 0,
                reexported = 0;
  for (const flowmon::TierRow& row : fed.cells) {
    meter_records += row.offered;
    cell_received += row.received;
    cell_lost += row.lost;
    reexported += row.reexported;
  }
  bench::Checks checks{args};
  const auto check_conservation = [&] {
    checks.out() << "\nconservation:\n";
    checks.check(fed.cell_conservation_ok,
                 "meter exports (" + std::to_string(meter_records) +
                     ") == cell received (" + std::to_string(cell_received) +
                     ") + cell lost (" + std::to_string(cell_lost) + ")");
    checks.check(fed.plant_conservation_ok,
                 "cell re-exports (" + std::to_string(reexported) +
                     ") == plant received (" +
                     std::to_string(fed.plant.received) + ") + plant lost (" +
                     std::to_string(fed.plant.lost) + ")");
  };

  if (args.csv) {
    std::cout << flowmon::flows_csv(result.flows) << "\n"
              << flowmon::federation_csv(fed);
    check_conservation();
    return checks.exit_code();
  }

  std::cout << "=== flowmon: in-network flow telemetry over the measured "
               "§2.3 workload ===\n\n";
  std::cout << "meter:     " << result.meter.frames_seen << " frames seen, "
            << result.meter.records_exported << " records exported in "
            << result.meter.export_frames << " frames ("
            << result.meter.idle_expired << " idle-expired, "
            << result.meter.active_checkpoints << " checkpoints, "
            << result.meter.flushed << " flushed)\n";
  std::cout << "cache:     " << result.cache.lookups << " lookups, "
            << result.cache.hits << " hits, " << result.cache.inserts
            << " inserts, " << result.cache.erased << " erased, "
            << result.cache.probes << " probe steps, "
            << result.cache.dropped_full << " dropped at load cap\n";
  std::cout << "collector: " << result.collector.messages << " messages, "
            << result.collector.records << " records, "
            << result.collector.templates_learned << " templates, "
            << result.collector.lost_records << " lost, "
            << result.collector.malformed << " malformed\n";
  std::cout << "flows:     " << result.flows.size() << " measured (of "
            << result.flows_offered << " offered)\n";
  std::cout << "golden fingerprint: " << hex16(result.fingerprint) << "\n\n";

  std::cout << "top flows by bytes:\n"
            << flowmon::flows_table(result.flows, 15);

  std::cout << "\n=== collector federation: cell meters -> cell collectors "
               "-> plant (RFC 7011 on the wire) ===\n\n"
            << flowmon::federation_table(fed);
  check_conservation();
  std::cout << "plant fingerprint: " << hex16(fed.plant_fingerprint)
            << "  (" << fed.frames_sent << " workload frames offered, "
            << fed.cell_flows_total << " flows tracked across cells)\n";

  std::cout << "\n(run with --csv for the full flow + federation CSVs)\n";
  return checks.exit_code();
}
