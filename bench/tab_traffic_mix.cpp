// Reproduces the §2.3 traffic-mix discussion as a table -- measured, not
// synthesized: the mixed DC + vPLC workload actually runs through a
// simulated switch, a flowmon MeterPoint meters it in-network, IPFIX-style
// records travel over the same network to a CollectorNode, and the
// classifier inputs below are what the collector measured. The classic
// mice/medium/elephant taxonomy vs the never-ending deterministic
// microflows that vPLCs add, and how the bytes-only classifier misfiles
// them.
#include <iostream>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "core/traffic_mix.hpp"
#include "flowmon/mix_scenario.hpp"

int main(int argc, char** argv) {
  using namespace steelnet;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv, {kSeed}, /*default_seed=*/7);

  std::cout << "=== §2.3: flow taxonomy over a mixed DC + vPLC workload, "
               "measured in-network by flowmon ===\n\n";

  flowmon::MeasuredMixSpec spec;
  spec.seed = args.seed;
  const auto result = flowmon::run_measured_mix(spec);
  const auto thresholds = spec.thresholds();
  const auto rows = core::tabulate_mix(result.measured, thresholds);

  std::cout << "offered " << result.flows_offered << " flows ("
            << result.frames_sent << " frames over "
            << spec.observation.seconds() << " s); collector measured "
            << result.flows.size() << " flows from " << result.collector.records
            << " records in " << result.meter.export_frames
            << " export frames (" << result.collector.lost_records
            << " lost)\n\n";

  core::TextTable table({"class", "flows", "share of flows",
                         "share of bytes", "misfiled by bytes-only"});
  for (const auto& r : rows) {
    table.add_row({r.klass, std::to_string(r.count),
                   core::TextTable::pct(r.share_of_flows),
                   core::TextTable::pct(r.share_of_bytes),
                   std::to_string(r.misclassified_by_bytes_only)});
  }
  table.print(std::cout);

  // Where do the bytes-only misfiles land?
  std::size_t as_elephant = 0, as_medium = 0, as_mice = 0;
  for (const auto& f : result.measured) {
    if (core::classify(f, thresholds) !=
        core::FlowClass::kDeterministicMicroflow) {
      continue;
    }
    switch (core::classify_bytes_only(f, thresholds)) {
      case core::FlowClass::kElephant: ++as_elephant; break;
      case core::FlowClass::kMedium: ++as_medium; break;
      case core::FlowClass::kMice: ++as_mice; break;
      default: break;
    }
  }
  std::cout << "\nvPLC microflows misfiled by the bytes-only taxonomy as: "
            << as_elephant << " elephants, " << as_medium << " medium, "
            << as_mice << " mice\n";
  std::cout << "(latency-sensitive like mice, never-ending like elephants "
               "-- a class of its own; §2.3)\n";
  std::cout << "(periodicity and open-endedness detected from measured "
               "cadence -- no flow is told what it is)\n";

  // The original offline synthesis (1 h observation, unscaled volumes),
  // for comparison with the measured window above.
  std::cout << "\n--- offline synthesis (1 h, unscaled), for reference "
               "---\n\n";
  core::MixSpec offline;
  const auto synth_rows = core::tabulate_mix(core::generate_mix(offline));
  core::TextTable synth({"class", "flows", "share of flows",
                        "share of bytes", "misfiled by bytes-only"});
  for (const auto& r : synth_rows) {
    synth.add_row({r.klass, std::to_string(r.count),
                   core::TextTable::pct(r.share_of_flows),
                   core::TextTable::pct(r.share_of_bytes),
                   std::to_string(r.misclassified_by_bytes_only)});
  }
  synth.print(std::cout);
  return 0;
}
