// The observability plane on the Fig. 5 switchover run: attach an ObsHub
// to the InstaPLC scenario, trace every cyclic frame hop by hop, and
// decompose one post-switchover vPLC2 -> I/O-device delivery into its
// per-hop latency contributions (host tx, egress queue, link, switch
// pipeline, XDP, host rx). The hop rows tile the end-to-end latency
// exactly -- the "sum check" row asserts sum(hops) == delivered - created
// to the nanosecond.
//
//   --trace <file>    write the whole run as Chrome-trace JSON (open in
//                     Perfetto / chrome://tracing)
//   --metrics <file>  dump the metrics registry as Prometheus text
//   --csv             print every recorded span as CSV instead of tables
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "faults/instaplc_testbed.hpp"
#include "obs/exporters.hpp"
#include "obs/hub.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace steelnet;
  using namespace steelnet::sim::literals;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv, {kCsv, kTrace, kMetrics});

  // Same testbed and timeline as fig5_instaplc; the testbed registers
  // every module's counters on its hub.
  faults::FaultScenario scenario = faults::silent_primary_scenario(1);
  scenario.faults[0].at = 1500_ms;
  sim::Simulator simulator;
  faults::InstaPlcTestbed testbed{simulator, scenario, {}};
  obs::ObsHub& hub = testbed.hub();
  const instaplc::InstaPlcApp& app = testbed.app();
  const profinet::IoDevice& device = testbed.device();

  testbed.start();
  simulator.run_until(3_s);

  if (args.trace_path) {
    std::ostringstream trace;
    obs::write_chrome_trace(trace, hub.tracer());
    bench::write_file("tab_obs", *args.trace_path, "Chrome-trace JSON",
                      trace.str());
  }
  if (args.metrics_path) {
    bench::write_file("tab_obs", *args.metrics_path, "Prometheus metrics",
                      hub.metrics().to_prometheus());
  }

  if (!app.stats().switchover_at) {
    std::cerr << "tab_obs: no switchover happened; nothing to break down\n";
    return 1;
  }
  const auto switchover = *app.stats().switchover_at;

  // The frame under the microscope: the first cyclic frame delivered to
  // the I/O device after vPLC2 took over.
  const auto io_track = hub.track("dev");
  std::optional<obs::Delivery> pick;
  for (const auto& d : hub.deliveries()) {
    if (d.at == io_track && d.created_at >= switchover) {
      pick = d;
      break;
    }
  }
  if (!pick) {
    std::cerr << "tab_obs: no post-switchover delivery to dev\n";
    return 1;
  }
  const auto rows = hub.breakdown(pick->trace_id);
  std::int64_t sum_ns = 0;
  for (const auto& r : rows) sum_ns += r.duration().nanos();
  const std::int64_t e2e = pick->latency().nanos();
  const std::int64_t residual = e2e - sum_ns;

  if (args.csv) {
    std::cout << obs::spans_csv(hub.tracer());
  } else {
    std::cout << "=== per-frame hop latency breakdown on the Fig. 5 "
                 "switchover run ===\n\n";
    std::cout << "traced " << hub.tracer().spans().size() << " spans over "
              << hub.tracer().track_count() << " tracks; "
              << hub.deliveries().size() << " end-to-end deliveries\n";
    std::cout << "switchover at " << switchover.to_string() << "\n\n";
    std::cout << "frame trace #" << pick->trace_id
              << ": v2 -> dev, created " << pick->created_at.to_string()
              << ", delivered " << pick->delivered_at.to_string() << "\n\n";

    core::TextTable table({"hop", "where", "start (ns)", "end (ns)",
                           "duration (ns)", "share"});
    const double e2e_ns = static_cast<double>(e2e);
    for (const auto& r : rows) {
      table.add_row(
          {r.hop, r.track, std::to_string(r.start.nanos()),
           std::to_string(r.end.nanos()),
           std::to_string(r.duration().nanos()),
           core::TextTable::pct(static_cast<double>(r.duration().nanos()) /
                                e2e_ns)});
    }
    table.add_row({"total", "(sum of hops)", "", "", std::to_string(sum_ns),
                   core::TextTable::pct(static_cast<double>(sum_ns) / e2e_ns)});
    table.print(std::cout);

    std::cout << "\nend-to-end latency: " << e2e << " ns; sum of hops: "
              << sum_ns << " ns; residual: " << residual << " ns\n";

    // A taste of the metrics plane next to the trace plane.
    std::cout << "\nregistry excerpt (full dump via --metrics <file>):\n";
    core::TextTable mt({"metric", "value"});
    for (const auto& s : hub.metrics().snapshot()) {
      if (s.path.module == "instaplc" || s.path.name == "frames_delivered" ||
          (s.path.node == "dev" && s.path.name == "received")) {
        mt.add_row({s.path.node + "/" + s.path.module + "/" + s.path.name,
                    core::TextTable::num(s.value, 0)});
      }
    }
    mt.print(std::cout);
  }

  bench::Checks checks{args};
  checks.out() << "\nshape checks:\n";
  checks.check(std::abs(residual) <= 1,
               "hop durations tile the end-to-end latency (<= 1 ns "
               "residual)");
  checks.check(rows.size() >= 5,
               "breakdown covers host tx, queueing, link, switch pipeline, "
               "and host rx");
  checks.check(device.counters().watchdog_trips == 0,
               "tracing perturbed nothing: device watchdog never expired");
  return checks.exit_code();
}
