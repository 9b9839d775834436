// The flowmon telemetry pipeline end to end: meters the §2.3 measured
// workload in-network, then reports what the collector saw -- per-flow
// table (top talkers), metering/export/collector counters, and the golden
// fingerprint that pins determinism -- followed by the two-tier collector
// federation (cell meters -> cell collectors -> plant collector over the
// simulated fabric) with its per-tier record-conservation table.
// `--csv` dumps the measured flows and the federation rows as CSV instead.
//
// `--bench-json <file>` (optionally with `--scale <n>` to cap the curve)
// switches to the FlowCache scaling bench: insert/expire throughput vs
// live-flow count for the legacy scan sweep vs the timer-wheel engine,
// with the expiry order fingerprint-pinned byte-identical across engines.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "flowmon/federation.hpp"
#include "flowmon/flow_cache.hpp"
#include "flowmon/mix_scenario.hpp"
#include "flowmon/report.hpp"

namespace {

using namespace steelnet;
using bench::hex16;

// --- FlowCache scaling curve ------------------------------------------

struct CachePoint {
  const char* engine;
  std::uint64_t live_flows = 0;
  double insert_per_s = 0.0;
  double expire_per_s = 0.0;
  std::uint64_t sweeps = 0;
  std::uint64_t wheel_fires = 0;
  std::uint64_t wheel_rearms = 0;
  std::uint64_t expiry_order_fp = 0;
};

constexpr std::int64_t kSpreadNs = 60'000'000'000;  // arrivals over 60 s
constexpr std::int64_t kIdleMs = 500;
constexpr std::int64_t kSweepStepMs = 100;

/// One curve point: fill the cache with `n` single-packet flows whose
/// arrivals are spread over 20 s of sim time, then sweep every 100 ms of
/// sim time until empty. Wall-clock timed; the expiry *order* is folded
/// into an FNV fingerprint that must match between engines.
CachePoint run_cache_point(flowmon::ExpiryEngine engine, std::uint64_t n) {
  flowmon::FlowCacheConfig cfg;
  cfg.capacity = static_cast<std::size_t>(n + n / 2);  // stay under load cap
  cfg.idle_timeout = sim::milliseconds(kIdleMs);
  cfg.active_timeout = sim::seconds(3600);  // idle-only expiry
  cfg.engine = engine;
  cfg.wheel_tick = sim::milliseconds(kSweepStepMs);
  flowmon::FlowCache cache{cfg};

  net::Frame frame;
  frame.dst = net::MacAddress{0x5d'0000'000001ULL};
  frame.ethertype = net::EtherType::kIpv4;
  frame.payload.assign(64, 0);

  const auto insert_t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    frame.src = net::MacAddress{0x5a'0000'000000ULL + i};
    const sim::SimTime at{static_cast<std::int64_t>(i) * kSpreadNs /
                          static_cast<std::int64_t>(n)};
    cache.record(frame, at);
  }
  const double insert_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    insert_t0)
          .count();

  CachePoint point;
  point.engine = engine == flowmon::ExpiryEngine::kWheel ? "wheel" : "scan";
  point.live_flows = cache.size();
  point.insert_per_s = insert_s > 0.0 ? double(n) / insert_s : 0.0;

  std::uint64_t fp = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&fp](std::uint64_t v) {
    fp ^= v;
    fp *= 1099511628211ULL;
  };
  const auto expire_t0 = std::chrono::steady_clock::now();
  sim::SimTime t = sim::milliseconds(kIdleMs);
  while (cache.size() != 0) {
    cache.sweep(t, [&](const flowmon::FlowRecord& r, flowmon::EndReason) {
      mix(r.key.src.bits());
    });
    t = t + sim::milliseconds(kSweepStepMs);
    ++point.sweeps;
  }
  const double expire_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    expire_t0)
          .count();
  point.expire_per_s = expire_s > 0.0 ? double(n) / expire_s : 0.0;
  point.wheel_fires = cache.stats().wheel_fires;
  point.wheel_rearms = cache.stats().wheel_rearms;
  point.expiry_order_fp = fp;
  return point;
}

int run_cache_scaling(const bench::BenchArgs& args) {
  std::vector<std::uint64_t> sizes{10'000, 100'000, 1'000'000, 10'000'000};
  if (args.scale != 0) {
    std::erase_if(sizes, [&](std::uint64_t n) { return n > args.scale; });
    if (sizes.empty() || sizes.back() != args.scale)
      sizes.push_back(args.scale);
  }

  std::cout << "=== flowmon: FlowCache expiry scaling, scan vs timer wheel "
               "===\n\n";
  core::TextTable table({"live flows", "engine", "insert/s", "expire/s",
                         "sweeps", "wheel fires", "re-arms",
                         "expire speedup"});
  struct Pair {
    CachePoint scan, wheel;
  };
  std::vector<Pair> pairs;
  bool fp_ok = true;
  for (const std::uint64_t n : sizes) {
    Pair p{run_cache_point(flowmon::ExpiryEngine::kScan, n),
           run_cache_point(flowmon::ExpiryEngine::kWheel, n)};
    if (p.scan.expiry_order_fp != p.wheel.expiry_order_fp) fp_ok = false;
    const double speedup = p.scan.expire_per_s > 0.0
                               ? p.wheel.expire_per_s / p.scan.expire_per_s
                               : 0.0;
    for (const CachePoint* cp : {&p.scan, &p.wheel}) {
      table.add_row({std::to_string(cp->live_flows), cp->engine,
                     core::TextTable::num(cp->insert_per_s),
                     core::TextTable::num(cp->expire_per_s),
                     std::to_string(cp->sweeps),
                     std::to_string(cp->wheel_fires),
                     std::to_string(cp->wheel_rearms),
                     cp == &p.wheel ? core::TextTable::num(speedup) : "-"});
    }
    pairs.push_back(p);
  }
  std::cout << table.to_string();

  if (args.bench_json_path.has_value()) {
    std::ostringstream out;
    out << "{\n  \"bench\": \"flowmon_cache_scaling\",\n"
        << "  \"context\": {\"arrival_spread_s\": "
        << kSpreadNs / 1'000'000'000 << ", \"idle_timeout_ms\": "
        << kIdleMs << ", \"sweep_interval_ms\": " << kSweepStepMs
        << ", \"wheel_tick_ms\": " << kSweepStepMs << "},\n"
        << "  \"points\": [\n";
    bool first = true;
    for (const Pair& p : pairs) {
      for (const CachePoint* cp : {&p.scan, &p.wheel}) {
        if (!first) out << ",\n";
        first = false;
        char line[512];
        std::snprintf(line, sizeof line,
                      "    {\"engine\": \"%s\", \"live_flows\": %llu, "
                      "\"insert_per_s\": %.1f, \"expire_per_s\": %.1f, "
                      "\"sweeps\": %llu, \"wheel_fires\": %llu, "
                      "\"wheel_rearms\": %llu, \"expiry_order_fp\": \"%s\"}",
                      cp->engine,
                      static_cast<unsigned long long>(cp->live_flows),
                      cp->insert_per_s, cp->expire_per_s,
                      static_cast<unsigned long long>(cp->sweeps),
                      static_cast<unsigned long long>(cp->wheel_fires),
                      static_cast<unsigned long long>(cp->wheel_rearms),
                      hex16(cp->expiry_order_fp).c_str());
        out << line;
      }
    }
    out << "\n  ],\n  \"speedup_expire\": {";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const double speedup =
          pairs[i].scan.expire_per_s > 0.0
              ? pairs[i].wheel.expire_per_s / pairs[i].scan.expire_per_s
              : 0.0;
      char line[96];
      std::snprintf(line, sizeof line, "%s\"%llu\": %.2f",
                    i == 0 ? "" : ", ",
                    static_cast<unsigned long long>(
                        pairs[i].scan.live_flows),
                    speedup);
      out << line;
    }
    out << "},\n  \"expiry_order_identical\": "
        << (fp_ok ? "true" : "false") << "\n}\n";
    bench::write_file("tab_flowmon", *args.bench_json_path, "bench JSON",
                      out.str());
  }

  bench::Checks checks{args};
  checks.out() << '\n';
  checks.check(fp_ok,
               "expiry order is byte-identical across engines (fingerprints "
               "match)");
  return checks.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, /*default_seed=*/7);
  if (args.trace_path.has_value()) {
    std::cerr << "tab_flowmon: no frame tracing here; --trace ignored\n";
  }

  // Scaling-curve mode replaces the pipeline run entirely.
  if (args.bench_json_path.has_value() || args.scale != 0) {
    return run_cache_scaling(args);
  }

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

  std::cout << "\n(run with --csv for the full flow + federation CSVs; "
               "--bench-json <file> for the cache-scaling curve)\n";
  return checks.exit_code();
}
