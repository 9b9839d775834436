// steelnet::obs -- exporters: Chrome-trace/Perfetto JSON, CSV span dumps,
// and a Simulator-driven periodic metrics snapshotter.
//
// All output is rendered from deterministic sim-time state with fixed
// formatting, so identical seeds produce byte-identical files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "sim/simulator.hpp"

namespace steelnet::obs {

/// Chrome trace-event JSON ("traceEvents" array of complete events plus
/// track-name metadata), loadable in Perfetto / chrome://tracing.
/// Timestamps are sim-time microseconds with nanosecond resolution
/// (ts/dur carry three decimals). All three forms render the same bytes;
/// the fingerprint is FNV-1a 64 of them, streamed without building the
/// text.
[[nodiscard]] std::string chrome_trace_json(const SpanTracer& tracer);
void write_chrome_trace(std::ostream& os, const SpanTracer& tracer);
[[nodiscard]] std::uint64_t chrome_trace_fingerprint(const SpanTracer& tracer);

/// `trace_id,track,name,start_ns,end_ns,duration_ns` lines.
[[nodiscard]] std::string spans_csv(const SpanTracer& tracer);

/// Samples every registry metric on a fixed sim-time period -- the
/// time-series companion to a single end-of-run dump. Rows accumulate in
/// memory; export with to_csv() (`time_ns,node,module,metric,value`).
class Snapshotter {
 public:
  /// Snapshots first at `period`, then every `period`, until stopped or
  /// the simulation ends.
  Snapshotter(sim::Simulator& sim, const MetricsRegistry& registry,
              sim::SimTime period);

  void stop();
  [[nodiscard]] std::size_t snapshots_taken() const { return taken_; }
  [[nodiscard]] std::string to_csv() const;

 private:
  struct Row {
    sim::SimTime at;
    MetricPath path;
    double value;
  };

  void take();

  sim::Simulator& sim_;
  const MetricsRegistry& registry_;
  std::vector<Row> series_;
  std::size_t taken_ = 0;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace steelnet::obs
