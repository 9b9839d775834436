// steelnet::obs -- the hub: one object that carries the whole observability
// plane for a run (metrics registry + span tracer + delivery ledger).
//
// Wiring: construct an ObsHub next to the Simulator/Network, call
// net::Network::set_obs(&hub), and the instrumented data path (host NIC,
// egress queues, links, switches, XDP hook) starts stamping trace ids into
// frames and recording per-hop spans. Without a hub attached every hook
// site is a single pointer-null branch -- the disabled-mode overhead is
// pinned below 2 ns/frame by bench/micro_benchmarks.
//
// The hub is an observer only: it never schedules events, never draws from
// an RNG, and never mutates frames beyond the trace_id metadata field, so
// golden traces are byte-identical with observability on or off.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "sim/time.hpp"

namespace steelnet::obs {

struct TraceConfig {
  /// Stamp trace ids into frames and record their hop spans and
  /// end-to-end deliveries.
  bool trace_frames = true;
};

/// One frame's application-to-application journey.
struct Delivery {
  std::uint64_t trace_id = 0;
  TrackId at = kInvalidTrack;  ///< receiving host's track
  sim::SimTime created_at;     ///< sender application emitted the frame
  sim::SimTime delivered_at;   ///< receiver application saw it

  [[nodiscard]] sim::SimTime latency() const {
    return delivered_at - created_at;
  }
};

/// One row of a per-frame hop breakdown.
struct HopRow {
  std::string hop;    ///< hop kind ("queue", "link", ...)
  std::string track;  ///< where ("vplc1/p0", "link:instaplc-switch:p0", ...)
  sim::SimTime start;
  sim::SimTime end;

  [[nodiscard]] sim::SimTime duration() const { return end - start; }
};

class ObsHub {
 public:
  explicit ObsHub(TraceConfig cfg = {});

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] SpanTracer& tracer() { return tracer_; }
  [[nodiscard]] const SpanTracer& tracer() const { return tracer_; }

  [[nodiscard]] bool frames_enabled() const { return cfg_.trace_frames; }

  // --- frame hook surface (called by net/sdn with `obs != nullptr` as the
  //     only hot-path cost; all no-ops when trace_frames is off or the
  //     frame carries no trace id) ------------------------------------------
  /// New trace id for a frame entering the network at a host NIC.
  [[nodiscard]] std::uint64_t assign_trace_id();
  /// Interns a track (node name, "name/pN" queue, "link:name:pN" channel).
  TrackId track(std::string_view name) { return tracer_.track(name); }

  void host_tx(std::uint64_t trace, TrackId t, sim::SimTime start,
               sim::SimTime end);
  void queue_enter(std::uint64_t trace, TrackId t, sim::SimTime at);
  void queue_exit(std::uint64_t trace, TrackId t, sim::SimTime at);
  /// Frame dropped at a full queue: discard the open queue hop.
  void queue_drop(std::uint64_t trace, TrackId t);
  void link_transit(std::uint64_t trace, TrackId t, sim::SimTime depart,
                    sim::SimTime arrive);
  void proc(std::uint64_t trace, TrackId t, sim::SimTime start,
            sim::SimTime end);
  void xdp(std::uint64_t trace, TrackId t, sim::SimTime start,
           sim::SimTime end);
  void host_rx(std::uint64_t trace, TrackId t, sim::SimTime start,
               sim::SimTime end);
  void delivered(std::uint64_t trace, TrackId t, sim::SimTime created_at,
                 sim::SimTime at);
  /// Instant (zero-width) span marking an injected fault hitting the
  /// frame at `t` -- named "fault:<cause>", so breakdown() and the
  /// Perfetto export show exactly where a frame died or was mutated.
  void fault_event(std::uint64_t trace, TrackId t, sim::SimTime at,
                   const char* cause);

  // --- analysis ------------------------------------------------------------
  [[nodiscard]] const std::vector<Delivery>& deliveries() const {
    return deliveries_;
  }
  /// First delivery of `trace`, if any.
  [[nodiscard]] std::optional<Delivery> delivery_of(std::uint64_t trace) const;
  /// The frame's hop spans in path order. For a unicast frame the rows
  /// tile [created_at, delivered_at] exactly: sum(duration) == latency().
  [[nodiscard]] std::vector<HopRow> breakdown(std::uint64_t trace) const;

 private:
  TraceConfig cfg_;
  MetricsRegistry metrics_;
  SpanTracer tracer_;
  std::vector<Delivery> deliveries_;
  std::string fault_name_;  ///< "fault:<cause>", reused across calls
};

}  // namespace steelnet::obs
