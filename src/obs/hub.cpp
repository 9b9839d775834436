#include "obs/hub.hpp"

namespace steelnet::obs {

ObsHub::ObsHub(TraceConfig cfg) : cfg_(cfg) {}

std::uint64_t ObsHub::assign_trace_id() {
  if (!cfg_.trace_frames) return 0;
  return tracer_.next_trace_id();
}

void ObsHub::host_tx(std::uint64_t trace, TrackId t, sim::SimTime start,
                     sim::SimTime end) {
  if (!cfg_.trace_frames || trace == 0) return;
  tracer_.hop(trace, Hop::kHostTx, t, start, end);
}

void ObsHub::queue_enter(std::uint64_t trace, TrackId t, sim::SimTime at) {
  if (!cfg_.trace_frames || trace == 0) return;
  tracer_.hop_open(trace, Hop::kQueue, t, at);
}

void ObsHub::queue_exit(std::uint64_t trace, TrackId t, sim::SimTime at) {
  if (!cfg_.trace_frames || trace == 0) return;
  tracer_.hop_close(trace, Hop::kQueue, t, at);
}

void ObsHub::queue_drop(std::uint64_t trace, TrackId t) {
  if (!cfg_.trace_frames || trace == 0) return;
  tracer_.hop_abort(trace, Hop::kQueue, t);
}

void ObsHub::link_transit(std::uint64_t trace, TrackId t, sim::SimTime depart,
                          sim::SimTime arrive) {
  if (!cfg_.trace_frames || trace == 0) return;
  tracer_.hop(trace, Hop::kLink, t, depart, arrive);
}

void ObsHub::proc(std::uint64_t trace, TrackId t, sim::SimTime start,
                  sim::SimTime end) {
  if (!cfg_.trace_frames || trace == 0) return;
  tracer_.hop(trace, Hop::kProc, t, start, end);
}

void ObsHub::xdp(std::uint64_t trace, TrackId t, sim::SimTime start,
                 sim::SimTime end) {
  if (!cfg_.trace_frames || trace == 0) return;
  tracer_.hop(trace, Hop::kXdp, t, start, end);
}

void ObsHub::host_rx(std::uint64_t trace, TrackId t, sim::SimTime start,
                     sim::SimTime end) {
  if (!cfg_.trace_frames || trace == 0) return;
  tracer_.hop(trace, Hop::kHostRx, t, start, end);
}

void ObsHub::fault_event(std::uint64_t trace, TrackId t, sim::SimTime at,
                         const char* cause) {
  if (!cfg_.trace_frames || trace == 0) return;
  fault_name_.assign("fault:");
  fault_name_.append(cause);
  tracer_.add(t, fault_name_, at, at, trace);
}

void ObsHub::delivered(std::uint64_t trace, TrackId t, sim::SimTime created_at,
                       sim::SimTime at) {
  if (trace == 0) return;  // untraced frame, or trace_frames off
  deliveries_.push_back(Delivery{trace, t, created_at, at});
}

std::optional<Delivery> ObsHub::delivery_of(std::uint64_t trace) const {
  for (const Delivery& d : deliveries_) {
    if (d.trace_id == trace) return d;
  }
  return std::nullopt;
}

std::vector<HopRow> ObsHub::breakdown(std::uint64_t trace) const {
  std::vector<HopRow> rows;
  for (const Span& s : tracer_.spans_for(trace)) {
    rows.push_back({tracer_.span_name(s.name), tracer_.track_name(s.track),
                    s.start, s.end});
  }
  return rows;
}

}  // namespace steelnet::obs
