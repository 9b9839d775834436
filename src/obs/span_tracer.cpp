#include "obs/span_tracer.hpp"

#include <algorithm>
#include <stdexcept>

namespace steelnet::obs {

const char* to_string(Hop hop) {
  switch (hop) {
    case Hop::kHostTx:
      return "host-tx";
    case Hop::kQueue:
      return "queue";
    case Hop::kLink:
      return "link";
    case Hop::kProc:
      return "proc";
    case Hop::kXdp:
      return "xdp";
    case Hop::kHostRx:
      return "host-rx";
  }
  return "?";
}

TrackId SpanTracer::track(std::string_view name) {
  const auto it = track_index_.find(std::string(name));
  if (it != track_index_.end()) return it->second;
  const auto id = static_cast<TrackId>(track_names_.size());
  track_names_.emplace_back(name);
  track_index_.emplace(track_names_.back(), id);
  return id;
}

const std::string& SpanTracer::track_name(TrackId id) const {
  return track_names_.at(id);
}

void SpanTracer::add(TrackId track, std::string name, sim::SimTime start,
                     sim::SimTime end, std::uint64_t trace_id) {
  if (end < start) {
    throw std::logic_error("SpanTracer::add: span \"" + name +
                           "\" ends before it starts");
  }
  spans_.push_back(Span{track, std::move(name), trace_id, start, end});
}

void SpanTracer::hop(std::uint64_t trace_id, Hop hop, TrackId track,
                     sim::SimTime start, sim::SimTime end) {
  add(track, to_string(hop), start, end, trace_id);
}

void SpanTracer::hop_open(std::uint64_t trace_id, Hop hop, TrackId track,
                          sim::SimTime at) {
  open_hops_[{trace_id, static_cast<std::uint8_t>(hop), track}] = at;
}

void SpanTracer::hop_close(std::uint64_t trace_id, Hop hop, TrackId track,
                           sim::SimTime at) {
  const HopKey key{trace_id, static_cast<std::uint8_t>(hop), track};
  const auto it = open_hops_.find(key);
  if (it == open_hops_.end()) {
    ++unmatched_closes_;
    return;
  }
  const sim::SimTime start = it->second;
  open_hops_.erase(it);
  add(track, to_string(hop), start, at, trace_id);
}

void SpanTracer::hop_abort(std::uint64_t trace_id, Hop hop, TrackId track) {
  open_hops_.erase({trace_id, static_cast<std::uint8_t>(hop), track});
}

std::vector<Span> SpanTracer::spans_for(std::uint64_t trace_id) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.trace_id == trace_id) out.push_back(s);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Span& a, const Span& b) { return a.start < b.start; });
  return out;
}

}  // namespace steelnet::obs
