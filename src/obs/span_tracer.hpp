// steelnet::obs -- deterministic sim-time span tracing.
//
// A span is a named [start, end] interval on a track (a node, a port
// queue, a link). Spans optionally carry a trace id -- the per-frame
// causality key stamped into net::Frame::trace_id when a host first sends
// a frame -- so one frame's journey decomposes into per-hop spans that
// tile its end-to-end latency exactly.
//
// Everything is keyed off sim::SimTime: identical seeds produce identical
// span streams, and recording a span never schedules events or draws
// randomness, so enabling tracing cannot perturb a simulation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace steelnet::obs {

using TrackId = std::uint32_t;
constexpr TrackId kInvalidTrack = static_cast<TrackId>(-1);

/// The per-frame hop kinds instrumented through the stack.
enum class Hop : std::uint8_t {
  kHostTx,  ///< application send() -> NIC queue (host-path tx latency)
  kQueue,   ///< egress enqueue -> transmission start (queueing delay)
  kLink,    ///< first bit on the wire -> delivery at the peer
  kProc,    ///< switch ingress -> egress enqueue (lookup / pipeline)
  kXdp,     ///< NIC program entry -> verdict applied
  kHostRx,  ///< NIC -> application delivery (host-path rx latency)
};

[[nodiscard]] const char* to_string(Hop hop);

struct Span {
  TrackId track = kInvalidTrack;
  std::string name;
  std::uint64_t trace_id = 0;  ///< 0: not bound to a frame
  sim::SimTime start;
  sim::SimTime end;

  [[nodiscard]] sim::SimTime duration() const { return end - start; }
};

class SpanTracer {
 public:
  /// Interns `name` into a TrackId (stable for the tracer's lifetime).
  TrackId track(std::string_view name);
  [[nodiscard]] const std::string& track_name(TrackId id) const;
  [[nodiscard]] std::size_t track_count() const { return track_names_.size(); }

  /// Records a complete span (both endpoints known up front).
  void add(TrackId track, std::string name, sim::SimTime start,
           sim::SimTime end, std::uint64_t trace_id = 0);

  // --- frame hops ---------------------------------------------------------
  /// Complete hop span for trace `trace_id`.
  void hop(std::uint64_t trace_id, Hop hop, TrackId track, sim::SimTime start,
           sim::SimTime end);
  /// Open/close form for hops whose end is not known at entry (queueing).
  /// A close without a matching open is counted, not recorded.
  void hop_open(std::uint64_t trace_id, Hop hop, TrackId track,
                sim::SimTime at);
  void hop_close(std::uint64_t trace_id, Hop hop, TrackId track,
                 sim::SimTime at);
  /// Drops the open hop without recording a span (frame was discarded).
  void hop_abort(std::uint64_t trace_id, Hop hop, TrackId track);

  /// Deterministic frame trace ids, starting at 1.
  std::uint64_t next_trace_id() { return ++last_trace_id_; }
  [[nodiscard]] std::uint64_t trace_ids_issued() const {
    return last_trace_id_;
  }

  /// All spans in recording order (deterministic execution order).
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Spans of one frame, stably sorted by start time.
  [[nodiscard]] std::vector<Span> spans_for(std::uint64_t trace_id) const;
  /// hop_close calls that found no matching hop_open.
  [[nodiscard]] std::uint64_t unmatched_closes() const {
    return unmatched_closes_;
  }

 private:
  using HopKey = std::tuple<std::uint64_t, std::uint8_t, TrackId>;

  std::vector<std::string> track_names_;
  std::unordered_map<std::string, TrackId> track_index_;
  std::vector<Span> spans_;
  std::map<HopKey, sim::SimTime> open_hops_;
  std::uint64_t last_trace_id_ = 0;
  std::uint64_t unmatched_closes_ = 0;
};

}  // namespace steelnet::obs
