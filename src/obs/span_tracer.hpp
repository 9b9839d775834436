// steelnet::obs -- deterministic sim-time span tracing.
//
// A span is a named [start, end] interval on a track (a node, a port
// queue, a link). Spans optionally carry a trace id -- the per-frame
// causality key stamped into net::Frame::trace_id when a host first sends
// a frame -- so one frame's journey decomposes into per-hop spans that
// tile its end-to-end latency exactly.
//
// A span is 32 bytes and trivially copyable: track and name are interned
// ids, resolved to text only by the exporters (track_name(), span_name()).
// The six Hop names are pre-interned at ids 0-5, so recording a hop is
// one vector push with no string work. Open hops (queueing, whose end is
// not known at entry) wait in a flat open-addressing table that is only
// ever probed, never iterated, so span order cannot depend on hash order.
//
// Everything is keyed off sim::SimTime: identical seeds produce identical
// span streams, and recording a span never schedules events or draws
// randomness, so enabling tracing cannot perturb a simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace steelnet::obs {

using TrackId = std::uint32_t;
constexpr TrackId kInvalidTrack = static_cast<TrackId>(-1);
/// An interned span name.
using NameId = std::uint32_t;

/// The per-frame hop kinds instrumented through the stack. Each hop's
/// name is pre-interned at NameId `static_cast<NameId>(hop)`.
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
  NameId name = 0;
  std::uint64_t trace_id = 0;  ///< 0: not bound to a frame
  sim::SimTime start;
  sim::SimTime end;

  [[nodiscard]] sim::SimTime duration() const { return end - start; }
};
static_assert(sizeof(Span) == 32);
static_assert(std::is_trivially_copyable_v<Span>);

namespace detail {

/// Strings to dense ids, first come first numbered. Lookups take a
/// string_view and build no string.
class Interner {
 public:
  std::uint32_t intern(std::string_view s);
  [[nodiscard]] const std::string& at(std::uint32_t id) const {
    return names_.at(id);
  }
  [[nodiscard]] std::size_t size() const { return names_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>>
      index_;
  std::vector<std::string> names_;  ///< by id
};

/// Open hops keyed by (trace id, hop, track): linear probing with
/// tombstones over a power-of-two array. Rehashing sizes by the live
/// count only, so tombstone churn rehashes in place at the same capacity
/// (into a kept spare array), and the table allocates only when it
/// doubles. The table is probed, never iterated.
class OpenHopTable {
 public:
  /// Records `at` for the key; a re-open overwrites.
  void open(std::uint64_t trace_id, Hop hop, TrackId track, sim::SimTime at);
  /// Removes the key and returns its open time; nullopt if absent.
  std::optional<sim::SimTime> take(std::uint64_t trace_id, Hop hop,
                                   TrackId track);

 private:
  enum class State : std::uint8_t { kEmpty, kLive, kTomb };
  struct Slot {
    std::uint64_t trace_id = 0;
    TrackId track = 0;
    Hop hop = Hop::kHostTx;
    State state = State::kEmpty;
    sim::SimTime at;
  };

  /// Index of the key's live slot, or of the slot an insert should use
  /// (the first tombstone on its probe run, else the empty slot ending
  /// it). The table must hold at least one empty slot.
  std::size_t probe(std::uint64_t trace_id, Hop hop, TrackId track) const;
  void rehash();

  std::vector<Slot> slots_;
  std::vector<Slot> spare_;
  std::size_t live_ = 0;
  std::size_t tombs_ = 0;
};

}  // namespace detail

class SpanTracer {
 public:
  SpanTracer();

  /// Interns `name` into a TrackId (stable for the tracer's lifetime).
  TrackId track(std::string_view name);
  [[nodiscard]] const std::string& track_name(TrackId id) const {
    return tracks_.at(id);
  }
  [[nodiscard]] std::size_t track_count() const { return tracks_.size(); }

  /// The text of an interned span name; ids 0-5 are the Hop names.
  [[nodiscard]] const std::string& span_name(NameId id) const {
    return names_.at(id);
  }
  [[nodiscard]] std::size_t name_count() const { return names_.size(); }

  /// Records a complete span (both endpoints known up front), interning
  /// its name.
  void add(TrackId track, std::string_view name, sim::SimTime start,
           sim::SimTime end, std::uint64_t trace_id = 0);

  // --- frame hops ---------------------------------------------------------
  /// Complete hop span for trace `trace_id`.
  void hop(std::uint64_t trace_id, Hop hop, TrackId track, sim::SimTime start,
           sim::SimTime end);
  /// Open/close form for hops whose end is not known at entry (queueing).
  /// A re-open overwrites the open time; a close without a matching open
  /// is counted, not recorded.
  void hop_open(std::uint64_t trace_id, Hop hop, TrackId track,
                sim::SimTime at) {
    open_hops_.open(trace_id, hop, track, at);
  }
  void hop_close(std::uint64_t trace_id, Hop hop, TrackId track,
                 sim::SimTime at);
  /// Drops the open hop without recording a span (frame was discarded).
  void hop_abort(std::uint64_t trace_id, Hop hop, TrackId track) {
    open_hops_.take(trace_id, hop, track);
  }

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
  void record(TrackId track, NameId name, sim::SimTime start,
              sim::SimTime end, std::uint64_t trace_id);

  detail::Interner tracks_;
  detail::Interner names_;
  std::vector<Span> spans_;
  detail::OpenHopTable open_hops_;
  std::uint64_t last_trace_id_ = 0;
  std::uint64_t unmatched_closes_ = 0;
};

}  // namespace steelnet::obs
