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

namespace detail {

std::uint32_t Interner::intern(std::string_view s) {
  const auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(s);
  index_.emplace(names_.back(), id);
  return id;
}

namespace {

constexpr std::size_t kMinSlots = 16;

std::size_t hop_hash(std::uint64_t trace_id, Hop hop, TrackId track) {
  std::uint64_t h = trace_id * 0x9e3779b97f4a7c15ULL;
  h ^= ((std::uint64_t{track} << 8) | static_cast<std::uint8_t>(hop)) *
       0xc2b2ae3d27d4eb4fULL;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

}  // namespace

std::size_t OpenHopTable::probe(std::uint64_t trace_id, Hop hop,
                                TrackId track) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t insert_at = slots_.size();
  for (std::size_t i = hop_hash(trace_id, hop, track) & mask;;
       i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.state == State::kEmpty) {
      return insert_at != slots_.size() ? insert_at : i;
    }
    if (s.state == State::kTomb) {
      if (insert_at == slots_.size()) insert_at = i;
    } else if (s.trace_id == trace_id && s.hop == hop && s.track == track) {
      return i;
    }
  }
}

void OpenHopTable::rehash() {
  std::size_t cap = std::max(slots_.size(), kMinSlots);
  while ((live_ + 1) * 2 > cap) cap *= 2;
  spare_.assign(cap, Slot{});
  std::swap(slots_, spare_);
  live_ = 0;
  tombs_ = 0;
  for (const Slot& s : spare_) {
    if (s.state != State::kLive) continue;
    slots_[probe(s.trace_id, s.hop, s.track)] = s;
    ++live_;
  }
}

void OpenHopTable::open(std::uint64_t trace_id, Hop hop, TrackId track,
                        sim::SimTime at) {
  // Keep at least a quarter of the slots empty so every probe run ends.
  if ((live_ + tombs_ + 1) * 4 > slots_.size() * 3) rehash();
  Slot& s = slots_[probe(trace_id, hop, track)];
  if (s.state == State::kLive) {
    s.at = at;
    return;
  }
  if (s.state == State::kTomb) --tombs_;
  s = Slot{trace_id, track, hop, State::kLive, at};
  ++live_;
}

std::optional<sim::SimTime> OpenHopTable::take(std::uint64_t trace_id,
                                               Hop hop, TrackId track) {
  if (live_ == 0) return std::nullopt;
  Slot& s = slots_[probe(trace_id, hop, track)];
  if (s.state != State::kLive) return std::nullopt;
  s.state = State::kTomb;
  --live_;
  ++tombs_;
  return s.at;
}

}  // namespace detail

SpanTracer::SpanTracer() {
  for (const Hop hop : {Hop::kHostTx, Hop::kQueue, Hop::kLink, Hop::kProc,
                        Hop::kXdp, Hop::kHostRx}) {
    names_.intern(to_string(hop));
  }
}

TrackId SpanTracer::track(std::string_view name) {
  return tracks_.intern(name);
}

void SpanTracer::record(TrackId track, NameId name, sim::SimTime start,
                        sim::SimTime end, std::uint64_t trace_id) {
  if (end < start) {
    throw std::logic_error("SpanTracer: span \"" + span_name(name) +
                           "\" ends before it starts");
  }
  spans_.push_back(Span{track, name, trace_id, start, end});
}

void SpanTracer::add(TrackId track, std::string_view name, sim::SimTime start,
                     sim::SimTime end, std::uint64_t trace_id) {
  record(track, names_.intern(name), start, end, trace_id);
}

void SpanTracer::hop(std::uint64_t trace_id, Hop hop, TrackId track,
                     sim::SimTime start, sim::SimTime end) {
  record(track, static_cast<NameId>(hop), start, end, trace_id);
}

void SpanTracer::hop_close(std::uint64_t trace_id, Hop hop, TrackId track,
                           sim::SimTime at) {
  const auto start = open_hops_.take(trace_id, hop, track);
  if (!start) {
    ++unmatched_closes_;
    return;
  }
  record(track, static_cast<NameId>(hop), *start, at, trace_id);
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
