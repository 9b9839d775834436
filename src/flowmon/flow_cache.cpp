#include "flowmon/flow_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace steelnet::flowmon {

namespace {

/// Index slots for `requested` flows: the next power of two >= 8. At most
/// 2^32 slots, so the 3/4 load cap fits a 32-bit slab index below the
/// empty marker (0xffffffff) and the home slot fits the 32-bit hash.
std::size_t table_size(std::size_t requested) {
  constexpr std::size_t kMaxSlots = std::size_t{1} << 32;
  std::size_t p = 8;
  while (p < requested && p < kMaxSlots) p <<= 1;
  if (p < requested) {
    throw std::invalid_argument(
        "FlowCache: capacity " + std::to_string(requested) +
        " exceeds 2^32 slots; its load cap would not fit a 32-bit index");
  }
  return p;
}

}  // namespace

FlowCache::FlowCache(const FlowCacheConfig& cfg)
    : cfg_(cfg),
      index_(table_size(cfg.capacity)),
      load_cap_(index_.size() / 4 * 3),
      wheel_(cfg.wheel_tick) {
  slab_.reserve(load_cap_);
}

std::size_t FlowCache::probe(const FlowKey& key, std::uint64_t h) const {
  const auto h32 = static_cast<std::uint32_t>(h);
  std::size_t i = h32 & mask();
  for (;;) {
    const Entry& e = index_[i];
    if (e.rec == kEmpty ||
        (e.hash32 == h32 && slab_[e.rec].record.key == key)) {
      return i;
    }
    ++stats_.probes;
    i = (i + 1) & mask();
  }
}

FlowRecord* FlowCache::find(const FlowKey& key) {
  ++stats_.lookups;
  const Entry& e = index_[probe(key, key.hash())];
  if (e.rec == kEmpty) return nullptr;
  ++stats_.hits;
  return &slab_[e.rec].record;
}

const FlowRecord* FlowCache::find(const FlowKey& key) const {
  return const_cast<FlowCache*>(this)->find(key);
}

sim::SimTime FlowCache::deadline_of(const FlowRecord& r) const {
  const sim::SimTime idle = r.last_seen + cfg_.idle_timeout;
  const sim::SimTime active = r.last_export + cfg_.active_timeout;
  return idle < active ? idle : active;
}

FlowRecord* FlowCache::record(const net::Frame& frame, sim::SimTime now) {
  const FlowKey key = FlowKey::of(frame);
  const std::uint64_t h = key.hash();
  ++stats_.lookups;
  Entry& e = index_[probe(key, h)];
  if (e.rec == kEmpty) {
    if (size_ >= load_cap_) {
      ++stats_.dropped_full;
      return nullptr;
    }
    ++stats_.inserts;
    ++size_;
    std::uint32_t idx = free_head_;
    if (idx != kEmpty) {
      free_head_ = slab_[idx].timer;
      slab_[idx].record = FlowRecord{};
    } else {
      idx = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    }
    e = Entry{idx, static_cast<std::uint32_t>(h)};
    FlowRecord& r = slab_[idx].record;
    r.key = key;
    r.first_seen = now;
    r.last_export = now;
    r.last_seen = now;
    // One deadline per flow; activity is picked up lazily at fire time.
    slab_[idx].timer = wheel_.arm(deadline_of(r), idx);
  } else {
    ++stats_.hits;
    FlowRecord& r = slab_[e.rec].record;
    const sim::SimTime iat = now - r.last_seen;
    if (iat < r.min_iat) r.min_iat = iat;
    if (iat > r.max_iat) r.max_iat = iat;
    r.iat_sum_ns += iat.nanos();
    if (r.packets >= 2) {  // a previous gap exists
      const std::int64_t d = iat.nanos() - r.prev_iat.nanos();
      r.iat_jitter_sum_ns += d < 0 ? -d : d;
    }
    r.prev_iat = iat;
  }
  FlowRecord& r = slab_[e.rec].record;
  ++r.packets;
  r.bytes += frame.payload.size();
  r.wire_bytes += frame.wire_bytes();
  r.last_seen = now;
  return &r;
}

bool FlowCache::erase(const FlowKey& key) {
  const std::size_t pos = probe(key, key.hash());
  const std::uint32_t idx = index_[pos].rec;
  if (idx == kEmpty) return false;
  ++stats_.erased;
  --size_;
  Rec& rec = slab_[idx];
  if (rec.timer != sim::TimerWheel::kInvalidTimer) wheel_.cancel(rec.timer);
  rec.timer = free_head_;
  free_head_ = idx;
  // Backward-shift compaction: close the hole by moving every following
  // cluster entry whose home slot lies at or before the hole. Only index
  // entries move; records stay put.
  std::size_t hole = pos;
  std::size_t j = (pos + 1) & mask();
  while (index_[j].rec != kEmpty) {
    const std::size_t h = index_[j].hash32 & mask();
    // Does j's home precede the hole in circular probe order?
    const bool wraps = j < hole;
    const bool movable = wraps ? (h <= hole && h > j) : (h <= hole || h > j);
    if (movable) {
      index_[hole] = index_[j];
      hole = j;
    }
    j = (j + 1) & mask();
  }
  index_[hole].rec = kEmpty;
  return true;
}

void FlowCache::sort_candidates() {
  // Canonical export order: (first_seen, FlowKey) -- independent of slot
  // layout and of the order in which the wheel fired the timers.
  std::sort(candidates_.begin(), candidates_.end(),
            [this](const auto& a, const auto& b) {
              const FlowRecord& ra = slab_[a.first].record;
              const FlowRecord& rb = slab_[b.first].record;
              if (!(ra.first_seen == rb.first_seen)) {
                return ra.first_seen < rb.first_seen;
              }
              return ra.key < rb.key;
            });
}

void FlowCache::emit_candidates(sim::SimTime now, const ExportFn& fn) {
  sort_candidates();
  // Records never move, so evicting one leaves the later candidates'
  // slab indices valid.
  for (const auto& [idx, reason] : candidates_) {
    Rec& rec = slab_[idx];
    fn(rec.record, reason);
    if (reason == EndReason::kIdleTimeout) {
      const FlowKey key = rec.record.key;
      erase(key);
    } else {
      rec.record.last_export = now;
      // Every candidate's timer fired this sweep; arm the next deadline.
      rec.timer = wheel_.arm(deadline_of(rec.record), idx);
    }
  }
}

std::size_t FlowCache::sweep(sim::SimTime now, const ExportFn& fn) {
  candidates_.clear();
  due_.clear();
  wheel_.advance(now, due_);
  for (const std::uint64_t cookie : due_) {
    // Erase cancels a record's timer, so every cookie names a live record.
    const auto i = static_cast<std::uint32_t>(cookie);
    Rec& rec = slab_[i];
    rec.timer = sim::TimerWheel::kInvalidTimer;
    ++stats_.wheel_fires;
    const FlowRecord& r = rec.record;
    if (now - r.last_seen >= cfg_.idle_timeout) {
      candidates_.emplace_back(i, EndReason::kIdleTimeout);
    } else if (now - r.last_export >= cfg_.active_timeout) {
      candidates_.emplace_back(i, EndReason::kActiveTimeout);
    } else {
      // Fired early (tick rounding) or the flow saw traffic since the
      // deadline was computed: re-arm at the true deadline.
      rec.timer = wheel_.arm(deadline_of(r), i);
      ++stats_.wheel_rearms;
    }
  }
  const std::size_t n = candidates_.size();
  emit_candidates(now, fn);
  return n;
}

std::size_t FlowCache::flush(const ExportFn& fn) {
  candidates_.clear();
  for (Entry& e : index_) {
    if (e.rec == kEmpty) continue;
    candidates_.emplace_back(e.rec, EndReason::kForcedEnd);
    e.rec = kEmpty;
  }
  // Emit in canonical order, then drop everything wholesale (no
  // per-record compaction needed when the table empties).
  sort_candidates();
  for (const auto& [idx, reason] : candidates_) fn(slab_[idx].record, reason);
  const std::size_t n = candidates_.size();
  stats_.erased += size_;
  size_ = 0;
  slab_.clear();
  free_head_ = kEmpty;
  wheel_.clear();
  return n;
}

}  // namespace steelnet::flowmon
