#include "flowmon/flow_cache.hpp"

#include <algorithm>

namespace steelnet::flowmon {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlowCache::FlowCache(const FlowCacheConfig& cfg)
    : cfg_(cfg),
      slots_(round_up_pow2(cfg.capacity)),
      load_cap_(slots_.size() / 4 * 3),
      wheel_(cfg.wheel_tick) {}

std::size_t FlowCache::probe(const FlowKey& key) const {
  std::size_t i = home(key);
  while (slots_[i].used && !(slots_[i].record.key == key)) {
    ++stats_.probes;
    i = (i + 1) & mask();
  }
  return i;
}

FlowRecord* FlowCache::find(const FlowKey& key) {
  ++stats_.lookups;
  const std::size_t i = probe(key);
  if (!slots_[i].used) return nullptr;
  ++stats_.hits;
  return &slots_[i].record;
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
  ++stats_.lookups;
  const std::size_t i = probe(key);
  Slot& slot = slots_[i];
  if (!slot.used) {
    if (size_ >= load_cap_) {
      ++stats_.dropped_full;
      return nullptr;
    }
    ++stats_.inserts;
    ++size_;
    slot.used = true;
    slot.record = FlowRecord{};
    slot.record.key = key;
    slot.record.first_seen = now;
    slot.record.last_export = now;
    slot.record.last_seen = now;
    // One deadline per flow; activity is picked up lazily at fire time.
    slot.timer = wheel_.arm(deadline_of(slot.record), i);
  } else {
    ++stats_.hits;
    FlowRecord& r = slot.record;
    const sim::SimTime iat = now - r.last_seen;
    if (iat < r.min_iat) r.min_iat = iat;
    if (iat > r.max_iat) r.max_iat = iat;
    r.iat_sum_ns += iat.nanos();
    if (r.has_prev_iat) {
      const std::int64_t d = iat.nanos() - r.prev_iat.nanos();
      r.iat_jitter_sum_ns += d < 0 ? -d : d;
    }
    r.prev_iat = iat;
    r.has_prev_iat = true;
  }
  FlowRecord& r = slot.record;
  ++r.packets;
  r.bytes += frame.payload.size();
  r.wire_bytes += frame.wire_bytes();
  r.last_seen = now;
  return &r;
}

bool FlowCache::erase(const FlowKey& key) {
  std::size_t i = probe(key);
  if (!slots_[i].used) return false;
  ++stats_.erased;
  --size_;
  if (slots_[i].timer != sim::TimerWheel::kInvalidTimer) {
    wheel_.cancel(slots_[i].timer);
    slots_[i].timer = sim::TimerWheel::kInvalidTimer;
  }
  // Backward-shift compaction: close the hole by moving every following
  // cluster member whose home slot lies at or before the hole. Moved
  // records drag their wheel timer along via cookie rebinding.
  std::size_t hole = i;
  std::size_t j = (i + 1) & mask();
  while (slots_[j].used) {
    const std::size_t h = home(slots_[j].record.key);
    // Does j's home precede the hole in circular probe order?
    const bool wraps = j < hole;
    const bool movable = wraps ? (h <= hole && h > j) : (h <= hole || h > j);
    if (movable) {
      slots_[hole].record = slots_[j].record;
      slots_[hole].timer = slots_[j].timer;
      if (slots_[hole].timer != sim::TimerWheel::kInvalidTimer) {
        wheel_.set_cookie(slots_[hole].timer, hole);
      }
      slots_[j].timer = sim::TimerWheel::kInvalidTimer;
      hole = j;
    }
    j = (j + 1) & mask();
  }
  slots_[hole].used = false;
  slots_[hole].timer = sim::TimerWheel::kInvalidTimer;
  return true;
}

void FlowCache::sort_candidates() {
  // Canonical export order: (first_seen, FlowKey) -- independent of slot
  // layout and of the order in which the wheel fired the timers.
  std::sort(candidates_.begin(), candidates_.end(),
            [this](const auto& a, const auto& b) {
              const FlowRecord& ra = slots_[a.first].record;
              const FlowRecord& rb = slots_[b.first].record;
              if (!(ra.first_seen == rb.first_seen)) {
                return ra.first_seen < rb.first_seen;
              }
              return ra.key < rb.key;
            });
}

void FlowCache::emit_candidates(sim::SimTime now, const ExportFn& fn) {
  sort_candidates();
  evict_.clear();
  for (const auto& [idx, reason] : candidates_) {
    Slot& slot = slots_[idx];
    fn(slot.record, reason);
    if (reason == EndReason::kIdleTimeout) {
      evict_.push_back(slot.record.key);
    } else {
      slot.record.last_export = now;
      // Every candidate's timer fired this sweep; arm the next deadline.
      slot.timer = wheel_.arm(deadline_of(slot.record), idx);
    }
  }
  for (const FlowKey& key : evict_) erase(key);
}

std::size_t FlowCache::sweep(sim::SimTime now, const ExportFn& fn) {
  candidates_.clear();
  due_.clear();
  wheel_.advance(now, due_);
  for (const std::uint64_t cookie : due_) {
    const auto i = static_cast<std::uint32_t>(cookie);
    Slot& slot = slots_[i];
    if (!slot.used) continue;  // defensive: cancelled on erase
    slot.timer = sim::TimerWheel::kInvalidTimer;
    ++stats_.wheel_fires;
    const FlowRecord& r = slot.record;
    if (now - r.last_seen >= cfg_.idle_timeout) {
      candidates_.emplace_back(i, EndReason::kIdleTimeout);
    } else if (now - r.last_export >= cfg_.active_timeout) {
      candidates_.emplace_back(i, EndReason::kActiveTimeout);
    } else {
      // Fired early (tick rounding) or the flow saw traffic since the
      // deadline was computed: re-arm at the true deadline.
      slot.timer = wheel_.arm(deadline_of(r), i);
      ++stats_.wheel_rearms;
    }
  }
  const std::size_t n = candidates_.size();
  emit_candidates(now, fn);
  return n;
}

std::size_t FlowCache::flush(const ExportFn& fn) {
  candidates_.clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].used) {
      candidates_.emplace_back(static_cast<std::uint32_t>(i),
                               EndReason::kForcedEnd);
    }
  }
  // Emit in canonical order, then drop everything wholesale (no
  // per-record compaction needed when the table empties).
  sort_candidates();
  for (const auto& [idx, reason] : candidates_) {
    fn(slots_[idx].record, reason);
    slots_[idx].used = false;
    slots_[idx].timer = sim::TimerWheel::kInvalidTimer;
  }
  const std::size_t n = candidates_.size();
  stats_.erased += size_;
  size_ = 0;
  wheel_.clear();
  return n;
}

}  // namespace steelnet::flowmon
