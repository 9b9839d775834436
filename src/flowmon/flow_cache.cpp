#include "flowmon/flow_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#if defined(__linux__)
#include <sys/mman.h>
#endif

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

/// Asks for transparent huge pages on the 2 MiB-aligned interior of
/// [p, p + bytes): the index and slab are probed at random, and 4 KiB
/// pages make nearly every probe a TLB miss. Advice only; the result is
/// ignored. Must run before the range is first touched.
void advise_huge_pages([[maybe_unused]] const void* p,
                       [[maybe_unused]] std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kHuge = std::uintptr_t{1} << 21;
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t begin = (at + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t end = (at + bytes) & ~(kHuge - 1);
  if (begin < end) {
    (void)madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
  }
#endif
}

}  // namespace

FlowCache::FlowCache(const FlowCacheConfig& cfg)
    : cfg_(cfg), wheel_(cfg.wheel_tick) {
  const std::size_t slots = table_size(cfg.capacity);
  load_cap_ = slots / 4 * 3;
  index_.reserve(slots);
  slab_.reserve(load_cap_);
  advise_huge_pages(index_.data(), slots * sizeof(Entry));
  advise_huge_pages(slab_.data(), load_cap_ * sizeof(FlowRecord));
  index_.resize(slots);  // first touch of the index
  // One free index and one timer node per record at most: neither grows
  // while the cache meters.
  free_.reserve(load_cap_);
  wheel_.reserve(load_cap_);
}

std::size_t FlowCache::probe(const FlowKey& key, std::uint64_t h) const {
  const auto h32 = static_cast<std::uint32_t>(h);
  std::size_t i = h32 & mask();
  for (;;) {
    const Entry& e = index_[i];
    if (e.rec == kEmpty ||
        (e.hash32 == h32 && slab_[e.rec].key == key)) {
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
  return &slab_[e.rec];
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
    auto idx = static_cast<std::uint32_t>(slab_.size());
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
      slab_[idx] = FlowRecord{};
    } else {
      slab_.emplace_back();
    }
    e = Entry{idx, static_cast<std::uint32_t>(h)};
    FlowRecord& r = slab_[idx];
    r.key = key;
    r.first_seen = now;
    r.last_export = now;
    r.last_seen = now;
    // One deadline per flow; activity is picked up lazily at fire time.
    wheel_.arm(idx, deadline_of(r));
  } else {
    ++stats_.hits;
    FlowRecord& r = slab_[e.rec];
    const sim::SimTime iat = now - r.last_seen;
    if (iat < r.min_iat) r.min_iat = iat;
    r.iat_sum_ns += iat.nanos();
    if (r.packets >= 2) {  // a previous gap exists
      const std::int64_t d = iat.nanos() - r.prev_iat.nanos();
      r.iat_jitter_sum_ns += d < 0 ? -d : d;
    }
    r.prev_iat = iat;
  }
  FlowRecord& r = slab_[e.rec];
  ++r.packets;
  r.bytes += frame.payload.size();
  r.wire_bytes += frame.wire_bytes();
  r.last_seen = now;
  return &r;
}

bool FlowCache::erase(const FlowKey& key) {
  const std::size_t pos = probe(key, key.hash());
  if (index_[pos].rec == kEmpty) return false;
  wheel_.cancel(index_[pos].rec);
  remove_at(pos);
  return true;
}

void FlowCache::remove_at(std::size_t pos) {
  ++stats_.erased;
  --size_;
  free_.push_back(index_[pos].rec);
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
}

bool FlowCache::canonical_less(const Candidate& a, const Candidate& b) const {
  // Canonical export order: (first_seen, FlowKey) -- independent of slot
  // layout and of the order in which the wheel fired the timers. Only a
  // first_seen tie reads the two records.
  if (a.first_seen_ns != b.first_seen_ns) {
    return a.first_seen_ns < b.first_seen_ns;
  }
  return slab_[a.rec].key < slab_[b.rec].key;
}

void FlowCache::sort_candidates() {
  // A natural merge sort: the wheel hands candidates over in a few
  // ascending runs, so find the runs, then merge adjacent pairs of runs
  // until one is left -- O(n log runs), and one pass over a sorted input.
  const Candidate* const c = candidates_.data();
  const std::size_t n = candidates_.size();
  run_ends_.clear();
  for (std::size_t i = 1; i < n; ++i) {
    if (canonical_less(c[i], c[i - 1])) {
      run_ends_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (run_ends_.empty()) return;
  run_ends_.push_back(static_cast<std::uint32_t>(n));
  while (run_ends_.size() > 1) {
    std::size_t lo = 0;
    std::size_t kept = 0;
    for (std::size_t k = 0; k + 1 < run_ends_.size(); k += 2) {
      merge_runs(lo, run_ends_[k], run_ends_[k + 1]);
      lo = run_ends_[k + 1];
      run_ends_[kept++] = run_ends_[k + 1];
    }
    if (run_ends_.size() % 2 != 0) run_ends_[kept++] = run_ends_.back();
    run_ends_.resize(kept);
  }
}

void FlowCache::merge_runs(std::size_t lo, std::size_t mid, std::size_t hi) {
  Candidate* const c = candidates_.data();
  const auto less = [this](const Candidate& a, const Candidate& b) {
    return canonical_less(a, b);
  };
  // Left-run elements below the right run's first, and right-run
  // elements above the left run's last, are already in place.
  lo = static_cast<std::size_t>(
      std::upper_bound(c + lo, c + mid, c[mid], less) - c);
  hi = static_cast<std::size_t>(
      std::lower_bound(c + mid, c + hi, c[mid - 1], less) - c);
  // Copy the shorter run out and merge into the gap it leaves: forward
  // for a left copy, backward for a right one.
  if (mid - lo <= hi - mid) {
    merge_scratch_.assign(c + lo, c + mid);
    const Candidate* a = merge_scratch_.data();
    const Candidate* const a_end = a + merge_scratch_.size();
    const Candidate* b = c + mid;
    const Candidate* const b_end = c + hi;
    Candidate* out = c + lo;
    while (a != a_end && b != b_end) *out++ = less(*b, *a) ? *b++ : *a++;
    std::copy(a, a_end, out);  // what is left of b is in place
  } else {
    merge_scratch_.assign(c + mid, c + hi);
    const Candidate* const b_begin = merge_scratch_.data();
    const Candidate* b = b_begin + merge_scratch_.size();
    const Candidate* a = c + mid;
    const Candidate* const a_begin = c + lo;
    Candidate* out = c + hi;
    while (a != a_begin && b != b_begin) {
      *--out = less(b[-1], a[-1]) ? *--a : *--b;
    }
    std::copy_backward(b_begin, b, out);  // what is left of a is in place
  }
}

void FlowCache::emit_candidates(sim::SimTime now, const ExportFn& fn) {
  sort_candidates();
  // Records never move, so evicting one leaves the later candidates'
  // slab indices valid. The walk is in time order, so it reads the slab
  // (and, for evictions, the index) at random: prefetch the record 8
  // ahead and, 4 ahead, the home slot its eviction will probe.
  const std::size_t n = candidates_.size();
  for (std::size_t k = 0; k < n; ++k) {
    if (k + 8 < n) {
      // A record spans up to three cache lines; the export reads all.
      const auto* ahead =
          reinterpret_cast<const char*>(&slab_[candidates_[k + 8].rec]);
      __builtin_prefetch(ahead);
      __builtin_prefetch(ahead + 64);
      __builtin_prefetch(ahead + sizeof(FlowRecord) - 1);
    }
    if (k + 4 < n && candidates_[k + 4].reason == EndReason::kIdleTimeout) {
      const FlowKey& key = slab_[candidates_[k + 4].rec].key;
      __builtin_prefetch(&index_[key.hash() & mask()]);
    }
    const Candidate& c = candidates_[k];
    FlowRecord& r = slab_[c.rec];
    fn(r, c.reason);
    if (c.reason == EndReason::kIdleTimeout) {
      // The timer fired this sweep, so there is nothing to cancel.
      remove_at(probe(r.key, r.key.hash()));
    } else {
      r.last_export = now;
      wheel_.arm(c.rec, deadline_of(r));
    }
  }
}

std::size_t FlowCache::sweep(sim::SimTime now, const ExportFn& fn) {
  candidates_.clear();
  due_.clear();
  wheel_.advance(now, due_);
  // Every fired timer is due: the flow expires unless it saw traffic
  // since its deadline was computed, in which case it re-arms at the
  // moved deadline.
  const std::size_t n = due_.size();
  stats_.wheel_fires += n;
  for (std::size_t k = 0; k < n; ++k) {
    if (k + 8 < n) {
      const FlowRecord& ahead = slab_[due_[k + 8]];
      __builtin_prefetch(&ahead.first_seen);
      __builtin_prefetch(&ahead.last_export);
    }
    const std::uint32_t i = due_[k];
    const FlowRecord& r = slab_[i];
    if (now - r.last_seen >= cfg_.idle_timeout) {
      candidates_.push_back(
          {r.first_seen.nanos(), i, EndReason::kIdleTimeout});
    } else if (now - r.last_export >= cfg_.active_timeout) {
      candidates_.push_back(
          {r.first_seen.nanos(), i, EndReason::kActiveTimeout});
    } else {
      wheel_.arm(i, deadline_of(r));
      ++stats_.wheel_rearms;
    }
  }
  const std::size_t emitted = candidates_.size();
  emit_candidates(now, fn);
  return emitted;
}

std::size_t FlowCache::flush(const ExportFn& fn) {
  candidates_.clear();
  for (Entry& e : index_) {
    if (e.rec == kEmpty) continue;
    candidates_.push_back(
        {slab_[e.rec].first_seen.nanos(), e.rec, EndReason::kForcedEnd});
    e.rec = kEmpty;
  }
  // Emit in canonical order, then drop everything wholesale (no
  // per-record compaction needed when the table empties).
  sort_candidates();
  for (const Candidate& c : candidates_) fn(slab_[c.rec], c.reason);
  const std::size_t n = candidates_.size();
  stats_.erased += size_;
  size_ = 0;
  slab_.clear();
  free_.clear();
  wheel_.clear();
  return n;
}

}  // namespace steelnet::flowmon
