// steelnet::flowmon -- the metering flow cache.
//
// An open-addressing (linear probing) hash table of per-flow counters,
// after the find-or-create flow caches of software IPFIX meters
// (ipfix-wrt/Vermont lineage): the per-packet hot path is one hash, a
// short probe run, and a handful of counter updates. The table is split
// in two: a probe index of 8-byte {record, hash} entries, which is all a
// probe step or a compaction move touches, and a slab of records that
// never move -- a record keeps its slab index for the flow's whole life.
// Both sit on transparent huge pages where the OS offers them (advice
// only; nothing depends on it).
//
// Expiry (active / idle timeout) runs through sweep(), driven by a
// hierarchical timing wheel (sim::TimerWheel) holding one deadline per
// flow, keyed by the record's slab index: O(1) amortized per expiry, so a
// plant tier can hold millions of live flows without scans. The wheel
// fires a timer exactly when its deadline is <= now, so a sweep reads
// only records that are due -- or that saw traffic since their deadline
// was computed, which are lazily re-armed. A sweep therefore emits
// exactly the flows a full-table walk would find due at `now`, in the
// canonical (first_seen, FlowKey) order, at any sweep spacing. The
// flowmon tests keep the walk as the wheel's oracle. The wheel hands its
// due timers over slot by slot, each slot in arm order, which at a meter's
// steady state is already nearly canonical: the sweep's sort is a natural
// merge sort that merges the wheel's few ascending arm-order runs rather
// than sorting from scratch.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "flowmon/flow_key.hpp"
#include "sim/time.hpp"
#include "sim/timer_wheel.hpp"

namespace steelnet::flowmon {

/// Why a record was exported (values follow IPFIX flowEndReason).
enum class EndReason : std::uint8_t {
  kIdleTimeout = 0x01,   ///< flow went silent; record evicted
  kActiveTimeout = 0x02, ///< long-lived flow checkpoint; flow still live
  kEndOfFlow = 0x03,     ///< protocol-level end (unused by the L2 meter)
  kForcedEnd = 0x04,     ///< meter flushed (end of observation)
  kLackOfResources = 0x05,
};

/// Per-flow counters and cadence statistics, as measured at the tap.
struct FlowRecord {
  FlowKey key;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;       ///< payload octets (what the app pays for)
  std::uint64_t wire_bytes = 0;  ///< L2 octets incl. headers + padding
  sim::SimTime first_seen;
  sim::SimTime last_seen;
  /// Time of the last export of this record (active-timeout bookkeeping);
  /// equals first_seen until the first export.
  sim::SimTime last_export;

  // Inter-arrival cadence: min/mean over the packets-1 gaps, and jitter as
  // the mean |successive difference| of gaps (RFC 3550 flavour) over the
  // packets-2 gap pairs.
  sim::SimTime min_iat = sim::SimTime::max();
  std::int64_t iat_sum_ns = 0;
  std::int64_t iat_jitter_sum_ns = 0;
  sim::SimTime prev_iat;  ///< last gap; meaningful once packets >= 2

  /// min_iat with the unsampled SimTime::max() sentinel mapped to zero:
  /// a flow with fewer than two packets has no inter-arrival gap, and the
  /// sentinel must never leak into exports or taxonomy stats.
  [[nodiscard]] sim::SimTime min_iat_or_zero() const {
    return packets < 2 ? sim::SimTime::zero() : min_iat;
  }
  [[nodiscard]] sim::SimTime mean_iat() const {
    if (packets < 2) return sim::SimTime::zero();
    return sim::SimTime{iat_sum_ns / static_cast<std::int64_t>(packets - 1)};
  }
  [[nodiscard]] sim::SimTime mean_jitter() const {
    if (packets < 3) return sim::SimTime::zero();
    return sim::SimTime{iat_jitter_sum_ns /
                        static_cast<std::int64_t>(packets - 2)};
  }
  [[nodiscard]] std::size_t mean_packet_bytes() const {
    return packets == 0 ? 0 : static_cast<std::size_t>(bytes / packets);
  }
};

struct FlowCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t erased = 0;
  std::uint64_t probes = 0;         ///< total probe steps beyond the home slot
  std::uint64_t dropped_full = 0;   ///< new flows refused: table at load cap
  std::uint64_t wheel_fires = 0;    ///< wheel timers that fired (all due)
  /// Fires that found the flow seen since its deadline was computed, so
  /// not yet expired; each re-arms at the moved deadline (lazy re-arm).
  std::uint64_t wheel_rearms = 0;
};

/// The expiry engine: the timer wheel is the only one.
enum class ExpiryEngine : std::uint8_t { kWheel };

struct FlowCacheConfig {
  std::size_t capacity = 4096;
  sim::SimTime idle_timeout = sim::milliseconds(500);
  sim::SimTime active_timeout = sim::seconds(1);
  /// Unread. It exists only because perfbench's plant_bench assigns it;
  /// ROADMAP item 7(b) stops that, and item 2 then removes it.
  ExpiryEngine engine = ExpiryEngine::kWheel;
  /// Wheel granularity. Expiry is exact at any sweep spacing; the tick
  /// sets only how many wheel slots a sweep walks (one per tick crossed).
  sim::SimTime wheel_tick = sim::milliseconds(100);
};

/// Fixed-capacity open-addressing flow table. Capacity rounds up to a
/// power of two; the load factor is capped at 3/4 so probe runs stay
/// short. Deletion uses backward-shift compaction (no tombstones) of the
/// index entries only, which keeps lookup cost stable under the meter's
/// continuous expire/insert churn; records and their wheel timers stay
/// where they are. Index, slab, free stack and wheel nodes are sized in
/// the constructor, so churn at a steady live count allocates nothing.
class FlowCache {
 public:
  /// Throws std::invalid_argument, before allocating anything, if the
  /// load cap of the rounded-up capacity does not fit a 32-bit index.
  explicit FlowCache(const FlowCacheConfig& cfg);

  /// Hot path: account one frame to its flow, creating the record if the
  /// flow is new. Returns nullptr (and counts dropped_full) if the flow is
  /// new but the table is at its load cap -- existing flows keep metering.
  FlowRecord* record(const net::Frame& frame, sim::SimTime now);

  [[nodiscard]] FlowRecord* find(const FlowKey& key);
  [[nodiscard]] const FlowRecord* find(const FlowKey& key) const;

  /// Removes a flow; returns true if it existed.
  bool erase(const FlowKey& key);

  using ExportFn = std::function<void(const FlowRecord&, EndReason)>;

  /// Expires flows due at `now`: emits kIdleTimeout records (then evicts
  /// them) and kActiveTimeout checkpoints (flow stays live, last_export
  /// advances) in canonical (first_seen, FlowKey) order. Returns records
  /// emitted.
  std::size_t sweep(sim::SimTime now, const ExportFn& fn);

  /// Emits every live flow as kForcedEnd in canonical order and empties
  /// the cache. Returns records emitted.
  std::size_t flush(const ExportFn& fn);

  /// Visits every live record in slot order (a deterministic function of
  /// the insert/erase history). `fn` must not mutate the table.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : index_) {
      if (e.rec != kEmpty) fn(slab_[e.rec]);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return index_.size(); }
  /// Max live flows before new ones are refused (3/4 of capacity).
  [[nodiscard]] std::size_t load_cap() const { return load_cap_; }
  [[nodiscard]] const FlowCacheStats& stats() const { return stats_; }
  [[nodiscard]] const FlowCacheConfig& config() const { return cfg_; }

 private:
  static constexpr std::uint32_t kEmpty = 0xffff'ffffu;

  /// One probe-index slot: the slab index of its record (kEmpty if the
  /// slot is free) and the low 32 bits of the key's hash, which give the
  /// home slot and screen out most key compares.
  struct Entry {
    std::uint32_t rec = kEmpty;
    std::uint32_t hash32 = 0;
  };
  /// A record due at a sweep: its first_seen (the sort key) is copied in,
  /// so the canonical sort reads records only to break ties.
  struct Candidate {
    std::int64_t first_seen_ns = 0;
    std::uint32_t rec = kEmpty;
    EndReason reason = EndReason::kIdleTimeout;
  };
  static_assert(sizeof(Entry) == 8);
  static_assert(sizeof(FlowRecord) <= 104);

  [[nodiscard]] std::size_t mask() const { return index_.size() - 1; }
  /// Position in index_ of the entry holding `key` (hash `h`), or of the
  /// first free slot in its probe run.
  [[nodiscard]] std::size_t probe(const FlowKey& key, std::uint64_t h) const;
  /// Earliest of the record's idle and active deadlines.
  [[nodiscard]] sim::SimTime deadline_of(const FlowRecord& r) const;
  /// Removes index entry `pos` (its timer already disarmed) and frees
  /// its record's slab index.
  void remove_at(std::size_t pos);
  [[nodiscard]] bool canonical_less(const Candidate& a,
                                    const Candidate& b) const;
  /// Sorts candidates_ into canonical order.
  void sort_candidates();
  /// Merges the adjacent ascending runs [lo, mid) and [mid, hi) of
  /// candidates_ in place.
  void merge_runs(std::size_t lo, std::size_t mid, std::size_t hi);
  void emit_candidates(sim::SimTime now, const ExportFn& fn);

  FlowCacheConfig cfg_;
  std::vector<Entry> index_;
  std::size_t load_cap_ = 0;
  /// Records by slab index; reserved to load_cap_, so it never
  /// reallocates and a page is first touched when a record lands on it.
  std::vector<FlowRecord> slab_;
  std::vector<std::uint32_t> free_;  ///< LIFO stack of freed slab indices
  std::size_t size_ = 0;
  mutable FlowCacheStats stats_;
  sim::TimerWheel wheel_;  ///< one timer per live record, id = slab index
  // Sweep scratch, reused across calls to keep steady state allocation-free.
  std::vector<std::uint32_t> due_;
  std::vector<Candidate> candidates_;
  /// Where each ascending run of candidates_ ends; sized by the run count.
  std::vector<std::uint32_t> run_ends_;
  /// The shorter run of one merge; grows to the longest such copy yet.
  std::vector<Candidate> merge_scratch_;
};

}  // namespace steelnet::flowmon
