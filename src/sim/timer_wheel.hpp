// steelnet::sim -- a hierarchical timing wheel.
//
// The classic kernel-style timer structure: four levels of 64 slots, each
// level covering 64x the span of the one below, with timers cascading down
// as time approaches their deadline. arm and cancel are O(1); advance() is
// amortized O(1) per fired timer plus O(ticks crossed), so a cache holding
// millions of deadlines pays per *expiry*, never per live entry -- the
// property flowmon's plant-scale FlowCache needs (after the
// expire_*_entries idiom of ipfix-wrt's LInEx flow sets, indexed instead
// of scanned).
//
// Timers are caller-indexed: a timer's id is a dense index the caller
// owns (FlowCache uses the record's slab index), and the wheel keeps one
// 24-byte node per id, so an id names at most one armed timer.
//
// Exactness: advance(now) fires exactly the timers whose deadline is <=
// now, never early, never late. Each node keeps its exact deadline. The
// wheel walks whole ticks; when it drains the slot of the tick `now`
// falls in, the timers not yet due move to a carry list, which the next
// advance() checks first. A timer armed for a deadline at or before the
// current tick goes straight to the carry list.
//
// Determinism: the wheel is a plain data structure (no clock, no RNG).
// An advance() appends the due carried timers first, then the timers of
// each newly reached tick, tick by tick, in arm order within a tick.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace steelnet::sim {

class TimerWheel {
 public:
  /// `tick` is the wheel granularity (> 0). Deadlines are bucketed into
  /// ticks of this width starting at `origin`.
  explicit TimerWheel(SimTime tick, SimTime origin = SimTime::zero());

  /// Reserves node storage for ids below `n`, so arming them never
  /// reallocates.
  void reserve(std::size_t n) { nodes_.reserve(n); }

  /// Arms timer `id` for `deadline`; an armed `id` is moved to the new
  /// deadline. A deadline at or before the current tick fires at the
  /// next advance() whose `now` reaches it. O(1).
  void arm(std::uint32_t id, SimTime deadline);

  /// Disarms timer `id`; a no-op if it is not armed. O(1).
  void cancel(std::uint32_t id);

  /// Advances the wheel to `now` (non-decreasing across calls) and
  /// appends the id of every armed timer with deadline <= now to `due`.
  /// Fired timers are disarmed.
  void advance(SimTime now, std::vector<std::uint32_t>& due);

  [[nodiscard]] std::size_t armed() const { return armed_; }
  [[nodiscard]] SimTime tick() const { return tick_; }
  /// Timers moved between levels by advance() -- a cost/behaviour probe.
  [[nodiscard]] std::uint64_t cascades() const { return cascades_; }

  /// Disarms everything and rewinds to the origin tick.
  void clear();

 private:
  static constexpr std::size_t kSlotBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;  // 64
  static constexpr std::size_t kLevels = 4;
  /// Ticks covered by the whole wheel; deadlines beyond re-cascade from
  /// the top level as time catches up.
  static constexpr std::uint64_t kHorizon = std::uint64_t{1}
                                            << (kSlotBits * kLevels);
  /// The list of armed timers whose tick the wheel has already reached.
  static constexpr std::uint16_t kCarry = kLevels * kSlots;
  static constexpr std::uint16_t kUnarmed = 0xffff;
  static constexpr std::uint32_t kNil = 0xffff'ffffu;

  struct Node {
    std::int64_t deadline = 0;  ///< exact, in ns
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
    std::uint16_t slot = kUnarmed;  ///< level * kSlots + slot, or kCarry
  };
  static_assert(sizeof(Node) == 24);

  struct SlotList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  [[nodiscard]] std::uint64_t tick_of(std::int64_t t) const {
    return t <= origin_.nanos()
               ? 0
               : static_cast<std::uint64_t>((t - origin_.nanos()) /
                                            tick_.nanos());
  }
  /// Files a timer whose tick is >= cur_ into the wheel level covering it.
  void place(std::uint32_t id, std::uint64_t tick);
  void unlink(std::uint32_t id);
  void append(std::uint16_t slot, std::uint32_t id);
  /// Detaches slot list `slot` and returns its head.
  std::uint32_t take(std::uint16_t slot);
  void fire(std::uint32_t id, std::vector<std::uint32_t>& due);

  SimTime tick_;
  SimTime origin_;
  std::uint64_t cur_ = 0;  ///< last processed tick
  std::size_t armed_ = 0;
  std::uint64_t cascades_ = 0;
  SlotList slots_[kLevels * kSlots + 1];  ///< the wheel, then the carry
  std::vector<Node> nodes_;
};

}  // namespace steelnet::sim
