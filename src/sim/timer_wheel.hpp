// steelnet::sim -- a hierarchical timing wheel.
//
// The classic kernel-style timer structure: four levels of 64 slots, each
// level covering 64x the span of the one below, with timers cascading down
// as time approaches their deadline. arm and cancel are O(1); advance() is
// amortized O(1) per fired timer plus O(ticks crossed), so a cache holding
// millions of deadlines pays per *expiry*, never per live entry -- the
// property flowmon's plant-scale FlowCache needs (after the
// expire_*_entries idiom of ipfix-wrt's LInEx flow sets, indexed instead
// of scanned). A timer's cookie is fixed when it is armed, so it must name
// something that does not move while the timer is live (FlowCache uses
// the record's slab index).
//
// Determinism: the wheel is a plain data structure (no clock, no RNG).
// Timers fire in tick order; within one tick, in arm order (FIFO). A
// deadline is mapped to the tick floor(deadline / tick_width), so a timer
// can fire up to one tick *early* but never late -- callers re-check the
// real deadline and re-arm (lazy evaluation), which is what keeps
// wheel-driven expiry byte-identical to a full scan at the same sweep
// times (see FlowCache).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace steelnet::sim {

class TimerWheel {
 public:
  using TimerId = std::uint32_t;
  static constexpr TimerId kInvalidTimer = 0xffff'ffffu;

  /// `tick` is the wheel granularity (> 0). Deadlines are bucketed into
  /// ticks of this width starting at `origin`.
  explicit TimerWheel(SimTime tick, SimTime origin = SimTime::zero());

  /// Arms a timer for `deadline` carrying `cookie`. Deadlines at or
  /// before the current tick are clamped to the next tick (a timer never
  /// fires inside advance() of the tick it was armed in). O(1).
  TimerId arm(SimTime deadline, std::uint64_t cookie);

  /// Disarms a live timer. The id is invalid afterwards (and may be
  /// recycled by a later arm). O(1).
  void cancel(TimerId id);

  /// Advances the wheel to `now`, appending the cookie of every timer
  /// whose tick has been reached to `due` (tick order, FIFO within a
  /// tick). Fired timers are freed; their ids become invalid.
  void advance(SimTime now, std::vector<std::uint64_t>& due);

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

  struct Node {
    std::uint64_t tick = 0;  ///< absolute due tick
    std::uint64_t cookie = 0;
    std::uint32_t next = kInvalidTimer;
    std::uint32_t prev = kInvalidTimer;
    std::uint16_t slot = 0;  ///< level * kSlots + slot while armed
    bool live = false;
  };

  struct SlotList {
    std::uint32_t head = kInvalidTimer;
    std::uint32_t tail = kInvalidTimer;
  };

  [[nodiscard]] std::uint64_t tick_of(SimTime t) const {
    return static_cast<std::uint64_t>((t - origin_).nanos() / tick_.nanos());
  }
  std::uint32_t alloc_node();
  void place(std::uint32_t id);
  void unlink(std::uint32_t id);
  void append(std::uint16_t slot, std::uint32_t id);

  SimTime tick_;
  SimTime origin_;
  std::uint64_t cur_ = 0;  ///< last processed tick
  std::size_t armed_ = 0;
  std::uint64_t cascades_ = 0;
  SlotList slots_[kLevels * kSlots];
  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kInvalidTimer;
};

}  // namespace steelnet::sim
