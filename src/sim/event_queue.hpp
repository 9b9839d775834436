// steelnet::sim -- the pending-event set of the discrete-event kernel.
//
// Allocation-free after warm-up: callbacks are built in a slab of
// generation-counted slots recycled through a free list, fired where they
// were built and destroyed there; cancellation handles are {slot,
// generation} pairs (no per-event control block); and a 4-ary min-heap
// orders 24-byte {time, seq, slot, generation} entries. The slab grows in
// fixed-size chunks that never move, so a callback may schedule any
// number of events while it runs from its slot. The only allocations are
// new chunks and amortized growth of the free list, the generation table
// and the heap vector -- steady-state cyclic traffic schedules and fires
// without touching the heap allocator.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inplace_function.hpp"
#include "sim/time.hpp"

namespace steelnet::sim {

namespace detail {
/// Generation table shared between a queue and its outstanding handles
/// (one per *queue*, not per event). Handles only ever read/bump
/// generations, so they stay safe after the queue -- and its callback
/// slab -- are gone. The count is a plain integer: a queue and its
/// handles are used by one thread at a time (see EventHandle).
struct EventGenerations {
  std::vector<std::uint32_t> gen;
  /// Successful handle cancellations (first cancel of a live event).
  std::uint64_t cancelled_total = 0;
  /// The queue's own reference plus one per live handle.
  std::uint64_t refs = 1;
};

void free_generations(EventGenerations* gens);

/// Drops one reference to `gens`, deleting the table with the last one.
/// The delete stays out of line: the common case is a decrement.
inline void release(EventGenerations* gens) {
  if (gens != nullptr && --gens->refs == 0) free_generations(gens);
}
}  // namespace detail

/// Opaque handle used to cancel a scheduled event.
///
/// Cancellation is lazy: the event's slot generation is bumped, the heap
/// entry stays in place and is reclaimed when popped. Scheduling stays
/// O(log n), cancel/pending are O(1), and no heap surgery ever happens.
///
/// Not thread-safe, like the queue it came from: a handle and its queue
/// are touched only by the thread that owns them, and any handoff between
/// threads (thread start, join) orders every access, so the shared
/// generation table is counted without atomics.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other) noexcept
      : gens_(other.gens_), slot_(other.slot_), gen_(other.gen_) {
    if (gens_ != nullptr) ++gens_->refs;
  }
  EventHandle(EventHandle&& other) noexcept
      : gens_(std::exchange(other.gens_, nullptr)),
        slot_(other.slot_),
        gen_(other.gen_) {}
  /// Copy and move assignment in one: `other` is a copy or a moved-from
  /// handle, and the old target is released with it.
  EventHandle& operator=(EventHandle other) noexcept {
    std::swap(gens_, other.gens_);
    std::swap(slot_, other.slot_);
    std::swap(gen_, other.gen_);
    return *this;
  }
  ~EventHandle() { detail::release(gens_); }

  /// True if the handle refers to an event that has not fired or been
  /// cancelled yet.
  [[nodiscard]] bool pending() const {
    return gens_ != nullptr && gens_->gen[slot_] == gen_;
  }

  void cancel() {
    // The generation guard makes double-cancel and cancel-after-fire
    // no-ops, and keeps a stale handle from killing a recycled slot's
    // next occupant.
    if (pending()) {
      ++gens_->gen[slot_];
      ++gens_->cancelled_total;
    }
  }

 private:
  friend class EventQueue;
  EventHandle(detail::EventGenerations* gens, std::uint32_t slot,
              std::uint32_t gen) noexcept
      : gens_(gens), slot_(slot), gen_(gen) {
    ++gens_->refs;
  }

  detail::EventGenerations* gens_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Min-heap of (time, insertion-sequence) ordered callbacks.
///
/// Two events scheduled for the same instant fire in insertion order, which
/// makes simulations fully deterministic.
class EventQueue {
 public:
  /// Callback slots per slab chunk. Chunks are allocated whole and never
  /// move or shrink.
  static constexpr std::size_t kSlotsPerChunk = 64;

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `f` at absolute time `at`, constructing the closure
  /// directly in its slab slot. Returns a cancellable handle.
  template <typename F>
  EventHandle schedule(SimTime at, F&& f) {
    const std::uint32_t slot = acquire_slot();
    if constexpr (std::is_nothrow_constructible_v<std::decay_t<F>, F&&>) {
      slot_at(slot).emplace(std::forward<F>(f));
    } else {
      try {
        slot_at(slot).emplace(std::forward<F>(f));
      } catch (...) {
        free_slots_.push_back(slot);
        throw;
      }
    }
    const std::uint32_t gen = gens_->gen[slot];
    heap_push(Entry{at, seq_++, slot, gen});
    return EventHandle{gens_, slot, gen};
  }

  /// Fires the earliest live event if it is due at or before `deadline`:
  /// writes its time to `now`, then calls its callback in its slab slot
  /// and releases the slot, also when the callback throws. The event
  /// stops being pending() before the call. Returns false when no live
  /// event is due (after reclaiming any cancelled events at the front).
  bool fire_next(SimTime deadline, SimTime& now);

  /// Earliest live event time, or SimTime::max() when empty.
  [[nodiscard]] SimTime next_time();

  [[nodiscard]] bool empty();

  /// Number of *live* (not-yet-fired, not-cancelled) events. Cancelled
  /// entries awaiting lazy reclamation are excluded.
  [[nodiscard]] std::size_t size() const { return live_size(); }
  [[nodiscard]] std::size_t live_size() const {
    return heap_.size() - dead_in_heap();
  }
  /// Heap entries including cancelled-but-unpopped ones.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

  [[nodiscard]] std::uint64_t scheduled_total() const { return seq_; }
  /// Events cancelled through a handle over the queue's lifetime.
  [[nodiscard]] std::uint64_t cancelled_total() const {
    return gens_->cancelled_total;
  }
  /// Callback slots ever handed out. Stays flat once the working set is
  /// warm -- the recycling assertion the kernel benches pin.
  [[nodiscard]] std::size_t slot_capacity() const { return slots_used_; }

 private:
  using Callback = InplaceFunction<kEventCallbackCapacity>;

  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Cancelled entries still sitting in the heap.
  [[nodiscard]] std::size_t dead_in_heap() const {
    return static_cast<std::size_t>(gens_->cancelled_total -
                                    reclaimed_cancelled_);
  }

  [[nodiscard]] bool entry_dead(const Entry& e) const {
    return gens_->gen[e.slot] != e.gen;
  }

  Callback& slot_at(std::uint32_t slot) {
    return chunks_[slot / kSlotsPerChunk][slot % kSlotsPerChunk];
  }

  std::uint32_t acquire_slot() {
    if (free_slots_.empty()) return new_slot();
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  /// Hands out a never-used slot, adding a chunk when the last is full.
  std::uint32_t new_slot();
  /// Destroys the slot's callback and returns the slot to the free list.
  void release_slot(std::uint32_t slot);

  void heap_push(Entry e);
  /// Removes the front entry.
  void heap_pop();
  void drop_dead_front();

  std::vector<Entry> heap_;  ///< 4-ary min-heap on (time, seq)
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::size_t slots_used_ = 0;
  std::vector<std::uint32_t> free_slots_;
  detail::EventGenerations* gens_;
  std::uint64_t seq_ = 0;
  std::uint64_t reclaimed_cancelled_ = 0;
};

}  // namespace steelnet::sim
