#include "sim/timer_wheel.hpp"

#include <cassert>

namespace steelnet::sim {

TimerWheel::TimerWheel(SimTime tick, SimTime origin)
    : tick_(tick), origin_(origin) {
  assert(tick_.nanos() > 0 && "TimerWheel tick must be positive");
}

std::uint32_t TimerWheel::alloc_node() {
  if (free_head_ != kInvalidTimer) {
    const std::uint32_t id = free_head_;
    free_head_ = nodes_[id].next;
    return id;
  }
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void TimerWheel::append(std::uint16_t slot, std::uint32_t id) {
  Node& n = nodes_[id];
  n.slot = slot;
  n.prev = slots_[slot].tail;
  n.next = kInvalidTimer;
  if (slots_[slot].tail != kInvalidTimer) {
    nodes_[slots_[slot].tail].next = id;
  } else {
    slots_[slot].head = id;
  }
  slots_[slot].tail = id;
}

void TimerWheel::unlink(std::uint32_t id) {
  Node& n = nodes_[id];
  SlotList& list = slots_[n.slot];
  if (n.prev != kInvalidTimer) {
    nodes_[n.prev].next = n.next;
  } else {
    list.head = n.next;
  }
  if (n.next != kInvalidTimer) {
    nodes_[n.next].prev = n.prev;
  } else {
    list.tail = n.prev;
  }
  n.prev = n.next = kInvalidTimer;
}

void TimerWheel::place(std::uint32_t id) {
  Node& n = nodes_[id];
  // The node's tick is strictly ahead of cur_; pick the level whose span
  // covers the remaining delta. Deadlines past the wheel horizon park in
  // the top level and re-cascade as time catches up.
  const std::uint64_t delta = n.tick - cur_;
  std::size_t level = kLevels - 1;
  std::uint64_t slot_tick = cur_ + (kHorizon - 1);  // horizon clamp
  for (std::size_t l = 0; l < kLevels; ++l) {
    if (delta < (std::uint64_t{1} << (kSlotBits * (l + 1)))) {
      level = l;
      slot_tick = n.tick;
      break;
    }
  }
  const std::size_t slot = (slot_tick >> (kSlotBits * level)) & (kSlots - 1);
  append(static_cast<std::uint16_t>(level * kSlots + slot), id);
}

TimerWheel::TimerId TimerWheel::arm(SimTime deadline, std::uint64_t cookie) {
  std::uint64_t t = deadline <= origin_ ? 0 : tick_of(deadline);
  if (t <= cur_) t = cur_ + 1;  // never fire in the tick being processed
  const std::uint32_t id = alloc_node();
  Node& n = nodes_[id];
  n.tick = t;
  n.cookie = cookie;
  n.live = true;
  place(id);
  ++armed_;
  return id;
}

void TimerWheel::cancel(TimerId id) {
  assert(id < nodes_.size() && nodes_[id].live && "cancel of dead timer");
  unlink(id);
  nodes_[id].live = false;
  nodes_[id].next = free_head_;
  free_head_ = id;
  --armed_;
}

void TimerWheel::advance(SimTime now, std::vector<std::uint64_t>& due) {
  const std::uint64_t target = now <= origin_ ? 0 : tick_of(now);
  if (armed_ == 0) {
    // Nothing to fire or cascade: jump straight to the target tick.
    if (target > cur_) cur_ = target;
    return;
  }
  while (cur_ < target) {
    ++cur_;
    // Crossing a level boundary: pull the covering slot of each higher
    // level down before draining level 0, top level first so entries
    // trickle through intermediate levels in one pass.
    if ((cur_ & (kSlots - 1)) == 0) {
      std::size_t top = 1;
      while (top + 1 < kLevels &&
             ((cur_ >> (kSlotBits * top)) & (kSlots - 1)) == 0) {
        ++top;
      }
      for (std::size_t level = top; level >= 1; --level) {
        const std::size_t slot =
            (cur_ >> (kSlotBits * level)) & (kSlots - 1);
        SlotList& list = slots_[level * kSlots + slot];
        std::uint32_t id = list.head;
        list.head = list.tail = kInvalidTimer;
        while (id != kInvalidTimer) {
          const std::uint32_t next = nodes_[id].next;
          nodes_[id].prev = nodes_[id].next = kInvalidTimer;
          place(id);
          ++cascades_;
          id = next;
        }
      }
    }
    SlotList& list = slots_[cur_ & (kSlots - 1)];
    std::uint32_t id = list.head;
    list.head = list.tail = kInvalidTimer;
    while (id != kInvalidTimer) {
      Node& n = nodes_[id];
      const std::uint32_t next = n.next;
      n.prev = n.next = kInvalidTimer;
      if (n.tick > cur_) {
        // Horizon-clamped entry still in the future: re-place.
        place(id);
        ++cascades_;
      } else {
        due.push_back(n.cookie);
        n.live = false;
        n.next = free_head_;
        free_head_ = id;
        --armed_;
      }
      id = next;
    }
    if (armed_ == 0) {
      cur_ = target;
      break;
    }
  }
}

void TimerWheel::clear() {
  for (SlotList& list : slots_) list.head = list.tail = kInvalidTimer;
  nodes_.clear();
  free_head_ = kInvalidTimer;
  armed_ = 0;
  cur_ = 0;
  cascades_ = 0;
}

}  // namespace steelnet::sim
