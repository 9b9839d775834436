#include "sim/timer_wheel.hpp"

#include <cassert>

namespace steelnet::sim {

TimerWheel::TimerWheel(SimTime tick, SimTime origin)
    : tick_(tick), origin_(origin) {
  assert(tick_.nanos() > 0 && "TimerWheel tick must be positive");
}

void TimerWheel::append(std::uint16_t slot, std::uint32_t id) {
  Node& n = nodes_[id];
  n.slot = slot;
  n.prev = slots_[slot].tail;
  n.next = kNil;
  if (slots_[slot].tail != kNil) {
    nodes_[slots_[slot].tail].next = id;
  } else {
    slots_[slot].head = id;
  }
  slots_[slot].tail = id;
}

void TimerWheel::unlink(std::uint32_t id) {
  Node& n = nodes_[id];
  SlotList& list = slots_[n.slot];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    list.head = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    list.tail = n.prev;
  }
}

std::uint32_t TimerWheel::take(std::uint16_t slot) {
  const std::uint32_t head = slots_[slot].head;
  slots_[slot].head = slots_[slot].tail = kNil;
  return head;
}

void TimerWheel::fire(std::uint32_t id, std::vector<std::uint32_t>& due) {
  due.push_back(id);
  nodes_[id].slot = kUnarmed;
  --armed_;
}

void TimerWheel::place(std::uint32_t id, std::uint64_t tick) {
  // Pick the level whose span covers the remaining delta. Deadlines past
  // the wheel horizon park in the top level and re-cascade as time
  // catches up.
  const std::uint64_t delta = tick - cur_;
  std::size_t level = kLevels - 1;
  std::uint64_t slot_tick = cur_ + (kHorizon - 1);  // horizon clamp
  for (std::size_t l = 0; l < kLevels; ++l) {
    if (delta < (std::uint64_t{1} << (kSlotBits * (l + 1)))) {
      level = l;
      slot_tick = tick;
      break;
    }
  }
  const std::size_t slot = (slot_tick >> (kSlotBits * level)) & (kSlots - 1);
  append(static_cast<std::uint16_t>(level * kSlots + slot), id);
}

void TimerWheel::arm(std::uint32_t id, SimTime deadline) {
  if (id >= nodes_.size()) {
    nodes_.resize(std::size_t{id} + 1);
  } else if (nodes_[id].slot != kUnarmed) {
    unlink(id);
    --armed_;
  }
  nodes_[id].deadline = deadline.nanos();
  const std::uint64_t t = tick_of(deadline.nanos());
  if (t <= cur_) {
    append(kCarry, id);  // the wheel is past its tick: checked by deadline
  } else {
    place(id, t);
  }
  ++armed_;
}

void TimerWheel::cancel(std::uint32_t id) {
  if (id >= nodes_.size() || nodes_[id].slot == kUnarmed) return;
  unlink(id);
  nodes_[id].slot = kUnarmed;
  --armed_;
}

void TimerWheel::advance(SimTime now, std::vector<std::uint32_t>& due) {
  const std::int64_t now_ns = now.nanos();
  const std::uint64_t target = tick_of(now_ns);
  if (armed_ == 0) {
    // Nothing to fire or cascade: jump straight to the target tick.
    if (target > cur_) cur_ = target;
    return;
  }
  // Carried timers belong to ticks <= cur_: a later target makes every one
  // of them due; within the same tick each waits for its own deadline.
  for (std::uint32_t id = take(kCarry); id != kNil;) {
    const std::uint32_t next = nodes_[id].next;
    if (target > cur_ || nodes_[id].deadline <= now_ns) {
      fire(id, due);
    } else {
      append(kCarry, id);
    }
    id = next;
  }
  const auto width = static_cast<std::uint64_t>(tick_.nanos());
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
        for (std::uint32_t id = take(static_cast<std::uint16_t>(
                 level * kSlots + slot));
             id != kNil;) {
          const std::uint32_t next = nodes_[id].next;
          place(id, tick_of(nodes_[id].deadline));
          ++cascades_;
          id = next;
        }
      }
    }
    // Every timer of an earlier tick is due; in the target tick only
    // those with deadline <= now, the rest wait in the carry list.
    const bool last = cur_ == target;
    const std::uint64_t next_tick_ns = (cur_ + 1) * width;
    for (std::uint32_t id = take(static_cast<std::uint16_t>(
             cur_ & (kSlots - 1)));
         id != kNil;) {
      const Node& n = nodes_[id];
      const std::uint32_t next = n.next;
      const std::int64_t d = n.deadline;
      if (d > origin_.nanos() &&
          static_cast<std::uint64_t>(d - origin_.nanos()) >= next_tick_ns) {
        // Horizon-clamped entry still in the future: re-place.
        place(id, tick_of(d));
        ++cascades_;
      } else if (!last || d <= now_ns) {
        fire(id, due);
      } else {
        append(kCarry, id);
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
  for (SlotList& list : slots_) list.head = list.tail = kNil;
  nodes_.clear();
  armed_ = 0;
  cur_ = 0;
  cascades_ = 0;
}

}  // namespace steelnet::sim
