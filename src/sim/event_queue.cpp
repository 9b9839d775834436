#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace steelnet::sim {

EventQueue::EventQueue()
    : gens_(std::make_shared<detail::EventGenerations>()) {}

void EventQueue::heap_push(Entry e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void EventQueue::release_slot(std::uint32_t slot) {
  slots_[slot].reset();
  free_slots_.push_back(slot);
}

EventHandle EventQueue::schedule(SimTime at, Callback cb) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    gens_->gen.push_back(0);
    // Keep the free list able to hold every slot, so release_slot never
    // allocates once the slot table has reached its steady size.
    if (free_slots_.capacity() < slots_.capacity()) {
      free_slots_.reserve(slots_.capacity());
    }
  }
  const std::uint32_t gen = gens_->gen[slot];
  slots_[slot] = std::move(cb);
  heap_push(Entry{at, seq_++, slot, gen});
  return EventHandle{gens_, slot, gen};
}

void EventQueue::drop_dead_front() {
  while (!heap_.empty() && entry_dead(heap_.front())) {
    release_slot(heap_.front().slot);
    ++reclaimed_cancelled_;
    heap_pop();
  }
}

bool EventQueue::pop_next(SimTime& time_out, Callback& cb_out) {
  drop_dead_front();
  if (heap_.empty()) return false;
  const Entry top = heap_.front();
  time_out = top.time;
  cb_out = std::move(slots_[top.slot]);
  // The event is fired the moment it is handed to the caller: outstanding
  // handles must stop reporting pending() and cancel() becomes a no-op.
  ++gens_->gen[top.slot];
  release_slot(top.slot);
  heap_pop();
  return true;
}

SimTime EventQueue::next_time() {
  drop_dead_front();
  return heap_.empty() ? SimTime::max() : heap_.front().time;
}

bool EventQueue::empty() {
  drop_dead_front();
  return heap_.empty();
}

void EventQueue::clear() {
  // Bump the generation of every live entry so outstanding handles do not
  // keep reporting pending() against an empty queue; already-cancelled
  // entries just get reclaimed.
  for (const Entry& e : heap_) {
    if (entry_dead(e)) {
      ++reclaimed_cancelled_;
    } else {
      ++gens_->gen[e.slot];
    }
    release_slot(e.slot);
  }
  heap_.clear();
}

}  // namespace steelnet::sim
