#include "sim/event_queue.hpp"

#include <algorithm>

namespace steelnet::sim {

namespace {

/// Children per heap node. Four children halve the tree depth of a binary
/// heap, and a node's four 24-byte children span at most two cache lines.
constexpr std::size_t kArity = 4;

/// Strict total order: `seq` is unique, so equal times fire in
/// scheduling order.
template <typename E>
bool earlier(const E& a, const E& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace

void detail::free_generations(EventGenerations* gens) { delete gens; }

EventQueue::EventQueue() : gens_(new detail::EventGenerations) {}

EventQueue::~EventQueue() {
  // Closures may own handles to this queue; destroy them while the
  // generation table is still referenced here.
  chunks_.clear();
  detail::release(gens_);
}

void EventQueue::heap_push(Entry e) {
  // Sift the hole up from the new leaf, moving parents down into it.
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void EventQueue::heap_pop() {
  // Sift the hole down from the root, then drop the last leaf into it.
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
}

std::uint32_t EventQueue::new_slot() {
  const auto slot = static_cast<std::uint32_t>(slots_used_);
  if (slots_used_ == chunks_.size() * kSlotsPerChunk) {
    chunks_.push_back(std::make_unique<Callback[]>(kSlotsPerChunk));
    const std::size_t slots = chunks_.size() * kSlotsPerChunk;
    gens_->gen.resize(slots, 0);
    // Keep the free list able to hold every slot, so release_slot never
    // allocates once the slab has reached its steady size.
    if (free_slots_.capacity() < slots) {
      free_slots_.reserve(std::max(slots, 2 * free_slots_.capacity()));
    }
  }
  ++slots_used_;
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  slot_at(slot).reset();
  free_slots_.push_back(slot);
}

void EventQueue::drop_dead_front() {
  while (!heap_.empty() && entry_dead(heap_.front())) {
    release_slot(heap_.front().slot);
    ++reclaimed_cancelled_;
    heap_pop();
  }
}

bool EventQueue::fire_next(SimTime deadline, SimTime& now) {
  drop_dead_front();
  if (heap_.empty() || heap_.front().time > deadline) return false;
  const Entry top = heap_.front();
  heap_pop();
  // The event fires the moment it leaves the heap: outstanding handles
  // -- the callback's own included -- stop reporting pending() and
  // cancel() becomes a no-op.
  ++gens_->gen[top.slot];
  now = top.time;
  // The slot stays off the free list until the callback returns or
  // throws, and chunks never move, so the closure stays put however many
  // events it schedules.
  struct Release {
    EventQueue& queue;
    std::uint32_t slot;
    ~Release() { queue.release_slot(slot); }
  } release{*this, top.slot};
  slot_at(top.slot)();
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

}  // namespace steelnet::sim
