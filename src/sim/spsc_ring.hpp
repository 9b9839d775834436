// steelnet::sim -- a bounded lock-free single-producer/single-consumer
// ring.
//
// The cross-shard counterpart of RingQueue: where RingQueue is the
// single-threaded growable FIFO of the egress path, SpscRing is the
// fixed-capacity wait-free channel buffer between two worker threads of
// the sharded kernel. One thread pushes, one thread pops; the only shared
// state is two cache-line-separated atomic cursors with acquire/release
// pairing, so a popped element is always fully visible to the consumer.
//
// Capacity is fixed (rounded up to a power of two) because a growable
// buffer cannot be resized lock-free; the sharded kernel treats a full
// ring as backpressure (the producer drains its own inbound rings and
// retries), never as loss.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace steelnet::sim {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity = 1024)
      : buf_(round_up_pow2(capacity)), mask_(buf_.size() - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// Producer side: moves `value` in, or returns false when the ring is
  /// full. The fullness check runs *before* the move, so a false return
  /// leaves `value` intact -- which is what lets the sharded kernel's
  /// backpressure loop retry the same message.
  bool try_push(T&& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == buf_.size()) {
      return false;
    }
    buf_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (tail_.load(std::memory_order_acquire) == head) return false;
    out = std::move(buf_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Batched consumer side: moves up to `max` elements into `out` and
  /// returns the count (0 when empty). One acquire load of the producer
  /// cursor and one release store of the consumer cursor cover the whole
  /// batch -- the amortization the sharded kernel's drain loop relies on,
  /// where per-message try_pop pays a cross-core cursor round-trip each.
  /// A partial batch (count < max) means the ring was empty at the
  /// snapshot; elements pushed during the batch surface on the next call,
  /// exactly as they would across two try_pop calls.
  std::size_t try_pop_n(T* out, std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t avail =
        tail_.load(std::memory_order_acquire) - head;
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(avail, max));
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::move(buf_[(head + i) & mask_]);
    }
    if (n != 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

 private:
  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p < 2 ? 2 : p;
  }

  std::vector<T> buf_;
  std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer cursor
};

}  // namespace steelnet::sim
