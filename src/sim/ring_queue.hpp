// steelnet::sim -- a growable circular FIFO.
//
// Replacement for std::deque in per-frame hot paths: libstdc++'s deque
// allocates/frees a block node roughly every ~512 bytes of throughput even
// at steady-state depth 0-1, which breaks the kernel's allocation-free
// guarantee. RingQueue keeps one contiguous power-of-two buffer that only
// grows (amortized doubling); steady-state push/pop never allocates.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace steelnet::sim {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    buf_[head_] = T{};  // release resources held by the popped element
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 8;

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace steelnet::sim
