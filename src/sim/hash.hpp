// steelnet::sim -- the one FNV-1a 64 of the stack.
//
// Every fingerprint (artifact bytes, scenario outcomes, RNG stream labels)
// is FNV-1a 64 over a byte string, or over the little-endian bytes of a
// run of u64 fields. Both live here so each recipe hashes identically.
// Fnv1aSink hashes text as it is rendered, so a fingerprint never needs
// the text held in memory.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace steelnet::sim {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// FNV-1a 64 over `bytes`, continuing from `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                              std::uint64_t h = kFnv1aOffset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// Folds the 8 little-endian bytes of `v` into the running FNV-1a `h`.
constexpr void fnv1a64_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnv1aPrime;
  }
}

/// A text sink whose bytes go into a running FNV-1a 64 instead of memory:
/// appended bytes collect in a fixed 64 KiB buffer that is folded into the
/// hash whenever it fills. digest() equals fnv1a64() of everything
/// appended, however it was split into calls.
class Fnv1aSink {
 public:
  void append(std::string_view bytes) {
    if (bytes.size() >= buf_.size()) {  // too long to buffer: hash in place
      flush();
      h_ = fnv1a64(bytes, h_);
      return;
    }
    if (bytes.size() > buf_.size() - len_) flush();
    std::copy(bytes.begin(), bytes.end(), buf_.begin() + len_);
    len_ += bytes.size();
  }

  void put(char c) {
    if (len_ == buf_.size()) flush();
    buf_[len_++] = c;
  }

  /// FNV-1a 64 of every byte appended so far.
  [[nodiscard]] std::uint64_t digest() {
    flush();
    return h_;
  }

 private:
  void flush() {
    h_ = fnv1a64({buf_.data(), len_}, h_);
    len_ = 0;
  }

  std::array<char, 64 * 1024> buf_{};
  std::size_t len_ = 0;
  std::uint64_t h_ = kFnv1aOffset;
};

}  // namespace steelnet::sim
