// steelnet::sim -- the one FNV-1a 64 of the stack.
//
// Every fingerprint (artifact bytes, scenario outcomes, RNG stream labels)
// is FNV-1a 64 over a byte string, or over the little-endian bytes of a
// run of u64 fields. Both live here so each recipe hashes identically.
#pragma once

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

}  // namespace steelnet::sim
