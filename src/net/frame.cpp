#include "net/frame.hpp"

#include <algorithm>
#include <stdexcept>

namespace steelnet::net {

namespace {
constexpr std::size_t kEthHeader = 14;
constexpr std::size_t kVlanTag = 4;
constexpr std::size_t kFcs = 4;
constexpr std::size_t kMinPayload = 46;
constexpr std::size_t kPreambleSfdIfg = 8 + 12;
}  // namespace

std::size_t Frame::wire_bytes() const {
  const std::size_t pay = std::max(payload.size(), kMinPayload);
  return kEthHeader + (vlan_id != 0 || pcp != 0 ? kVlanTag : 0) + pay + kFcs;
}

std::size_t Frame::occupancy_bytes() const {
  return wire_bytes() + kPreambleSfdIfg;
}

std::uint64_t Frame::read_u64(std::size_t offset) const {
  if (!payload_range_ok(offset, 8)) {
    throw std::out_of_range("Frame::read_u64 past payload end");
  }
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | payload[offset + std::size_t(i)];
  return v;
}

void Frame::write_u64(std::size_t offset, std::uint64_t value) {
  if (!payload_range_ok(offset, 8)) {
    throw std::out_of_range("Frame::write_u64 past payload end");
  }
  for (std::size_t i = 0; i < 8; ++i) {
    payload[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint32_t Frame::read_u32(std::size_t offset) const {
  if (!payload_range_ok(offset, 4)) {
    throw std::out_of_range("Frame::read_u32 past payload end");
  }
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | payload[offset + std::size_t(i)];
  return v;
}

void Frame::write_u32(std::size_t offset, std::uint32_t value) {
  if (!payload_range_ok(offset, 4)) {
    throw std::out_of_range("Frame::write_u32 past payload end");
  }
  for (std::size_t i = 0; i < 4; ++i) {
    payload[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

sim::SimTime serialization_time(std::size_t bytes,
                                std::uint64_t bits_per_second) {
  if (bits_per_second == 0) {
    throw std::invalid_argument("serialization_time: zero bandwidth");
  }
  // ns = bits * 1e9 / bps, rounded up so a frame never finishes "early".
  const auto bits = static_cast<std::uint64_t>(bytes) * 8ULL;
  const auto ns = (bits * 1'000'000'000ULL + bits_per_second - 1) /
                  bits_per_second;
  return sim::SimTime{static_cast<std::int64_t>(ns)};
}

}  // namespace steelnet::net
