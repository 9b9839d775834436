#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace steelnet::net {
namespace {

using namespace steelnet::sim::literals;

TEST(MacAddress, Formatting) {
  EXPECT_EQ(MacAddress{0x0253'0000'0001ULL}.to_string(), "02:53:00:00:00:01");
  EXPECT_EQ(MacAddress::broadcast().to_string(), "ff:ff:ff:ff:ff:ff");
}

TEST(MacAddress, BroadcastAndMulticast) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  EXPECT_TRUE(MacAddress{0x0100'0000'0000ULL}.is_multicast());
  EXPECT_FALSE(MacAddress{0x0253'0000'0001ULL}.is_multicast());
}

TEST(MacAddress, MasksTo48Bits) {
  EXPECT_EQ(MacAddress{0xffff'ffff'ffff'ffffULL}.bits(), 0xffff'ffff'ffffULL);
}

TEST(Frame, WireBytesPadsSmallPayloads) {
  Frame f;
  f.payload.resize(20);  // 20-byte industrial payload (§2.3)
  // 14 hdr + 46 padded + 4 fcs
  EXPECT_EQ(f.wire_bytes(), 64u);
  f.pcp = 6;  // adds 802.1Q tag
  EXPECT_EQ(f.wire_bytes(), 68u);
}

TEST(Frame, WireBytesLargePayload) {
  Frame f;
  f.payload.resize(1000);
  EXPECT_EQ(f.wire_bytes(), 14u + 1000u + 4u);
  EXPECT_EQ(f.occupancy_bytes(), f.wire_bytes() + 20u);
}

TEST(Frame, PayloadIntegerRoundTrip) {
  Frame f;
  f.payload.resize(32);
  f.write_u64(0, 0x1122'3344'5566'7788ULL);
  f.write_u32(8, 0xdeadbeef);
  EXPECT_EQ(f.read_u64(0), 0x1122'3344'5566'7788ULL);
  EXPECT_EQ(f.read_u32(8), 0xdeadbeef);
}

TEST(Frame, PayloadAccessBoundsChecked) {
  Frame f;
  f.payload.resize(10);
  EXPECT_THROW((void)f.read_u64(3), std::out_of_range);
  EXPECT_THROW(f.write_u64(3, 0), std::out_of_range);
  EXPECT_THROW((void)f.read_u32(7), std::out_of_range);
  EXPECT_THROW(f.write_u32(7, 0), std::out_of_range);
}

TEST(Frame, PayloadAccessAtExactBoundary) {
  Frame f;
  f.payload.resize(10);
  // offset + width == size is legal for every accessor width.
  f.write_u64(2, 0x0102'0304'0506'0708ULL);
  EXPECT_EQ(f.read_u64(2), 0x0102'0304'0506'0708ULL);
  f.write_u32(6, 0xa1b2c3d4);
  EXPECT_EQ(f.read_u32(6), 0xa1b2c3d4u);
}

TEST(Frame, HugeOffsetsDoNotWrapTheBoundsCheck) {
  // A fault-corrupted offset near SIZE_MAX must throw, not wrap
  // `offset + n` past the bound and read through as UB.
  Frame f;
  f.payload.resize(64);
  const std::size_t huge = std::numeric_limits<std::size_t>::max() - 3;
  EXPECT_THROW((void)f.read_u64(huge), std::out_of_range);
  EXPECT_THROW(f.write_u64(huge, 1), std::out_of_range);
  EXPECT_THROW((void)f.read_u32(huge), std::out_of_range);
  EXPECT_THROW(f.write_u32(huge, 1), std::out_of_range);
}

TEST(Frame, EmptyPayloadAlwaysThrows) {
  Frame f;
  EXPECT_THROW((void)f.read_u64(0), std::out_of_range);
  EXPECT_THROW((void)f.read_u32(0), std::out_of_range);
  EXPECT_THROW(f.write_u32(0, 1), std::out_of_range);
}

TEST(SerializationTime, GigabitMath) {
  // 64B frame + 20B overhead = 84B = 672 bits -> 672 ns at 1 Gb/s.
  EXPECT_EQ(serialization_time(84, 1'000'000'000).nanos(), 672);
  // At 100 Mb/s it is 10x longer.
  EXPECT_EQ(serialization_time(84, 100'000'000).nanos(), 6720);
  EXPECT_THROW((void)serialization_time(84, 0), std::invalid_argument);
}

TEST(SerializationTime, RoundsUp) {
  // 1 byte at 3 bps = 8/3 s -> rounds up.
  EXPECT_EQ(serialization_time(1, 3).nanos(), 2'666'666'667);
}

}  // namespace
}  // namespace steelnet::net
