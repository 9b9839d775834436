#include "plc/function_blocks.hpp"

#include <gtest/gtest.h>

namespace steelnet::plc {
namespace {

using namespace steelnet::sim::literals;

TEST(Ton, DelaysRisingEdge) {
  Ton t(10_ms);
  EXPECT_FALSE(t.update(true, 0_ms));
  EXPECT_FALSE(t.update(true, 5_ms));
  EXPECT_TRUE(t.update(true, 10_ms));
  EXPECT_TRUE(t.update(true, 50_ms));
}

TEST(Ton, ResetsOnFallingInput) {
  Ton t(10_ms);
  t.update(true, 0_ms);
  t.update(true, 10_ms);
  EXPECT_FALSE(t.update(false, 11_ms));
  // Timer restarts from scratch.
  EXPECT_FALSE(t.update(true, 12_ms));
  EXPECT_FALSE(t.update(true, 21_ms));
  EXPECT_TRUE(t.update(true, 22_ms));
}

TEST(Ton, ElapsedSaturatesAtPreset) {
  Ton t(10_ms);
  t.update(true, 0_ms);
  EXPECT_EQ(t.elapsed(4_ms), 4_ms);
  EXPECT_EQ(t.elapsed(100_ms), 10_ms);
  t.update(false, 101_ms);
  EXPECT_EQ(t.elapsed(102_ms), 0_ms);
}

TEST(Ctu, CountsRisingEdgesOnly) {
  Ctu c(3);
  EXPECT_FALSE(c.update(true, false));
  EXPECT_FALSE(c.update(true, false));  // held high: no new edge
  EXPECT_FALSE(c.update(false, false));
  EXPECT_FALSE(c.update(true, false));
  EXPECT_FALSE(c.update(false, false));
  EXPECT_TRUE(c.update(true, false));
  EXPECT_EQ(c.value(), 3u);
}

TEST(Ctu, ResetClearsValue) {
  Ctu c(2);
  c.update(true, false);
  c.update(false, false);
  c.update(true, false);
  EXPECT_TRUE(c.q());
  c.update(false, true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_FALSE(c.q());
}

}  // namespace
}  // namespace steelnet::plc
