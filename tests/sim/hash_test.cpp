#include "sim/hash.hpp"

#include <gtest/gtest.h>

#include <string>

namespace steelnet::sim {
namespace {

TEST(Hash, Fnv1aKnownVectors) {
  EXPECT_EQ(fnv1a64(""), kFnv1aOffset);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  // Continuing from a prefix hash equals hashing the concatenation.
  EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
}

TEST(Hash, MixFoldsTheLittleEndianBytes) {
  const std::uint64_t v = 0x0807060504030201ULL;
  std::uint64_t h = kFnv1aOffset;
  fnv1a64_mix(h, v);
  EXPECT_EQ(h, fnv1a64(std::string{"\x01\x02\x03\x04\x05\x06\x07\x08"}));
}

}  // namespace
}  // namespace steelnet::sim
