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

TEST(Hash, SinkDigestIgnoresHowBytesWereSplit) {
  // Pieces that straddle the 64 KiB buffer, single chars, and one piece
  // longer than the whole buffer appended onto a partly filled one.
  std::string all;
  Fnv1aSink sink;
  EXPECT_EQ(Fnv1aSink{}.digest(), kFnv1aOffset);
  for (int i = 0; i < 3000; ++i) {
    const std::string piece = "piece-" + std::to_string(i * 7919) + ";";
    sink.append(piece);
    sink.put('|');
    all += piece;
    all += '|';
  }
  const std::string big(200 * 1024, 'x');
  sink.append(big);
  sink.append({});
  all += big;
  sink.put('!');
  all += '!';
  EXPECT_EQ(sink.digest(), fnv1a64(all));
  // digest() may be read mid-stream; appending continues the same hash.
  sink.append("tail");
  EXPECT_EQ(sink.digest(), fnv1a64(all + "tail"));
}

}  // namespace
}  // namespace steelnet::sim
