// The shared bench CLI: numeric flags take whole non-negative numbers
// only, and anything else -- a malformed flag, an unreadable or malformed
// --profile-in, an unwritable --profile-out -- exits 2 as the usage
// contract promises.
#include "bench_args.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

namespace steelnet::bench {
namespace {

BenchArgs parse(std::vector<std::string> words) {
  words.insert(words.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  return BenchArgs::parse(static_cast<int>(argv.size()), argv.data(),
                          /*default_seed=*/1);
}

TEST(BenchArgs, ParsesDecimalHexAndOctal) {
  const BenchArgs a =
      parse({"--seed", "0x10", "--shards", "8", "--sweep", "010"});
  EXPECT_EQ(a.seed, 16u);
  EXPECT_EQ(a.shards, 8u);
  EXPECT_EQ(a.sweep, 8u);
  EXPECT_EQ(parse({}).seed, 1u);
}

TEST(BenchArgs, MalformedNumberExitsTwo) {
  for (const char* bad : {"abc", "2x", "-1", "", " 3", "99999999999999999999"}) {
    EXPECT_EXIT(parse({"--seed", bad}), testing::ExitedWithCode(2),
                "--seed needs a non-negative integer")
        << "'" << bad << "'";
  }
  EXPECT_EXIT(parse({"--shards", "2x"}), testing::ExitedWithCode(2),
              "--shards needs a non-negative integer");
  EXPECT_EXIT(parse({"--jobs"}), testing::ExitedWithCode(2),
              "--jobs needs a value");
}

TEST(BenchArgs, PartitionerFlagIsGone) {
  // Placement follows --profile-in alone.
  EXPECT_EXIT(parse({"--partitioner", "measured"}),
              testing::ExitedWithCode(2), "unknown argument");
}

TEST(BenchArgs, MalformedProfileInExitsTwo) {
  const std::string path = testing::TempDir() + "bench_args_bad_profile.txt";
  std::ofstream{path} << "garbage line\n";
  EXPECT_EXIT(read_profile("bench", path), testing::ExitedWithCode(2),
              "bench: profile line 1: expected header");
}

TEST(BenchArgs, UnwritableProfileOutExitsTwo) {
  const std::string path = testing::TempDir() + "no_such_dir/p.txt";
  const sim::RateProfile profile{{{"cell0", 1, 0}}};
  EXPECT_EXIT(write_profile("bench", path, profile),
              testing::ExitedWithCode(2),
              "bench: cannot write profile '.*no_such_dir/p.txt'");
}

}  // namespace
}  // namespace steelnet::bench
