// The shared bench CLI: a binary takes only the flags it accepts -- in
// the mode its first selector picks, if it has modes -- and --help lists
// exactly those, one line per mode. Numeric flags take whole non-negative
// numbers only, and anything else -- a flag the binary or the mode does
// not accept, a second selector, a malformed value, an unreadable,
// malformed or empty --profile-in, an unwritable output path -- exits 2
// as the usage contract promises. A failed shape
// check prints its MISMATCH line and makes the exit code 1. An outcome's
// CSV header and row come from its one field list and agree with each
// other.
#include "bench_args.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "faults/scenario_runner.hpp"
#include "orch/orch_runner.hpp"
#include "small_orch_config.hpp"

namespace steelnet::bench {
namespace {

using enum Flag;

/// Parses `words` as a binary accepting `accepted` (by default, every
/// flag) in its default mode, and `modes` besides, would.
BenchArgs parse(std::vector<std::string> words,
                std::initializer_list<Flag> accepted = {
                    kSeed, kCsv, kTrace, kMetrics, kSweep, kJobs, kScale,
                    kBenchJson, kShards, kSkew, kProfileOut, kProfileIn},
                std::initializer_list<Mode> modes = {}) {
  words.insert(words.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  return BenchArgs::parse(static_cast<int>(argv.size()), argv.data(),
                          accepted, /*default_seed=*/1, modes);
}

/// Parses `words` as tab_campus, whose three modes are the widest.
BenchArgs parse_campus(std::vector<std::string> words) {
  return parse(std::move(words),
               {kSeed, kCsv, kTrace, kMetrics, kShards, kSkew, kProfileOut,
                kProfileIn},
               {{kSweep, {kSeed, kCsv, kJobs, kShards, kSkew}},
                {kBenchJson, {kSeed, kCsv, kScale, kSkew, kProfileOut}}});
}

TEST(BenchArgs, ParsesDecimalHexAndOctal) {
  const BenchArgs a =
      parse({"--seed", "0x10", "--shards", "8", "--sweep", "010"});
  EXPECT_EQ(a.seed, 16u);
  EXPECT_EQ(a.shards, 8u);
  EXPECT_EQ(a.sweep, 8u);
  EXPECT_EQ(parse({}).seed, 1u);
}

TEST(BenchArgs, FillsEachFlagsMember) {
  const BenchArgs a =
      parse({"--csv", "--trace", "t.json", "--metrics", "m.prom", "--jobs",
             "3", "--scale", "9", "--bench-json", "b.json", "--skew",
             "--profile-out", "o.txt", "--profile-in", "i.txt"});
  EXPECT_TRUE(a.csv);
  EXPECT_EQ(a.trace_path, "t.json");
  EXPECT_EQ(a.metrics_path, "m.prom");
  EXPECT_EQ(a.jobs, 3u);
  EXPECT_EQ(a.scale, 9u);
  EXPECT_EQ(a.bench_json_path, "b.json");
  EXPECT_TRUE(a.skew);
  EXPECT_EQ(a.profile_out_path, "o.txt");
  EXPECT_EQ(a.profile_in_path, "i.txt");
  EXPECT_FALSE(parse({}).csv);
  EXPECT_FALSE(parse({}).trace_path.has_value());
}

TEST(BenchArgs, FlagOutsideAcceptedSetExitsTwo) {
  EXPECT_EQ(parse({"--seed", "3"}, {kSeed}).seed, 3u);
  EXPECT_EXIT(parse({"--seed", "3"}, {}), testing::ExitedWithCode(2),
              "bench: unknown argument '--seed' \\(try --help\\)");
  EXPECT_EXIT(parse({"--seed", "3", "--skew"}, {kSeed, kCsv}),
              testing::ExitedWithCode(2), "unknown argument '--skew'");
  EXPECT_EXIT(parse({"--bench-json", "b.json"}, {kSeed, kCsv, kMetrics}),
              testing::ExitedWithCode(2), "unknown argument '--bench-json'");
}

TEST(BenchArgs, EveryFlagOfEachModeParses) {
  const BenchArgs table = parse_campus(
      {"--seed", "4", "--csv", "--trace", "t.json", "--metrics", "m.prom",
       "--shards", "3", "--skew", "--profile-out", "o.txt", "--profile-in",
       "i.txt"});
  EXPECT_FALSE(table.mode.has_value());
  EXPECT_EQ(table.seed, 4u);
  EXPECT_TRUE(table.csv);
  EXPECT_EQ(table.trace_path, "t.json");
  EXPECT_EQ(table.metrics_path, "m.prom");
  EXPECT_EQ(table.shards, 3u);
  EXPECT_TRUE(table.skew);
  EXPECT_EQ(table.profile_out_path, "o.txt");
  EXPECT_EQ(table.profile_in_path, "i.txt");

  // The selector need not come first.
  const BenchArgs sweep = parse_campus(
      {"--seed", "5", "--csv", "--jobs", "2", "--sweep", "7", "--shards",
       "4", "--skew"});
  EXPECT_EQ(sweep.mode, kSweep);
  EXPECT_EQ(sweep.sweep, 7u);
  EXPECT_EQ(sweep.seed, 5u);
  EXPECT_TRUE(sweep.csv);
  EXPECT_EQ(sweep.jobs, 2u);
  EXPECT_EQ(sweep.shards, 4u);
  EXPECT_TRUE(sweep.skew);
  // A sweep of no seeds is still the sweep mode.
  EXPECT_EQ(parse_campus({"--sweep", "0"}).mode, kSweep);

  const BenchArgs ladder = parse_campus(
      {"--bench-json", "b.json", "--seed", "6", "--csv", "--scale", "9",
       "--skew", "--profile-out", "p.txt"});
  EXPECT_EQ(ladder.mode, kBenchJson);
  EXPECT_EQ(ladder.bench_json_path, "b.json");
  EXPECT_EQ(ladder.seed, 6u);
  EXPECT_TRUE(ladder.csv);
  EXPECT_EQ(ladder.scale, 9u);
  EXPECT_TRUE(ladder.skew);
  EXPECT_EQ(ladder.profile_out_path, "p.txt");

  // A path that reads like a selector is a value, not a selector.
  const BenchArgs path = parse_campus({"--trace", "--sweep"});
  EXPECT_FALSE(path.mode.has_value());
  EXPECT_EQ(path.trace_path, "--sweep");
}

TEST(BenchArgs, FlagOutsideSelectedModeExitsTwo) {
  EXPECT_EXIT(parse_campus({"--shards", "1", "--scale", "9"}),
              testing::ExitedWithCode(2),
              "bench: unknown argument '--scale' \\(try --help\\)");
  EXPECT_EXIT(parse_campus({"--sweep", "2", "--csv", "--profile-out", "p"}),
              testing::ExitedWithCode(2), "unknown argument '--profile-out'");
  EXPECT_EXIT(parse_campus({"--bench-json", "b.json", "--scale", "4",
                            "--profile-in", "/nonexistent"}),
              testing::ExitedWithCode(2), "unknown argument '--profile-in'");
  // The flag is rejected by name even when it precedes the selector.
  EXPECT_EXIT(parse_campus({"--trace", "t.json", "--sweep", "2"}),
              testing::ExitedWithCode(2), "unknown argument '--trace'");
}

TEST(BenchArgs, SecondSelectorExitsTwo) {
  EXPECT_EXIT(parse_campus({"--sweep", "2", "--bench-json", "x.json"}),
              testing::ExitedWithCode(2), "unknown argument '--bench-json'");
  EXPECT_EXIT(parse_campus({"--bench-json", "x.json", "--sweep", "2"}),
              testing::ExitedWithCode(2), "unknown argument '--sweep'");
}

/// Runs `words` (by default --help alone) for a binary accepting
/// `accepted` and `modes`, its usage lines sent to stderr where a death
/// test can match them.
void help(std::initializer_list<Flag> accepted,
          std::initializer_list<Mode> modes = {},
          std::vector<std::string> words = {"--help"}) {
  std::cout.rdbuf(std::cerr.rdbuf());
  parse(std::move(words), accepted, modes);
}

TEST(BenchArgs, HelpPrintsOneLinePerMode) {
  // Each line: the selector, then that mode's flags in table order.
  EXPECT_EXIT(help({kSeed, kCsv, kTrace, kMetrics, kShards, kSkew,
                    kProfileOut, kProfileIn},
                   {{kSweep, {kShards, kJobs, kSkew, kCsv, kSeed}},
                    {kBenchJson, {kSeed, kCsv, kScale, kSkew, kProfileOut}}}),
              testing::ExitedWithCode(0),
              "^usage: bench \\[--seed <n>\\] \\[--csv\\] "
              "\\[--trace <file>\\] \\[--metrics <file>\\] "
              "\\[--shards <n>\\] \\[--skew\\] "
              "\\[--profile-out <file>\\] \\[--profile-in <file>\\]\n"
              "       bench --sweep <n> \\[--seed <n>\\] \\[--csv\\] "
              "\\[--jobs <n>\\] \\[--shards <n>\\] \\[--skew\\]\n"
              "       bench --bench-json <file> \\[--seed <n>\\] "
              "\\[--csv\\] \\[--scale <n>\\] \\[--skew\\] "
              "\\[--profile-out <file>\\]\n$");
  // --help wins in any mode and still lists them all.
  EXPECT_EXIT(help({kSeed}, {{kSweep, {}}}, {"--sweep", "2", "--help"}),
              testing::ExitedWithCode(0),
              "^usage: bench \\[--seed <n>\\]\n       bench --sweep <n>\n$");
}

TEST(BenchArgs, HelpListsExactlyTheAcceptedFlags) {
  // In table order, whatever order the binary lists them in.
  EXPECT_EXIT(help({kSkew, kSeed, kTrace}), testing::ExitedWithCode(0),
              "usage: bench \\[--seed <n>\\] \\[--trace <file>\\] "
              "\\[--skew\\]\n$");
  EXPECT_EXIT(help({}), testing::ExitedWithCode(0), "usage: bench\n$");
  EXPECT_EXIT(help({kSeed, kCsv, kTrace, kMetrics, kSweep, kJobs, kScale,
                    kBenchJson, kShards, kSkew, kProfileOut, kProfileIn}),
              testing::ExitedWithCode(0),
              "usage: bench \\[--seed <n>\\] \\[--csv\\] "
              "\\[--trace <file>\\] \\[--metrics <file>\\] "
              "\\[--sweep <n>\\] \\[--jobs <n>\\] \\[--scale <n>\\] "
              "\\[--bench-json <file>\\] \\[--shards <n>\\] "
              "\\[--skew\\] \\[--profile-out <file>\\] "
              "\\[--profile-in <file>\\]\n$");
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
  EXPECT_EXIT(read_profile("bench", path, 3), testing::ExitedWithCode(2),
              "bench: profile line 1: expected header");
}

TEST(BenchArgs, EmptyProfileInExitsTwo) {
  // A profile of no cells would leave placement at prefix-quota, so the
  // flag would change nothing.
  const std::string path = testing::TempDir() + "bench_args_no_cells.txt";
  std::ofstream{path} << "cell,events,msgs\n";
  EXPECT_EXIT(read_profile("bench", path, 3), testing::ExitedWithCode(2),
              "bench: profile '.*bench_args_no_cells.txt' lists no cells");
}

TEST(BenchArgs, ProfileInOfAnotherCellCountExitsTwo) {
  // Measured weights must cover every cell of the run, one each.
  const std::string path = testing::TempDir() + "bench_args_3_cells.txt";
  std::ofstream{path} << "cell,events,msgs\nc0,1,0\nc1,2,0\nc2,3,0\n";
  EXPECT_EXIT(read_profile("bench", path, 48), testing::ExitedWithCode(2),
              "bench: profile '.*bench_args_3_cells.txt' lists 3 cells, but "
              "the run has 48 cells");
  EXPECT_EQ(read_profile("bench", path, 3).cells.size(), 3u);
}

TEST(BenchArgs, UnwritableProfileOutExitsTwo) {
  const std::string path = testing::TempDir() + "no_such_dir/p.txt";
  const sim::RateProfile profile{{{"cell0", 1, 0}}};
  EXPECT_EXIT(write_profile("bench", path, profile),
              testing::ExitedWithCode(2),
              "bench: cannot write profile '.*no_such_dir/p.txt'");
}

TEST(BenchArgs, UnwritableOutputExitsTwo) {
  const std::string path = testing::TempDir() + "no_such_dir/x";
  EXPECT_EXIT(write_file("bench", path, "trace", "{}"),
              testing::ExitedWithCode(2),
              "bench: cannot write trace '.*no_such_dir/x'");
}

TEST(BenchArgs, WriteFileWritesBodyAndNotesOnStderr) {
  const std::string path = testing::TempDir() + "bench_args_out.txt";
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  write_file("bench", path, "metrics", "a 1\nb 2\n");
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "bench: wrote metrics to " + path + "\n");
  std::ifstream in{path, std::ios::binary};
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "a 1\nb 2\n");
}

TEST(BenchArgs, FailedCheckPrintsMismatchAndExitsOne) {
  testing::internal::CaptureStdout();
  Checks checks{parse({})};
  checks.check(true, "holds");
  EXPECT_EQ(checks.exit_code(), 0);
  checks.check(false, "breaks");
  checks.check(true, "holds again");
  EXPECT_EQ(checks.exit_code(), 1);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "  [ok] holds\n  [MISMATCH] breaks\n  [ok] holds again\n");
}

TEST(BenchArgs, CsvChecksReportOnStderr) {
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  Checks checks{parse({"--csv"})};
  checks.check(false, "breaks");
  EXPECT_EQ(checks.exit_code(), 1);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "  [MISMATCH] breaks\n");
}

/// The CSV cell CsvFields writes for `v`, without its leading comma.
template <typename T>
std::string csv_cell(const T& v) {
  std::ostringstream out;
  CsvFields{out}("x", v);
  return out.str().substr(1);
}

TEST(BenchArgs, CsvDoublesRoundTrip) {
  // They first differ in the 8th significant digit; a stream's default
  // 6 digits print both as "1".
  const double a = 0.99999991;
  const double b = 0.99999992;
  EXPECT_NE(csv_cell(a), csv_cell(b));
  for (const double v : {a, b, 1.0 / 3.0, 1e-300, 12345.0, 0.0}) {
    EXPECT_EQ(std::stod(csv_cell(v)), v) << csv_cell(v);
  }
  EXPECT_EQ(csv_cell(1.0), "1");
  EXPECT_EQ(csv_cell(true), "1");
  EXPECT_EQ(csv_cell(sim::SimTime{-42}), "-42");
}

TEST(BenchArgs, CsvQuotesStringsThatHoldASeparator) {
  EXPECT_EQ(csv_cell(std::string{"plain"}), "plain");
  EXPECT_EQ(csv_cell(std::string{"no alive, non-draining \"node\""}),
            "\"no alive, non-draining \"\"node\"\"\"");
}

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> cells;
  std::istringstream in{line};
  for (std::string cell; std::getline(in, cell, ',');) cells.push_back(cell);
  return cells;
}

/// The CSV header and row an outcome prints, and its listed names.
template <typename Outcome>
void expect_csv_shape(const Outcome& o) {
  std::ostringstream header;
  std::ostringstream row;
  o.fields(CsvFields{header, /*header=*/true});
  o.fields(CsvFields{row});
  std::vector<std::string> names;
  o.fields([&](std::string_view name, const auto&) {
    names.emplace_back(name);
  });
  const std::vector<std::string> columns = split(header.str());
  EXPECT_EQ(columns.size(), split(row.str()).size());
  EXPECT_EQ(std::set<std::string>(columns.begin(), columns.end()).size(),
            columns.size())
      << "duplicate column in " << header.str();
  for (const std::string& name : names) {
    EXPECT_NE(std::find(columns.begin(), columns.end(), name), columns.end())
        << name;
  }
  EXPECT_EQ(columns.size(), names.size() + 1);  // + the empty lead cell
}

TEST(BenchArgs, ScenarioOutcomeCsvShape) {
  faults::ScenarioOutcome o;
  o.scenario = "silent_primary";
  expect_csv_shape(o);
}

TEST(BenchArgs, OrchOutcomeCsvShape) {
  const orch::OrchOutcome o = orch::OrchRunner::run(orch::small_orch_config(1));
  ASSERT_TRUE(o.place_error.empty());
  expect_csv_shape(o);
}

}  // namespace
}  // namespace steelnet::bench
