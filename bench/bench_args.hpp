// Shared CLI surface of every steelnet bench binary.
//
// kFlagTable lists every flag a bench can take: its name and the
// BenchArgs member it fills, whose comment says what the flag means and
// whose type says how its value is read -- a bool is a switch, a number
// takes a whole non-negative <n> (decimal, 0x hex or 0 octal), an
// optional string takes a <file>. Each main passes BenchArgs::parse the
// flags it reads, and only those. A binary that runs in more than one
// mode also passes its other modes: a mode is the flag that selects it
// (--sweep, --bench-json) plus the flags that mode reads, and the first
// selector on the command line picks it. --help prints one usage line
// per mode, and any flag outside the picked mode's set -- a second
// selector included -- exits 2 as an unknown argument before any work,
// so no flag is silently ignored.
//
// Every bench reports through the two helpers below. Output files
// (--trace, --metrics, --bench-json, --profile-out) go through
// write_file(): they are written in every mode, --csv included, the
// "wrote ..." note goes to stderr, and a path that can't be written exits
// 2. Shape checks go through Checks: each prints one "[ok]"/"[MISMATCH]"
// line (on stderr under --csv, so stdout stays the artifact) and sets the
// exit code -- 1 if any check failed.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "core/report.hpp"
#include "sim/partitioner.hpp"
#include "sim/time.hpp"

namespace steelnet::bench {

/// 16-digit lowercase hex, the way benches print fingerprints.
inline std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Passed to a run outcome's fields(): writes each field as one CSV cell
/// after a comma -- its name if `header`, else its value: bools as 0/1,
/// SimTime in ns, doubles in the shortest text that reads back exactly
/// (so two rows differ wherever their doubles do), text quoted by
/// core::CsvWriter::escape.
struct CsvFields {
  std::ostream& out;
  bool header = false;
  template <typename T>
  void operator()(std::string_view name, const T& v) {
    out << ',';
    if (header) {
      out << name;
    } else if constexpr (std::is_same_v<T, double>) {
      char buf[32];
      out.write(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr - buf);
    } else if constexpr (std::is_same_v<T, sim::SimTime>) {
      out << v.nanos();
    } else if constexpr (std::is_same_v<T, std::string>) {
      out << core::CsvWriter::escape(v);
    } else {
      out << +v;  // integers; + prints a bool as 0/1
    }
  }
};

/// Reads a cell-rate profile (`--profile-in`) for a run of `cells` cells;
/// exits 2 if it is unreadable, not a profile, or lists another number
/// of cells -- none at all included, where placement would fall back to
/// prefix-quota and the flag would change nothing.
inline sim::RateProfile read_profile(const char* prog, const std::string& path,
                                     std::size_t cells) {
  std::ifstream in{path};
  if (!in) {
    std::cerr << prog << ": cannot read profile '" << path << "'\n";
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  sim::RateProfile profile;
  try {
    profile = sim::RateProfile::parse(text.str());
  } catch (const sim::PartitionError& e) {
    std::cerr << prog << ": " << e.what() << "\n";
    std::exit(2);
  }
  if (profile.cells.size() != cells) {
    std::cerr << prog << ": profile '" << path << "' lists ";
    if (profile.cells.empty()) {
      std::cerr << "no cells";
    } else {
      std::cerr << profile.cells.size() << " cells";
    }
    std::cerr << ", but the run has " << cells << " cells\n";
    std::exit(2);
  }
  return profile;
}

/// Writes one output file exactly as rendered; the note goes to stderr so
/// a CSV on stdout stays byte-comparable. Exits 2 if the file can't be
/// written.
inline void write_file(const char* prog, const std::string& path,
                       std::string_view what, std::string_view body) {
  std::ofstream out{path, std::ios::binary};
  out << body;
  out.close();
  if (!out) {
    std::cerr << prog << ": cannot write " << what << " '" << path << "'\n";
    std::exit(2);
  }
  std::cerr << prog << ": wrote " << what << " to " << path << "\n";
}

/// Writes a cell-rate profile (`--profile-out`).
inline void write_profile(const char* prog, const std::string& path,
                          const sim::RateProfile& profile) {
  write_file(prog, path, "profile", profile.to_text());
}

/// The flags of kFlagTable; each main passes the ones it reads to
/// BenchArgs::parse.
enum class Flag : std::uint8_t {
  kSeed, kCsv, kTrace, kMetrics, kSweep, kJobs, kScale, kBenchJson,
  kShards, kSkew, kProfileOut, kProfileIn
};

/// A mode other than a binary's default one: the flag that selects it and
/// the flags the mode reads besides.
struct Mode {
  Flag selector;
  std::initializer_list<Flag> flags;
};

struct BenchArgs {
  /// --seed <n>: RNG seed; each binary keeps its historical default.
  std::uint64_t seed = 0;
  /// --csv: machine-readable output instead of the rendered table.
  bool csv = false;
  /// --trace <file>: write a Chrome-trace/Perfetto JSON of the run.
  std::optional<std::string> trace_path;
  /// --metrics <file>: write a Prometheus-style metrics dump of the run.
  std::optional<std::string> metrics_path;
  /// --sweep <n>: n seeded runs, after the default ones -- or, where
  /// --sweep selects a mode, instead of them; 0 = none.
  std::uint64_t sweep = 0;
  /// --jobs <n>: worker threads for independent runs (core::SweepRunner:
  /// 0 = hardware concurrency, 1 = the sequential loop); output is
  /// byte-identical at any count.
  std::uint64_t jobs = 0;
  /// --scale <n>: size ceiling of a scaling curve; 0 = binary default.
  std::uint64_t scale = 0;
  /// --bench-json <file>: write the scaling curve as a JSON artifact.
  std::optional<std::string> bench_json_path;
  /// --shards <n>: worker shards of ONE sharded simulation (orthogonal to
  /// --jobs, which spreads independent runs); 0 = binary default.
  std::uint64_t shards = 0;
  /// --skew: the skewed-load workload variant.
  bool skew = false;
  /// --profile-out <file>: write the run's measured cell-rate profile.
  std::optional<std::string> profile_out_path;
  /// --profile-in <file>: place cells by this calibration cell-rate
  /// profile (measured-rate LPT) instead of prefix-quota.
  std::optional<std::string> profile_in_path;

  /// The selector of the mode this run takes; empty for the default mode.
  std::optional<Flag> mode;

  /// Parses argv. The first selector of `modes` on the command line picks
  /// that mode and its flags; without one, the default mode takes the
  /// `accepted` flags. Exits on --help (0) and on malformed, unknown or
  /// unaccepted flags (2).
  static BenchArgs parse(int argc, char** argv,
                         std::initializer_list<Flag> accepted,
                         std::uint64_t default_seed = 0,
                         std::initializer_list<Mode> modes = {});
};

/// One flag: its name and the member it fills, whose type says how its
/// value is read (switch, whole number, or path).
struct FlagSpec {
  Flag flag;
  std::string_view name;
  std::variant<bool BenchArgs::*, std::uint64_t BenchArgs::*,
               std::optional<std::string> BenchArgs::*>
      member;
};

/// Every bench flag, in --help order.
inline constexpr FlagSpec kFlagTable[] = {
    {Flag::kSeed, "--seed", &BenchArgs::seed},
    {Flag::kCsv, "--csv", &BenchArgs::csv},
    {Flag::kTrace, "--trace", &BenchArgs::trace_path},
    {Flag::kMetrics, "--metrics", &BenchArgs::metrics_path},
    {Flag::kSweep, "--sweep", &BenchArgs::sweep},
    {Flag::kJobs, "--jobs", &BenchArgs::jobs},
    {Flag::kScale, "--scale", &BenchArgs::scale},
    {Flag::kBenchJson, "--bench-json", &BenchArgs::bench_json_path},
    {Flag::kShards, "--shards", &BenchArgs::shards},
    {Flag::kSkew, "--skew", &BenchArgs::skew},
    {Flag::kProfileOut, "--profile-out", &BenchArgs::profile_out_path},
    {Flag::kProfileIn, "--profile-in", &BenchArgs::profile_in_path},
};

/// The kFlagTable entry named `name`, or nullptr.
inline const FlagSpec* find_flag(std::string_view name) {
  const FlagSpec* f =
      std::find_if(std::begin(kFlagTable), std::end(kFlagTable),
                   [&](const FlagSpec& s) { return s.name == name; });
  return f == std::end(kFlagTable) ? nullptr : f;
}

inline BenchArgs BenchArgs::parse(int argc, char** argv,
                                  std::initializer_list<Flag> accepted,
                                  std::uint64_t default_seed,
                                  std::initializer_list<Mode> modes) {
  BenchArgs args;
  args.seed = default_seed;
  const char* prog = argc > 0 ? argv[0] : "bench";
  const auto in = [](std::initializer_list<Flag> set, Flag f) {
    return std::find(set.begin(), set.end(), f) != set.end();
  };
  // The first selector picks the mode. A flag's value is skipped, so a
  // path that reads like a selector never picks one.
  std::initializer_list<Flag> picked = accepted;
  for (int i = 1; i < argc && !args.mode.has_value(); ++i) {
    const FlagSpec* f = find_flag(argv[i]);
    if (f == nullptr) continue;
    for (const Mode& m : modes) {
      if (m.selector == f->flag) {
        args.mode = m.selector;
        picked = m.flags;
      }
    }
    if (!std::holds_alternative<bool BenchArgs::*>(f->member)) ++i;
  }
  const auto accepts = [&](Flag f) { return f == args.mode || in(picked, f); };
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--help" || a == "-h") {
      // The value hint of each member type, in variant order.
      constexpr std::string_view kHint[] = {"", " <n>", " <file>"};
      // One line per mode: its selector, then its flags in table order.
      const auto usage = [&](std::string_view lead,
                             std::optional<Flag> selector,
                             std::initializer_list<Flag> flags) {
        std::cout << lead << prog;
        for (const FlagSpec& f : kFlagTable) {
          if (f.flag == selector) {
            std::cout << " " << f.name << kHint[f.member.index()];
          }
        }
        for (const FlagSpec& f : kFlagTable) {
          if (in(flags, f.flag)) {
            std::cout << " [" << f.name << kHint[f.member.index()] << "]";
          }
        }
        std::cout << "\n";
      };
      usage("usage: ", std::nullopt, accepted);
      for (const Mode& m : modes) usage("       ", m.selector, m.flags);
      std::exit(0);
    }
    const FlagSpec* f = find_flag(a);
    if (f == nullptr || !accepts(f->flag)) {
      std::cerr << prog << ": unknown argument '" << a << "' (try --help)\n";
      std::exit(2);
    }
    if (const auto* sw = std::get_if<bool BenchArgs::*>(&f->member)) {
      args.*(*sw) = true;
      continue;
    }
    if (++i >= argc) {
      std::cerr << prog << ": " << a << " needs a value\n";
      std::exit(2);
    }
    const char* text = argv[i];
    if (const auto* path =
            std::get_if<std::optional<std::string> BenchArgs::*>(
                &f->member)) {
      args.*(*path) = text;
      continue;
    }
    // Whole non-negative number or exit 2: strtoull alone would read
    // "abc" as 0, "2x" as 2 and "-1" as 2^64-1.
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE) {
      std::cerr << prog << ": " << a << " needs a non-negative integer, "
                << "got '" << text << "'\n";
      std::exit(2);
    }
    args.*std::get<std::uint64_t BenchArgs::*>(f->member) = v;
  }
  return args;
}

/// A bench's shape checks. Each is declared once, as its text and whether
/// it held; the same object prints it and turns the lot into the exit
/// code.
class Checks {
 public:
  /// Reports on stderr under --csv (stdout is the artifact), else stdout.
  explicit Checks(const BenchArgs& args)
      : out_{args.csv ? std::cerr : std::cout} {}

  /// The report stream, for the headings and context lines around checks.
  std::ostream& out() { return out_; }

  /// Prints "  [ok] <text>" or "  [MISMATCH] <text>".
  void check(bool held, std::string_view text) {
    out_ << "  [" << (held ? "ok" : "MISMATCH") << "] " << text << "\n";
    failed_ |= !held;
  }

  /// 0 if every check held, 1 otherwise.
  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  std::ostream& out_;
  bool failed_ = false;
};

}  // namespace steelnet::bench
