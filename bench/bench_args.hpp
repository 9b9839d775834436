// Shared CLI surface of every steelnet bench binary.
//
// kFlagTable lists every flag a bench can take: its name and the
// BenchArgs member it fills, whose comment says what the flag means and
// whose type says how its value is read -- a bool is a switch, a number
// takes a whole non-negative <n> (decimal, 0x hex or 0 octal), an
// optional string takes a <file>. Each main passes BenchArgs::parse the
// flags it reads, and only those: --help lists them, and any other flag
// exits 2 as an unknown argument, so no flag is silently ignored. A flag
// a binary honours in one mode but not in another is named on stderr by
// warn_obs_ignored().
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

/// Reads a cell-rate profile (`--profile-in`); exits 2 if it is
/// unreadable or not a profile.
inline sim::RateProfile read_profile(const char* prog,
                                     const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::cerr << prog << ": cannot read profile '" << path << "'\n";
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return sim::RateProfile::parse(text.str());
  } catch (const sim::PartitionError& e) {
    std::cerr << prog << ": " << e.what() << "\n";
    std::exit(2);
  }
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

struct BenchArgs {
  /// --seed <n>: RNG seed; each binary keeps its historical default.
  std::uint64_t seed = 0;
  /// --csv: machine-readable output instead of the rendered table.
  bool csv = false;
  /// --trace <file>: write a Chrome-trace/Perfetto JSON of the run.
  std::optional<std::string> trace_path;
  /// --metrics <file>: write a Prometheus-style metrics dump of the run.
  std::optional<std::string> metrics_path;
  /// --sweep <n>: sweep n seeds instead of the one default run; 0 = none.
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

  /// Parses argv, taking only the `accepted` flags; exits on --help (0)
  /// and on malformed, unknown or unaccepted flags (2).
  static BenchArgs parse(int argc, char** argv,
                         std::initializer_list<Flag> accepted,
                         std::uint64_t default_seed = 0);

  /// Warns on stderr when a trace/metrics file was requested that this
  /// run will not write, saying why; the run goes on.
  void warn_obs_ignored(const char* prog, std::string_view why) const {
    if (trace_path.has_value() || metrics_path.has_value()) {
      std::cerr << prog << ": " << why << "; --trace/--metrics ignored\n";
    }
  }
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

inline BenchArgs BenchArgs::parse(int argc, char** argv,
                                  std::initializer_list<Flag> accepted,
                                  std::uint64_t default_seed) {
  BenchArgs args;
  args.seed = default_seed;
  const char* prog = argc > 0 ? argv[0] : "bench";
  const auto accepts = [&](const FlagSpec& f) {
    return std::find(accepted.begin(), accepted.end(), f.flag) !=
           accepted.end();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--help" || a == "-h") {
      // The value hint of each member type, in variant order.
      constexpr std::string_view kHint[] = {"", " <n>", " <file>"};
      std::cout << "usage: " << prog;
      for (const FlagSpec& f : kFlagTable) {
        if (accepts(f)) {
          std::cout << " [" << f.name << kHint[f.member.index()] << "]";
        }
      }
      std::cout << "\n";
      std::exit(0);
    }
    const FlagSpec* f =
        std::find_if(std::begin(kFlagTable), std::end(kFlagTable),
                     [&](const FlagSpec& s) { return s.name == a; });
    if (f == std::end(kFlagTable) || !accepts(*f)) {
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
