// Shared CLI surface of every steelnet bench binary.
//
// All table/figure executables accept the same four flags:
//   --seed <n>       RNG seed (each binary keeps its historical default, so
//                    no-arg output is unchanged)
//   --csv            machine-readable output instead of the rendered table
//   --trace <file>   write a Chrome-trace/Perfetto JSON of the run
//   --metrics <file> write a Prometheus-style metrics dump of the run
//   --sweep <n>      where supported: sweep n seeds instead of the single
//                    default run (ignored by binaries without a sweep mode)
//   --jobs <n>       worker threads for independent sweep runs (default:
//                    hardware concurrency; --jobs 1 is the sequential
//                    loop). Output is byte-identical at any job count.
//   --scale <n>      where supported: size ceiling of a scaling curve
//                    (e.g. tab_campus's big-campus cell count)
//   --bench-json <f> where supported: write the scaling curve as a JSON
//                    benchmark artifact
//   --shards <n>     where supported: worker shards of one sharded
//                    simulation (tab_campus, tab_radio); orthogonal to
//                    --jobs
//   --skew           where supported: skewed-load workload variant (e.g.
//                    tab_campus hot-zone storms)
//   --profile-out <file>
//                    write the run's measured cell-rate profile
//   --profile-in <file>
//                    read a cell-rate profile and place cells by it
//                    (measured-rate LPT); without it, prefix-quota
// plus --help. Numeric values must be whole non-negative numbers
// (decimal, 0x hex or 0 octal). Binaries without an obs wiring still
// accept --trace and --metrics but warn on stderr that nothing will be
// produced.
//
// Every bench reports through the two helpers below. Output files
// (--trace, --metrics, --bench-json, --profile-out) go through
// write_file(): they are written in every mode, --csv included, the
// "wrote ..." note goes to stderr, and a path that can't be written exits
// 2. Shape checks go through Checks: each prints one "[ok]"/"[MISMATCH]"
// line (on stderr under --csv, so stdout stays the artifact) and sets the
// exit code -- 1 if any check failed.
#pragma once

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

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
/// (so two rows differ wherever their doubles do), text RFC 4180-quoted
/// if needed.
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
      if (v.find_first_of(",\"\n") == std::string::npos) {
        out << v;
      } else {
        out << std::quoted(v, '"', '"');
      }
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

struct BenchArgs {
  std::uint64_t seed = 0;
  bool csv = false;
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;
  /// --sweep <n>: number of seeds to sweep; 0 means "no sweep requested".
  std::uint64_t sweep = 0;
  /// --jobs <n>: worker threads for independent runs (core::SweepRunner
  /// semantics: 0 means hardware concurrency, 1 the sequential loop).
  std::size_t jobs = 0;
  /// --scale <n>: where supported, the size ceiling of a scaling curve
  /// (e.g. tab_campus's big-campus cell count); 0 = binary default.
  std::uint64_t scale = 0;
  /// --bench-json <file>: where supported, write a google-benchmark-style
  /// JSON artifact of the scaling curve.
  std::optional<std::string> bench_json_path;
  /// --shards <n>: where supported, worker shards of ONE sharded
  /// simulation (sim::ShardedSimulator semantics; orthogonal to --jobs,
  /// which parallelizes across independent runs). 0 = binary default.
  std::size_t shards = 0;
  /// --skew: where supported, the skewed-load workload variant.
  bool skew = false;
  /// --profile-out <file>: write the measured cell-rate profile.
  std::optional<std::string> profile_out_path;
  /// --profile-in <file>: read a calibration cell-rate profile; cells are
  /// placed by measured rate exactly when one is given.
  std::optional<std::string> profile_in_path;

  /// Parses argv; exits on --help (0) and on malformed/unknown flags (2).
  static BenchArgs parse(int argc, char** argv,
                         std::uint64_t default_seed = 0) {
    BenchArgs args;
    args.seed = default_seed;
    const char* prog = argc > 0 ? argv[0] : "bench";
    auto need_value = [&](int i, std::string_view flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << prog << ": " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[i + 1];
    };
    // Whole non-negative number or exit 2: strtoull alone would read
    // "abc" as 0, "2x" as 2 and "-1" as 2^64-1.
    auto need_number = [&](int i, std::string_view flag) -> std::uint64_t {
      const char* text = need_value(i, flag);
      char* end = nullptr;
      errno = 0;
      const unsigned long long v = std::strtoull(text, &end, 0);
      if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
          *end != '\0' || errno == ERANGE) {
        std::cerr << prog << ": " << flag << " needs a non-negative integer, "
                  << "got '" << text << "'\n";
        std::exit(2);
      }
      return v;
    };
    for (int i = 1; i < argc; ++i) {
      const std::string_view a = argv[i];
      if (a == "--seed") {
        args.seed = need_number(i, a);
        ++i;
      } else if (a == "--csv") {
        args.csv = true;
      } else if (a == "--trace") {
        args.trace_path = need_value(i, a);
        ++i;
      } else if (a == "--metrics") {
        args.metrics_path = need_value(i, a);
        ++i;
      } else if (a == "--sweep") {
        args.sweep = need_number(i, a);
        ++i;
      } else if (a == "--jobs") {
        args.jobs = static_cast<std::size_t>(need_number(i, a));
        ++i;
      } else if (a == "--scale") {
        args.scale = need_number(i, a);
        ++i;
      } else if (a == "--bench-json") {
        args.bench_json_path = need_value(i, a);
        ++i;
      } else if (a == "--shards") {
        args.shards = static_cast<std::size_t>(need_number(i, a));
        ++i;
      } else if (a == "--skew") {
        args.skew = true;
      } else if (a == "--profile-out") {
        args.profile_out_path = need_value(i, a);
        ++i;
      } else if (a == "--profile-in") {
        args.profile_in_path = need_value(i, a);
        ++i;
      } else if (a == "--help" || a == "-h") {
        std::cout << "usage: " << prog
                  << " [--seed <n>] [--csv] [--trace <file>]"
                     " [--metrics <file>] [--sweep <n>] [--jobs <n>]"
                     " [--scale <n>] [--bench-json <file>]"
                     " [--shards <n>] [--skew]"
                     " [--profile-out <file>] [--profile-in <file>]\n";
        std::exit(0);
      } else {
        std::cerr << prog << ": unknown argument '" << a
                  << "' (try --help)\n";
        std::exit(2);
      }
    }
    return args;
  }

  /// For binaries without an obs wiring: warn when a trace/metrics file
  /// was requested that this binary cannot produce.
  void warn_obs_unsupported(const char* prog) const {
    warn_obs_ignored(prog, "this bench has no obs wiring");
  }

  /// Warns on stderr when a trace/metrics file was requested that this
  /// run will not write, saying why; the run goes on.
  void warn_obs_ignored(const char* prog, std::string_view why) const {
    if (trace_path.has_value() || metrics_path.has_value()) {
      std::cerr << prog << ": " << why << "; --trace/--metrics ignored\n";
    }
  }
};

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
