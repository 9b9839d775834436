// plant_bench -- the plant-throughput benchmark program.
//
// Drives one of four workloads through steelnet's public entry points
// (net::run_campus, net::run_radio_floor, flowmon::FlowCache with the
// IPFIX codec) for a fixed wall-clock budget and prints ONE JSON document
// of raw per-iteration samples, correctness verdicts, a build/host context
// block and, with --trace 1, per-layer samples plus a Chrome-trace span
// file. perfbench/run.py aggregates the samples into the reported metrics.
//
//   plant_bench --workload <campus_uniform|campus_skew|radio_floor|
//                           flowmon_plant_tier>
//               --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Nothing inside src/ is instrumented: every span brackets one call into a
// layer's public API from this file, and every per-layer number is timed
// from here or read from a public result struct.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/traffic_mix.hpp"
#include "faults/instaplc_testbed.hpp"
#include "faults/scenario_runner.hpp"
#include "flowmon/flow_cache.hpp"
#include "flowmon/ipfix.hpp"
#include "net/campus.hpp"
#include "net/radio_backend.hpp"
#include "net/radio_floor.hpp"
#include "sim/partitioner.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace steelnet;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// --- spans -------------------------------------------------------------------

/// In-memory span recorder. A span brackets one call into a layer's public
/// functions; spans nest through an explicit parent stack and are written
/// out as Chrome trace-event JSON once the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* layer, const char* name) : t_(t) {
      if (!t_.enabled) return;
      index_ = static_cast<std::int32_t>(t_.spans_.size());
      const std::int32_t parent = t_.stack_.empty() ? -1 : t_.stack_.back();
      t_.spans_.push_back({name, layer, t_.now_ns(), 0, parent});
      t_.stack_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      t_.spans_[static_cast<std::size_t>(index_)].end_ns = t_.now_ns();
      t_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t index_ = -1;
  };

  bool enabled = false;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream out{path};
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name, s.layer, s.start_ns / 1e3,
                    (s.end_ns - s.start_ns) / 1e3, i, s.parent);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Cost of recording one span, calibrated on a scratch tracer.
double span_cost_ns() {
  Tracer t;
  t.enabled = true;
  constexpr int kN = 200'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kN; ++i) Tracer::Scope s{t, "calibrate", "span"};
  return seconds_since(t0) * 1e9 / kN;
}

// --- per-run output ----------------------------------------------------------

/// Everything one invocation reports. `samples` feed the end-to-end
/// metrics (one entry per measured iteration), `layers` the per-layer ones.
struct Report {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::vector<double>> layers;
  std::uint64_t attempted = 0;  ///< ops checked over all iterations
  std::uint64_t bad = 0;        ///< ops that failed a per-op check
  std::uint64_t fingerprint = 0;
  bool fp_stable = true;        ///< fingerprint equal across iterations
  bool invariant_ok = true;     ///< the workload's whole-run invariant
  std::string invariant;
  /// A shape check pinned at the default seed only, like the golden
  /// fingerprints (radio: degradation_monotone).
  bool default_seed_ok = true;
  std::size_t iterations = 0;
  /// Set during the warm-up iteration: its checks count, its timings don't.
  bool warming = false;

  void sample(const std::string& name, double v) {
    if (!warming) samples[name].push_back(v);
  }
  template <typename T>
  void layer(const std::string& name, T v) {
    if (!warming) layers[name].push_back(v);
  }
  void note_fingerprint(std::uint64_t fp) {
    if (!have_fingerprint) {
      fingerprint = fp;
      have_fingerprint = true;
    } else if (fp != fingerprint) {
      fp_stable = false;
    }
  }
  bool have_fingerprint = false;
};

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// --- host-speed probe --------------------------------------------------------
//
// On a shared virtual machine the vCPU's speed drifts by tens of percent
// over minutes, and the drift is the same in wall and CPU time, so longer
// runs cannot average it out. Each timed iteration is therefore bracketed
// by a fixed probe kernel that uses no steelnet code: an event-queue-like
// heap walk with random updates to a 4 MB table. Every probe call is
// emitted as a `host_slowdown` sample (its time over kProbeRefS);
// benchstats.py corrects the timings by the run's median slowdown. A
// change to steelnet cannot move the probe, so it shows in full.

/// Median probe time in a quiet phase of the reference host (a shared
/// 4-vCPU x86-64 VM, GCC 12.2 Release build). Only a scale: comparisons
/// between two builds on one host do not depend on it.
constexpr double kProbeRefS = 0.0105;
constexpr int kProbeCalls = 4;  ///< probe calls on each side of an iteration

double probe_once() {
  static std::vector<std::uint32_t> table(std::size_t{1} << 20);
  std::vector<std::uint64_t> heap;
  heap.reserve(std::size_t{1} << 14);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto t0 = Clock::now();
  for (int i = 0; i < (1 << 14); ++i) {
    heap.push_back(next() >> 20);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  for (int i = 0; i < 100'000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const std::uint64_t t = heap.back();
    heap.back() = t + (next() & 0xffff);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    table[(t ^ x) & (table.size() - 1)] += static_cast<std::uint32_t>(t);
  }
  const double s = seconds_since(t0);
  // Keeps the table live, so the updates cannot be optimised away.
  if (table[x & 1023] == 0xdeadbeef) std::fprintf(stderr, " ");
  return s;
}

void probe_host(std::vector<double>& out) {
  for (int i = 0; i < kProbeCalls; ++i) out.push_back(probe_once());
}

/// Runs one untimed warm-up iteration (first-touch page faults and heap
/// growth land there), then `iteration` until the wall budget is spent: at
/// least three timed iterations, and no new one when the typical iteration
/// would overrun. Host-speed probes bracket every timed iteration.
template <typename Fn>
void measure(double budget_s, Tracer& tracer, bool trace, Report& rep,
             Fn&& iteration) {
  const auto t0 = Clock::now();
  rep.warming = true;
  iteration();
  rep.warming = false;
  std::vector<double> iter_s;
  while (true) {
    // Traced runs alternate spans on/off so the tracer's overhead is
    // measured against untraced iterations of the same process.
    tracer.enabled = trace && iter_s.size() % 2 == 0;
    std::vector<double> probes;
    probe_host(probes);
    const auto it0 = Clock::now();
    {
      Tracer::Scope s{tracer, "bench", "iteration"};
      iteration();
    }
    iter_s.push_back(seconds_since(it0));
    probe_host(probes);
    for (const double p : probes) rep.sample("host_slowdown", p / kProbeRefS);
    rep.layer("host.slowdown", median_of(probes) / kProbeRefS);
    if (trace) {
      rep.layer(tracer.enabled ? "trace.iter_s_on" : "trace.iter_s_off",
                iter_s.back());
    }
    ++rep.iterations;
    const double elapsed = seconds_since(t0);
    if (iter_s.size() >= 3 && elapsed + median_of(iter_s) > budget_s) break;
  }
  tracer.enabled = trace;
}

// --- campus ------------------------------------------------------------------

net::CampusOptions campus_options(std::uint64_t seed, bool skew) {
  // The BENCH_campus.json campus: 240 cells x 48 devices, 8 ms cycle.
  net::CampusOptions opt;
  opt.cells = 240;
  opt.devices_per_cell = 48;
  opt.cycle = sim::milliseconds(8);
  opt.horizon = sim::milliseconds(250);
  opt.backbone_degree = 3;
  opt.seed = seed;
  opt.skew = skew;
  return opt;
}

/// Directed backbone channels whose endpoints sit on different shards,
/// for the campus ring-with-chords wiring (cell i -> i+1 .. i+degree).
std::uint64_t cut_channels(const std::vector<std::uint32_t>& partition,
                           std::size_t degree) {
  const std::size_t n = partition.size();
  std::uint64_t cut = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 1; d <= std::min(degree, n - 1); ++d) {
      if (partition[i] != partition[(i + d) % n]) ++cut;
    }
  }
  return cut;
}

template <typename Cells>
std::uint64_t frames_delivered(const Cells& cells) {
  std::uint64_t n = 0;
  for (const auto& c : cells) n += c.frames_delivered;
  return n;
}

/// Times the three artifact renderers and the fingerprint of a result.
template <typename Result>
std::uint64_t render_and_fingerprint(const Result& r, Tracer& tracer,
                                     Report& rep, double& setup_extra_s) {
  const auto t0 = Clock::now();
  std::size_t bytes = 0;
  {
    Tracer::Scope s{tracer, "report", "render"};
    bytes += r.to_csv().size();
    bytes += r.to_prometheus().size();
    bytes += r.to_chrome_trace().size();
  }
  const double render_s = seconds_since(t0);
  const auto t1 = Clock::now();
  std::uint64_t fp = 0;
  {
    Tracer::Scope s{tracer, "report", "fingerprint"};
    fp = r.fingerprint();
  }
  const double fp_s = seconds_since(t1);
  rep.layer("report.render_s", render_s);
  rep.layer("report.fingerprint_s", fp_s);
  rep.layer("report.bytes", bytes);
  setup_extra_s = render_s + fp_s;
  return fp;
}

/// Kernel metrics of the 1-shard run `r1`, PDES and placement metrics of
/// the 2-shard run `r2` (`cpu_s`: process CPU inside its kernel).
template <typename Result>
void kernel_layers(const Result& r1, const Result& r2, double cpu_s,
                   Report& rep) {
  const sim::ShardRunStats& s1 = r1.stats;
  const double frames = static_cast<double>(frames_delivered(r1.cells));
  rep.layer("sim.events", s1.events);
  const auto events = static_cast<double>(s1.events);
  rep.layer("sim.events_per_frame", ratio(events, frames));
  rep.layer("sim.run_s", s1.wall_seconds);
  rep.layer("sim.ns_per_event", ratio(s1.wall_seconds * 1e9, events));
  rep.layer("net.ns_per_frame", ratio(s1.wall_seconds * 1e9, frames));

  const sim::ShardRunStats& s2 = r2.stats;
  rep.layer("partition.imbalance_permille", r2.imbalance_permille);
  rep.layer("partition.shard_events_max",
            *std::max_element(r2.shard_events.begin(), r2.shard_events.end()));
  rep.layer("pdes.run_s", s2.wall_seconds);
  rep.layer("pdes.rounds", s2.rounds);
  rep.layer("pdes.fast_skips", s2.fast_skips);
  rep.layer("pdes.skip_ratio",
            ratio(s2.fast_skips, s2.rounds + s2.fast_skips));
  rep.layer("pdes.clock_publishes", s2.clock_publishes);
  rep.layer("pdes.push_spins", s2.push_spins);
  rep.layer("pdes.msgs_sent", s2.msgs_sent);
  rep.layer("pdes.msgs_delivered", s2.msgs_delivered);
  rep.layer("pdes.beyond_horizon", s2.beyond_horizon);
  rep.layer("pdes.cpu_per_wall", ratio(cpu_s, s2.wall_seconds));
  rep.layer("pdes.parallel_efficiency",
            ratio(s1.wall_seconds, s2.wall_seconds) / 2.0);
}

/// One timed call into a sharded run entry point: total call time, the
/// kernel's own wall time and the process CPU spent inside the kernel
/// (call CPU minus the single-threaded build/collect part).
template <typename Fn>
auto timed_run(Fn&& fn, double& call_s, double& kernel_cpu_s) {
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  auto r = fn();
  call_s = seconds_since(t0);
  const double outside = call_s - r.stats.wall_seconds;
  kernel_cpu_s = std::max(0.0, cpu_seconds() - cpu0 - outside);
  return r;
}

std::int64_t residual_of(const net::CellReport& c) {
  return c.conservation_residual;
}
std::int64_t residual_of(const net::RadioCellReport& c) { return c.residual; }

template <typename Cell>
std::uint64_t sum_of(const std::vector<Cell>& cells,
                     std::uint64_t Cell::*field) {
  std::uint64_t total = 0;
  for (const Cell& c : cells) total += c.*field;
  return total;
}

template <typename Cell>
std::int64_t max_abs_residual(const std::vector<Cell>& cells) {
  std::int64_t worst = 0;
  for (const Cell& c : cells) worst = std::max(worst, std::abs(residual_of(c)));
  return worst;
}

/// One timed iteration of a sharded workload: the 1-shard run `run1`, its
/// artifacts rendered and fingerprinted, then the 2-shard run `run2(r1)`.
/// Every cell's report must match between the two and show zero residual.
/// Returns both results.
template <typename Run1, typename Run2>
auto sharded_iteration(const char* span1, const char* span2, Run1&& run1,
                       Run2&& run2, Tracer& tracer, Report& rep) {
  double call1 = 0.0, cpu1 = 0.0;
  auto r1 = [&] {
    Tracer::Scope s{tracer, "net", span1};
    return timed_run(run1, call1, cpu1);
  }();
  double report_s = 0.0;
  rep.note_fingerprint(render_and_fingerprint(r1, tracer, rep, report_s));
  double call2 = 0.0, cpu2 = 0.0;
  auto r2 = [&] {
    Tracer::Scope s{tracer, "net", span2};
    return timed_run([&] { return run2(r1); }, call2, cpu2);
  }();

  rep.sample("frames_per_s_1",
             ratio(frames_delivered(r1.cells), r1.stats.wall_seconds));
  rep.sample("frames_per_s_2",
             ratio(frames_delivered(r2.cells), r2.stats.wall_seconds));
  rep.sample("setup_s", call1 - r1.stats.wall_seconds + report_s);
  for (std::size_t i = 0; i < r1.cells.size(); ++i) {
    const bool same = i < r2.cells.size() && r2.cells[i] == r1.cells[i];
    if (!same || residual_of(r1.cells[i]) != 0) ++rep.bad;
  }
  rep.attempted += r1.cells.size();
  kernel_layers(r1, r2, cpu2, rep);
  return std::pair{std::move(r1), std::move(r2)};
}

void run_campus_workload(bool skew, std::uint64_t seed, double budget_s,
                         bool trace, Tracer& tracer, Report& rep) {
  rep.invariant = "cells_match_and_zero_residual";
  net::CampusResult last2;
  net::CampusResult last1;
  measure(budget_s, tracer, trace, rep, [&] {
    const net::CampusOptions opt = campus_options(seed, skew);
    auto [r1, r2] = sharded_iteration(
        "run_campus/1shard", "run_campus/2shard",
        [&] { return net::run_campus(opt); },
        [&](const net::CampusResult& one) {
          net::CampusOptions opt2 = opt;
          opt2.shards = 2;
          if (skew) {
            opt2.partitioner = net::CampusPartitioner::kMeasuredRate;
            opt2.measured_weights = one.profile.weights();
          }
          return net::run_campus(opt2);
        },
        tracer, rep);
    rep.layer("partition.cut_channels",
              cut_channels(r2.partition, opt.backbone_degree));
    last1 = std::move(r1);
    last2 = std::move(r2);
  });

  // Deterministic per-cell counters of the last 1-shard run.
  const std::vector<net::CellReport>& cells = last1.cells;
  using C = net::CellReport;
  rep.layer("net.frames_offered", sum_of(cells, &C::frames_offered));
  rep.layer("net.frames_delivered", sum_of(cells, &C::frames_delivered));
  rep.layer("net.bytes_delivered", sum_of(cells, &C::bytes_delivered));
  rep.layer("net.pool_reuse_ratio", ratio(sum_of(cells, &C::pool_reused),
                                          sum_of(cells, &C::frames_offered)));
  rep.layer("faults.dropped_loss", sum_of(cells, &C::dropped_loss));
  rep.layer("faults.dropped_link_down", sum_of(cells, &C::dropped_link_down));
  rep.layer("faults.dropped_sender_down",
            sum_of(cells, &C::dropped_sender_down));
  rep.layer("faults.dropped_receiver_down",
            sum_of(cells, &C::dropped_receiver_down));
  rep.layer("faults.node_crashes", sum_of(cells, &C::node_crashes));
  rep.layer("faults.residual_max", max_abs_residual(cells));
  rep.layer("profinet.cyclic_tx", sum_of(cells, &C::cyclic_tx));
  rep.layer("profinet.cyclic_rx", sum_of(cells, &C::cyclic_rx));
  rep.layer("profinet.device_tx", sum_of(cells, &C::device_tx));
  rep.layer("profinet.watchdog_trips", sum_of(cells, &C::watchdog_trips));
  rep.layer("profinet.outages", sum_of(cells, &C::outages));
  if (!trace) return;

  // Partitioner cost: a timed LPT call over the measured profile.
  const std::vector<std::uint64_t> weights = last1.profile.weights();
  const sim::LptPartitioner lpt;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = Clock::now();
    Tracer::Scope sp{tracer, "sim.partitioner", "LptPartitioner::assign"};
    const std::vector<std::uint32_t> a = lpt.assign(weights, 2);
    rep.layer("partition.compute_us", seconds_since(t0) * 1e6);
    if (a.size() != weights.size()) rep.invariant_ok = false;
  }

  // Prefix vs measured placement at 2 shards, side by side. The main loop
  // ran one of them (measured on skew, prefix on uniform); run the other.
  net::CampusOptions other = campus_options(seed, skew);
  other.shards = 2;
  if (!skew) {
    other.partitioner = net::CampusPartitioner::kMeasuredRate;
    other.measured_weights = weights;
  }
  const net::CampusResult ro = [&] {
    Tracer::Scope sp{tracer, "net", skew ? "run_campus/2shard/prefix"
                                         : "run_campus/2shard/measured"};
    return net::run_campus(other);
  }();
  if (ro.cells != last1.cells) rep.invariant_ok = false;
  const net::CampusResult& prefix = skew ? ro : last2;
  const net::CampusResult& measured = skew ? last2 : ro;
  const std::size_t deg = other.backbone_degree;
  rep.layer("placement.prefix.cut_channels",
            cut_channels(prefix.partition, deg));
  rep.layer("placement.prefix.clock_publishes", prefix.stats.clock_publishes);
  rep.layer("placement.prefix.run_s", prefix.stats.wall_seconds);
  rep.layer("placement.measured.cut_channels",
            cut_channels(measured.partition, deg));
  rep.layer("placement.measured.clock_publishes",
            measured.stats.clock_publishes);
  rep.layer("placement.measured.run_s", measured.stats.wall_seconds);
}

// --- radio floor -------------------------------------------------------------

// The floor's cell grid, as net::run_radio_floor builds it: the fault
// matrix crossed with the SNR ladder, then two roaming-storm cells.
constexpr double kSnrLadderDb[] = {0.0, -15.0, -25.0, -30.0, -35.0, -40.0};
struct MatrixRow {
  const char* short_name;
  const char* scenario;
};
constexpr MatrixRow kMatrix[] = {
    {"clean", "clean"},     {"silent", "silent_primary"},
    {"loss", "loss_burst"}, {"flap", "link_flap"},
    {"crash", "primary_crash"},
};

faults::FaultScenario matrix_scenario(const std::string& n,
                                      std::uint64_t seed) {
  if (n == "silent_primary") return faults::silent_primary_scenario(seed);
  if (n == "loss_burst") return faults::loss_burst_scenario(seed);
  if (n == "link_flap") return faults::link_flap_scenario(seed);
  if (n == "primary_crash") return faults::primary_crash_scenario(seed);
  faults::FaultScenario sc;
  sc.name = "clean";
  sc.seed = seed;
  return sc;
}

/// Stands up each floor cell's InstaPLC testbed on its own simulator and
/// times build, run and collect() separately -- the instaplc/obs split
/// that the sharded run folds into one call. The cell grid above mirrors
/// net::run_radio_floor; each driven testbed's outcome must match the
/// floor's report of the same cell (`floor`), so a floor that changes shape
/// fails the run instead of timing a different plant.
void drive_testbeds(const net::RadioFloorOptions& opt,
                    const net::RadioFloorResult& floor, Tracer& tracer,
                    Report& rep) {
  struct Cell {
    std::string name, scenario;
    double offset_db;
    bool roaming;
  };
  std::vector<Cell> cells;
  for (const MatrixRow& row : kMatrix) {
    for (const double off : kSnrLadderDb) {
      char name[32];
      std::snprintf(name, sizeof name, "%s_snr%02d", row.short_name,
                    static_cast<int>(-off));
      cells.push_back({name, row.scenario, off, false});
    }
  }
  cells.push_back({"roam_clean", "clean", 0.0, true});
  cells.push_back({"roam_flap", "link_flap", 0.0, true});

  if (cells.size() != floor.cells.size()) rep.invariant_ok = false;
  double build_s = 0.0, run_s = 0.0, collect_s = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const sim::Rng rng = sim::Rng(opt.seed).derive(c.name);
    auto t0 = Clock::now();
    sim::Simulator simulator;
    std::unique_ptr<net::LossyRadioBackend> backend;
    std::unique_ptr<faults::InstaPlcTestbed> testbed;
    {
      Tracer::Scope s{tracer, "instaplc", "InstaPlcTestbed::build"};
      net::RadioConfig rcfg;
      rcfg.rates = {{2.0, 6'000'000},   {5.0, 12'000'000},
                    {9.0, 24'000'000},  {12.0, 36'000'000},
                    {15.0, 48'000'000}, {18.0, 54'000'000},
                    {25.0, 100'000'000}};
      rcfg.snr_offset_db = c.offset_db;
      rcfg.seed = rng.derive("radio").next_u64();
      std::vector<net::RadioWaypoint> track;
      if (c.roaming) {
        rcfg.aps = {{"ap0", 0.0, 0.0}, {"ap1", 20.0, 0.0}};
        rcfg.roam_hysteresis_db = 2.0;
        for (int leg = 0; leg < 8; ++leg) {
          track.push_back({sim::milliseconds(400 * leg),
                           leg % 2 == 0 ? 2.0 : 18.0, 0.0});
        }
      } else {
        rcfg.aps = {{"ap0", 0.0, 0.0}};
        track.push_back({sim::SimTime::zero(), 10.0, 0.0});
      }
      backend = std::make_unique<net::LossyRadioBackend>(rcfg);
      const std::size_t station = backend->add_station("agv", std::move(track));
      faults::InstaPlcTestbed::Config tcfg;
      tcfg.opts.horizon = opt.horizon;
      tcfg.opts.switchover_cycles = opt.switchover_cycles;
      tcfg.opts.io_cycle = opt.io_cycle;
      tcfg.device_backend = backend.get();
      net::LossyRadioBackend* be = backend.get();
      tcfg.before_device_connect = [be, station](net::NodeId dev,
                                                 net::PortId dev_port,
                                                 net::NodeId sw,
                                                 net::PortId sw_port) {
        be->bind_link(dev, dev_port, sw, sw_port, station);
      };
      testbed = std::make_unique<faults::InstaPlcTestbed>(
          simulator,
          matrix_scenario(c.scenario, rng.derive("scenario").next_u64()),
          std::move(tcfg));
      testbed->start();
    }
    build_s += seconds_since(t0);
    t0 = Clock::now();
    {
      Tracer::Scope s{tracer, "sim", "Simulator::run_until"};
      simulator.run_until(opt.horizon);
    }
    run_s += seconds_since(t0);
    t0 = Clock::now();
    {
      Tracer::Scope s{tracer, "obs", "InstaPlcTestbed::collect"};
      const faults::ScenarioOutcome out = testbed->collect();
      const bool same =
          i < floor.cells.size() && floor.cells[i].name == c.name &&
          floor.cells[i].metrics_fp == out.metrics_fp &&
          floor.cells[i].trace_fp == out.trace_fp &&
          floor.cells[i].watchdog_trips == out.device_watchdog_trips;
      if (!same || out.residual != 0) rep.invariant_ok = false;
    }
    collect_s += seconds_since(t0);
  }
  rep.layer("instaplc.build_s", build_s);
  rep.layer("instaplc.run_s", run_s);
  rep.layer("instaplc.collect_s", collect_s);
  rep.layer("obs.collect_share", ratio(collect_s, build_s + run_s + collect_s));
}

void run_radio_workload(std::uint64_t seed, double budget_s, bool trace,
                        Tracer& tracer, Report& rep) {
  rep.invariant = "cells_match_and_zero_residual";
  net::RadioFloorResult last1;
  measure(budget_s, tracer, trace, rep, [&] {
    net::RadioFloorOptions opt;
    opt.seed = seed;
    auto [r1, r2] = sharded_iteration(
        "run_radio_floor/1shard", "run_radio_floor/2shard",
        [&] { return net::run_radio_floor(opt); },
        [&](const net::RadioFloorResult&) {
          net::RadioFloorOptions opt2 = opt;
          opt2.shards = 2;
          return net::run_radio_floor(opt2);
        },
        tracer, rep);
    if (!net::degradation_monotone(r1)) rep.default_seed_ok = false;
    last1 = std::move(r1);
  });

  const std::vector<net::RadioCellReport>& cells = last1.cells;
  using C = net::RadioCellReport;
  const std::uint64_t planned = sum_of(cells, &C::radio_planned);
  const std::uint64_t dropped = sum_of(cells, &C::radio_dropped_snr) +
                                sum_of(cells, &C::radio_dropped_no_assoc) +
                                sum_of(cells, &C::radio_dropped_handoff);
  rep.layer("net.frames_offered", sum_of(cells, &C::frames_offered));
  rep.layer("net.frames_delivered", sum_of(cells, &C::frames_delivered));
  rep.layer("net.radio_planned", planned);
  rep.layer("net.radio_drop_permille", ratio(dropped * 1000.0, planned));
  rep.layer("net.radio_roams", sum_of(cells, &C::roam_events));
  rep.layer("profinet.watchdog_trips", sum_of(cells, &C::watchdog_trips));
  rep.layer("faults.residual_max", max_abs_residual(cells));
  if (trace) {
    net::RadioFloorOptions opt;
    opt.seed = seed;
    drive_testbeds(opt, last1, tracer, rep);
  }
}

// --- flowmon plant tier ------------------------------------------------------

// A plant-tier meter fed the repository's §2.3 flow mix (core::MixSpec:
// 700 mice, 200 medium, 20 elephant and 80 vPLC flows per 1000), scaled
// by kMixScale and metered over kTicks sweep ticks of 100 ms:
//
//  - vPLC and elephant flows are live from the first tick to the last;
//  - mice and medium flows arrive evenly over the ticks, so over the window
//    the four class counts keep MixSpec's proportions exactly.
//
// Sizes follow core::generate_mix. A mouse carries 200 B..10 KiB in
// 800-byte frames, all inside one tick (it lasts 0.2..5 ms). A medium flow
// lasts 5..200 ms (one or two ticks) in 1400-byte frames. Elephants send
// 1500-byte frames. A vPLC frame carries 20..50 B (fast cycle) or 40..250 B
// (the §2.3 microflow ceiling, ClassifierThresholds::micro_packet_max_bytes).
//
// Packet counts of the long-lived classes are compressed, so a tick stays
// near 1.6M records: one frame per tick per vPLC flow, two per elephant,
// two per tick a medium flow is active. Those three counts are the
// workload's own choice, not taken from a measurement. Mice (inserts, then
// idle eviction after 300 ms) dominate the live set, which peaks above 1M
// flows; the long-lived flows give hits and active-timeout checkpoints.
constexpr std::uint64_t kMixScale = 1300;
constexpr int kTicks = 5;
constexpr std::int64_t kTickNs = 100'000'000;
constexpr std::size_t kRecordsPerMessage = 16;
constexpr std::uint64_t kMouseFrameBytes = 800;
constexpr std::size_t kMediumFrameBytes = 1400;
constexpr std::size_t kElephantFrameBytes = 1500;
constexpr std::uint64_t kElephantFramesPerTick = 2;
constexpr std::uint64_t kMediumFramesPerTick = 2;

/// Flows of each class, from MixSpec's proportions.
struct PlantMix {
  std::uint64_t vplc, elephants, mice_per_tick, medium_per_tick;
  std::size_t micro_max_bytes;
};

PlantMix plant_mix() {
  const core::MixSpec spec;
  const core::ClassifierThresholds th;
  return {spec.vplc_flows * kMixScale, spec.elephants * kMixScale,
          spec.mice * kMixScale / kTicks, spec.medium * kMixScale / kTicks,
          th.micro_packet_max_bytes};
}

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct MeterOutcome {
  std::uint64_t frames = 0;
  std::uint64_t exported = 0;
  std::uint64_t roundtrip_bad = 0;
  std::uint64_t order_fp = 1469598103934665603ULL;  ///< FNV-1a, export order
  std::uint64_t multiset = 0;  ///< order-free sum over exported records
  std::size_t live_peak = 0;
  double record_s = 0.0, sweep_s = 0.0, encode_s = 0.0, decode_s = 0.0;
  std::uint64_t wire_bytes = 0;
  flowmon::FlowCacheStats cache;
};

bool same_record(const flowmon::ExportRecord& a,
                 const flowmon::ExportRecord& b) {
  for (const flowmon::TemplateField& f : flowmon::flow_template().fields) {
    if (flowmon::field_value(a, f.id) != flowmon::field_value(b, f.id)) {
      return false;
    }
  }
  return true;
}

/// The meter's cache, sized for one of `shards` RSS-split meters.
std::unique_ptr<flowmon::FlowCache> make_cache(std::size_t shards,
                                               Tracer& tr) {
  flowmon::FlowCacheConfig cfg;
  cfg.capacity = (std::size_t{1} << 21) / shards;
  cfg.idle_timeout = sim::milliseconds(300);
  cfg.active_timeout = sim::milliseconds(500);
  cfg.engine = flowmon::ExpiryEngine::kWheel;
  cfg.wheel_tick = sim::SimTime{kTickNs};
  Tracer::Scope s{tr, "flowmon", "FlowCache::FlowCache"};
  return std::make_unique<flowmon::FlowCache>(cfg);
}

/// Meters the seeded flow mix into `cache`, keeping the flows whose id
/// falls in shard `shard` of `shards`. Every sweep's export batch is IPFIX
/// encoded and decoded; each record must round-trip.
MeterOutcome run_meter(flowmon::FlowCache* cache, std::uint64_t seed,
                       std::size_t shard, std::size_t shards,
                       Tracer* tracer) {
  Tracer dummy;
  Tracer& tr = tracer != nullptr ? *tracer : dummy;
  MeterOutcome out;
  Clock::time_point t0;

  const PlantMix mix = plant_mix();
  // One prebuilt frame per vPLC payload size; flows only rewrite MACs.
  std::vector<net::Frame> vplc(mix.micro_max_bytes + 1);
  for (std::size_t b = 0; b < vplc.size(); ++b) {
    vplc[b].ethertype = net::EtherType::kProfinetRt;
    vplc[b].pcp = 6;
    vplc[b].payload.assign(b, 0);
  }
  const auto ip_frame = [](std::size_t bytes) {
    net::Frame f;
    f.ethertype = net::EtherType::kIpv4;
    f.payload.assign(bytes, 0);
    return f;
  };
  net::Frame mouse = ip_frame(kMouseFrameBytes);
  net::Frame medium = ip_frame(kMediumFrameBytes);
  net::Frame elephant = ip_frame(kElephantFrameBytes);
  // A medium flow lasts 5..200 ms: two ticks when it outlasts one.
  const auto medium_two_ticks = [seed](std::uint64_t g) {
    return 5 + mix64(seed ^ (g << 8) ^ 0x3d) % 196 > 100;
  };

  // Slots of one tick, in this order: vPLC, elephants, new mice, new
  // medium flows, then the previous tick's medium flows.
  const std::uint64_t e0 = mix.vplc;
  const std::uint64_t m0 = e0 + mix.elephants;
  const std::uint64_t d0 = m0 + mix.mice_per_tick;
  const std::uint64_t p0 = d0 + mix.medium_per_tick;
  const std::uint64_t slots = p0 + mix.medium_per_tick;
  std::uint64_t stride = mix64(seed) % slots | 1;
  while (std::gcd(stride, slots) != 1) stride += 2;

  flowmon::TemplateStore store;
  std::uint32_t sequence = 0;
  std::vector<flowmon::ExportRecord> batch, chunk;
  std::vector<std::vector<std::uint8_t>> messages;
  for (int tick = 0; tick < kTicks; ++tick) {
    const std::int64_t tick_start = tick * kTickNs;
    const auto t = static_cast<std::uint64_t>(tick);
    const std::uint64_t offset = mix64(seed ^ (0x51ed + t)) % slots;
    const auto send = [&](net::Frame& f, std::uint64_t uid, std::uint64_t n,
                          std::int64_t at) {
      if (uid % shards != shard) return;
      f.src = net::MacAddress{uid};
      f.dst = net::MacAddress{(uid & 0xff0000000000ULL) | 0xff00000000ULL |
                              mix64(uid) % 1024};
      for (std::uint64_t k = 0; k < n; ++k) {
        cache->record(f, sim::SimTime{at + static_cast<std::int64_t>(k)});
      }
      out.frames += n;
    };
    t0 = Clock::now();
    {
      Tracer::Scope s{tr, "flowmon", "FlowCache::record"};
      for (std::uint64_t i = 0; i < slots; ++i) {
        const std::uint64_t j = (stride * i + offset) % slots;
        const std::int64_t at =
            tick_start + static_cast<std::int64_t>(i * (kTickNs / slots));
        if (j < e0) {
          const std::uint64_t h = mix64(seed ^ (j << 8) ^ 0x71);
          const std::size_t bytes =
              (h & 1) != 0 ? 20 + (h >> 8) % 31
                           : 40 + (h >> 8) % (mix.micro_max_bytes - 39);
          send(vplc[bytes], 0x020000000000ULL | j, 1, at);
        } else if (j < m0) {
          send(elephant, 0x040000000000ULL | j, kElephantFramesPerTick, at);
        } else if (j < d0) {
          const std::uint64_t g = t * mix.mice_per_tick + (j - m0);
          const std::uint64_t bytes = 200 + mix64(seed ^ (g << 8)) % 10041;
          send(mouse, 0x060000000000ULL | g,
               (bytes + kMouseFrameBytes - 1) / kMouseFrameBytes, at);
        } else if (j < p0) {
          const std::uint64_t g = t * mix.medium_per_tick + (j - d0);
          send(medium, 0x080000000000ULL | g, kMediumFramesPerTick, at);
        } else if (tick > 0) {
          const std::uint64_t g = (t - 1) * mix.medium_per_tick + (j - p0);
          if (medium_two_ticks(g)) {
            send(medium, 0x080000000000ULL | g, kMediumFramesPerTick, at);
          }
        }
      }
    }
    out.record_s += seconds_since(t0);
    out.live_peak = std::max(out.live_peak, cache->size());

    batch.clear();
    t0 = Clock::now();
    {
      Tracer::Scope s{tr, "flowmon", "FlowCache::sweep"};
      cache->sweep(sim::SimTime{tick_start + kTickNs},
                   [&](const flowmon::FlowRecord& r, flowmon::EndReason why) {
                     batch.push_back(flowmon::to_export_record(r, why));
                   });
    }
    out.sweep_s += seconds_since(t0);
    for (const flowmon::ExportRecord& r : batch) {
      const std::uint64_t v =
          r.key.src.bits() ^ (static_cast<std::uint64_t>(r.end_reason) << 56);
      out.order_fp = (out.order_fp ^ v) * 1099511628211ULL;
      out.multiset += mix64(v ^ (static_cast<std::uint64_t>(tick) << 48) ^
                            (r.packets << 20));
    }
    out.exported += batch.size();

    // The batch leaves as MTU-sized messages (the template rides in the
    // first); one span covers all encode_message calls, one all decodes.
    messages.clear();
    t0 = Clock::now();
    {
      Tracer::Scope s{tr, "ipfix", "encode_message"};
      for (std::size_t off = 0; off < batch.size(); off += kRecordsPerMessage) {
        const std::size_t n = std::min(kRecordsPerMessage, batch.size() - off);
        chunk.assign(batch.begin() + static_cast<std::ptrdiff_t>(off),
                     batch.begin() + static_cast<std::ptrdiff_t>(off + n));
        flowmon::MessageHeader header;
        header.observation_domain = static_cast<std::uint32_t>(shard + 1);
        header.sequence = sequence;
        header.export_time = sim::SimTime{tick_start + kTickNs};
        sequence += static_cast<std::uint32_t>(n);
        messages.push_back(flowmon::encode_message(
            header, flowmon::flow_template(), off == 0, chunk));
        out.wire_bytes += messages.back().size();
      }
    }
    out.encode_s += seconds_since(t0);
    std::vector<std::optional<flowmon::DecodedMessage>> decoded(
        messages.size());
    t0 = Clock::now();
    {
      Tracer::Scope s{tr, "ipfix", "decode_message"};
      for (std::size_t m = 0; m < messages.size(); ++m) {
        decoded[m] = flowmon::decode_message(messages[m], store, /*session=*/1);
      }
    }
    out.decode_s += seconds_since(t0);
    for (std::size_t m = 0; m < messages.size(); ++m) {
      const std::size_t off = m * kRecordsPerMessage;
      const std::size_t n = std::min(kRecordsPerMessage, batch.size() - off);
      if (!decoded[m].has_value() || decoded[m]->records.size() != n) {
        out.roundtrip_bad += n;
        continue;
      }
      for (std::size_t k = 0; k < n; ++k) {
        if (!same_record(batch[off + k], decoded[m]->records[k])) {
          ++out.roundtrip_bad;
        }
      }
    }
  }
  out.cache = cache->stats();
  return out;
}

void run_flowmon_workload(std::uint64_t seed, double budget_s, bool trace,
                          Tracer& tracer, Report& rep) {
  rep.invariant = "two_shard_export_multiset";
  measure(budget_s, tracer, trace, rep, [&] {
    // Cache construction is set-up; the meter loop is timed without it
    // and without the caches' teardown.
    const auto t0 = Clock::now();
    std::unique_ptr<flowmon::FlowCache> cache = make_cache(1, tracer);
    const double setup_s = seconds_since(t0);
    const MeterOutcome one = run_meter(cache.get(), seed, 0, 1, &tracer);
    const double loop1 = one.record_s + one.sweep_s + one.encode_s +
                         one.decode_s;
    cache.reset();

    // Two meters on two threads, flows split by id (RSS-style).
    std::unique_ptr<flowmon::FlowCache> caches[2] = {make_cache(2, tracer),
                                                     make_cache(2, tracer)};
    MeterOutcome halves[2];
    const auto t1 = Clock::now();
    {
      Tracer::Scope s{tracer, "flowmon", "meter/2shard"};
      std::exception_ptr other_error;
      std::thread other([&] {
        try {
          halves[1] = run_meter(caches[1].get(), seed, 1, 2, nullptr);
        } catch (...) {
          other_error = std::current_exception();
        }
      });
      try {
        halves[0] = run_meter(caches[0].get(), seed, 0, 2, nullptr);
      } catch (...) {
        other.join();
        throw;
      }
      other.join();
      if (other_error) std::rethrow_exception(other_error);
    }
    const double wall2 = seconds_since(t1);

    rep.note_fingerprint(one.order_fp);
    rep.sample("frames_per_s_1", ratio(one.frames, loop1));
    rep.sample("frames_per_s_2",
               ratio(halves[0].frames + halves[1].frames, wall2));
    rep.sample("setup_s", setup_s);
    rep.attempted += one.exported;
    rep.bad += one.roundtrip_bad;
    if (halves[0].multiset + halves[1].multiset != one.multiset ||
        halves[0].roundtrip_bad + halves[1].roundtrip_bad != 0 ||
        one.cache.dropped_full != 0) {
      rep.invariant_ok = false;
    }

    const auto& cs = one.cache;
    const double exported = static_cast<double>(one.exported);
    rep.layer("flowmon.record_ns", ratio(one.record_s * 1e9, one.frames));
    rep.layer("flowmon.hit_ratio", ratio(cs.hits, cs.lookups));
    rep.layer("flowmon.probes_per_lookup", ratio(cs.probes, cs.lookups));
    rep.layer("flowmon.sweep_ns_per_record",
              ratio(one.sweep_s * 1e9, exported));
    rep.layer("flowmon.rearm_ratio", ratio(cs.wheel_rearms, cs.wheel_fires));
    rep.layer("flowmon.dropped_full", cs.dropped_full);
    rep.layer("flowmon.live_flows_peak", one.live_peak);
    rep.layer("ipfix.encode_ns_per_record",
              ratio(one.encode_s * 1e9, exported));
    rep.layer("ipfix.decode_ns_per_record",
              ratio(one.decode_s * 1e9, exported));
    rep.layer("ipfix.bytes_per_record", ratio(one.wire_bytes, exported));
  });
}

// --- main --------------------------------------------------------------------

std::string context_json(const std::string& workload, std::uint64_t seed,
                         std::size_t iterations) {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  std::string out = "{\"workload\":\"" + workload + "\"";
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"repeats\":" + std::to_string(iterations);
  out += std::string(",\"build_type\":\"") +
         (optimized ? "optimized" : "unoptimized") + "\"";
  out += std::string(",\"sanitizer\":") + (sanitized ? "true" : "false");
  out += std::string(",\"baseline_ok\":") +
         (optimized && !sanitized ? "true" : "false");
  out += ",\"compiler\":\"" + std::string(__VERSION__) + "\"";
  out += ",\"hardware_concurrency\":" + std::to_string(hw);
  out += std::string(",\"host_lt_2_threads\":") + (hw < 2 ? "true" : "false");
  out += "}";
  return out;
}

std::string values_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += num(v[i]);
  }
  return out + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: plant_bench --workload <campus_uniform|campus_skew|"
               "radio_floor|flowmon_plant_tier> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      trace = v == "1";
    } else if (a == "--spans") {
      spans_path = v;
    } else {
      return usage();
    }
  }

  Tracer tracer;
  Report rep;
  try {
    if (workload == "campus_uniform" || workload == "campus_skew") {
      run_campus_workload(workload == "campus_skew", seed, seconds, trace,
                          tracer, rep);
    } else if (workload == "radio_floor") {
      run_radio_workload(seed, seconds, trace, tracer, rep);
    } else if (workload == "flowmon_plant_tier") {
      run_flowmon_workload(seed, seconds, trace, tracer, rep);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plant_bench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  if (trace) {
    rep.layer("trace.spans", tracer.size());
    rep.layer("trace.span_cost_ns", span_cost_ns());
    if (!spans_path.empty() && !tracer.write(spans_path)) {
      std::fprintf(stderr, "plant_bench: cannot write spans to %s\n",
                   spans_path.c_str());
      return 1;
    }
  }

  std::string out =
      "{\"context\":" + context_json(workload, seed, rep.iterations);
  out += ",\"peak_rss_mb\":" + num(static_cast<double>(ru.ru_maxrss) / 1024.0);
  out += ",\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : rep.samples) {
    out += (first ? "\"" : ",\"") + name + "\":" + values_json(values);
    first = false;
  }
  out += "},\"layers\":{";
  first = true;
  for (const auto& [name, values] : rep.layers) {
    out += (first ? "\"" : ",\"") + name + "\":" + values_json(values);
    first = false;
  }
  out += "},\"checks\":{\"attempted\":" + std::to_string(rep.attempted);
  out += ",\"bad\":" + std::to_string(rep.bad);
  out += ",\"fingerprint\":\"" + hex16(rep.fingerprint) + "\"";
  out += std::string(",\"fp_stable\":") + (rep.fp_stable ? "true" : "false");
  out += ",\"invariant\":\"" + rep.invariant + "\"";
  out += std::string(",\"invariant_ok\":") +
         (rep.invariant_ok ? "true" : "false");
  out += std::string(",\"default_seed_ok\":") +
         (rep.default_seed_ok ? "true" : "false");
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
