#include "net/radio_floor.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "core/sweep_runner.hpp"
#include "faults/instaplc_testbed.hpp"
#include "faults/scenario_runner.hpp"
#include "net/cell_artifacts.hpp"
#include "net/radio_backend.hpp"
#include "sim/random.hpp"

namespace steelnet::net {

// Testbeds run at the default timing, so the floor's constants must name it.
static_assert(RadioFloorOptions::switchover_cycles ==
              faults::RunnerOptions{}.switchover_cycles);
static_assert(RadioFloorOptions::io_cycle == faults::RunnerOptions{}.io_cycle);

namespace {

/// The SNR ladder: healthy link down to below the association floor.
/// With the default geometry (station 10 m from its AP) the mean SNR is
/// 44 dB + offset, so the rungs land at 44/29/19/14/9/4 dB -- frame-loss
/// probabilities of ~0, ~1e-5, ~1%, ~21%, ~88% and "never associates".
constexpr double kSnrLadderDb[] = {0.0, -15.0, -25.0, -30.0, -35.0, -40.0};
constexpr std::size_t kLadderRungs = std::size(kSnrLadderDb);

struct ScenarioRow {
  const char* short_name;  ///< cell-name prefix
  const char* scenario;    ///< matrix row; "clean" = no faults
};
constexpr ScenarioRow kMatrix[] = {
    {"clean", "clean"},       {"silent", "silent_primary"},
    {"loss", "loss_burst"},   {"flap", "link_flap"},
    {"crash", "primary_crash"},
};
constexpr std::size_t kMatrixRows = std::size(kMatrix);
static_assert(kMatrixRows * kLadderRungs + 2 == kRadioFloorCells);

/// Rate-adaptation ladder shared by every cell (802.11-flavored MCS
/// steps; bottom rung doubles as the receiver sensitivity floor).
std::vector<RadioRateStep> rate_ladder() {
  return {{2.0, 6'000'000},   {5.0, 12'000'000},  {9.0, 24'000'000},
          {12.0, 36'000'000}, {15.0, 48'000'000}, {18.0, 54'000'000},
          {25.0, 100'000'000}};
}

faults::FaultScenario matrix_scenario(const char* name, std::uint64_t seed) {
  const std::string n = name;
  if (n == "silent_primary") return faults::silent_primary_scenario(seed);
  if (n == "loss_burst") return faults::loss_burst_scenario(seed);
  if (n == "link_flap") return faults::link_flap_scenario(seed);
  if (n == "primary_crash") return faults::primary_crash_scenario(seed);
  faults::FaultScenario sc;
  sc.name = "clean";
  sc.seed = seed;
  return sc;
}

/// Everything one cell owns; only its shard's worker thread touches it,
/// and after the run only the pool worker that collects it.
struct FloorCell {
  std::string scenario;
  std::int64_t snr_offset_millidb = 0;
  std::uint64_t seed = 0;
  std::unique_ptr<LossyRadioBackend> backend;
  std::unique_ptr<faults::InstaPlcTestbed> testbed;
};

std::unique_ptr<FloorCell> build_cell(sim::ShardedSimulator::Cell& cell,
                                      const RadioFloorOptions& opt,
                                      const std::string& scenario_name,
                                      double snr_offset_db, bool roaming) {
  const sim::Rng cell_rng = sim::Rng(opt.seed).derive(cell.name());

  auto fc = std::make_unique<FloorCell>();
  fc->scenario = scenario_name;
  fc->snr_offset_millidb =
      static_cast<std::int64_t>(snr_offset_db * 1000.0);
  fc->seed = cell_rng.derive("scenario").next_u64();

  RadioConfig rcfg;
  rcfg.rates = rate_ladder();
  rcfg.snr_offset_db = snr_offset_db;
  rcfg.seed = cell_rng.derive("radio").next_u64();
  std::vector<RadioWaypoint> track;
  if (roaming) {
    // Two APs 20 m apart; the station shuttles between them every 400 ms,
    // roaming near the midpoint once the far AP wins by the hysteresis.
    rcfg.aps = {{"ap0", 0.0, 0.0}, {"ap1", 20.0, 0.0}};
    rcfg.roam_hysteresis_db = 2.0;
    for (int leg = 0; leg < 8; ++leg) {
      track.push_back({sim::milliseconds(400 * leg),
                       leg % 2 == 0 ? 2.0 : 18.0, 0.0});
    }
  } else {
    // One AP, station parked 10 m away: mean SNR 44 dB + ladder offset.
    rcfg.aps = {{"ap0", 0.0, 0.0}};
    track.push_back({sim::SimTime::zero(), 10.0, 0.0});
  }
  fc->backend = std::make_unique<LossyRadioBackend>(rcfg);
  const std::size_t station = fc->backend->add_station("agv", std::move(track));

  faults::InstaPlcTestbed::Config tcfg;
  tcfg.opts.horizon = opt.horizon;
  tcfg.device_backend = fc->backend.get();
  LossyRadioBackend* be = fc->backend.get();
  tcfg.before_device_connect = [be, station](NodeId dev, PortId dev_port,
                                             NodeId sw, PortId sw_port) {
    be->bind_link(dev, dev_port, sw, sw_port, station);
  };
  fc->testbed = std::make_unique<faults::InstaPlcTestbed>(
      cell.sim(), matrix_scenario(fc->scenario.c_str(), fc->seed),
      std::move(tcfg));
  fc->testbed->start();
  return fc;
}

}  // namespace

RadioFloorResult run_radio_floor(const RadioFloorOptions& opt) {
  sim::ShardedSimulator ss;
  std::vector<std::unique_ptr<FloorCell>> floor_cells;

  // Fault matrix x SNR ladder, scenario-major; then the roaming storms.
  // No inter-cell channels: every cell's lookahead is infinite.
  for (const ScenarioRow& row : kMatrix) {
    for (const double off : kSnrLadderDb) {
      char name[32];
      std::snprintf(name, sizeof(name), "%s_snr%02d", row.short_name,
                    static_cast<int>(-off));
      const std::uint32_t id = ss.add_cell(name);
      floor_cells.push_back(
          build_cell(ss.cell(id), opt, row.scenario, off, /*roaming=*/false));
    }
  }
  for (const char* scen : {"clean", "link_flap"}) {
    const std::string name =
        std::string("roam_") + (std::string(scen) == "clean" ? "clean" : "flap");
    const std::uint32_t id = ss.add_cell(name);
    floor_cells.push_back(
        build_cell(ss.cell(id), opt, scen, 0.0, /*roaming=*/true));
  }

  RadioFloorResult result;
  result.watchdog_bound_ns = faults::switchover_bound({}).nanos();
  result.io_cycle_ns = RadioFloorOptions::io_cycle.nanos();
  run_placed(ss, opt.horizon, opt.shards, opt.measured_weights, result);

  // Collection is outside the kernel's timed run. Each collect() reads
  // only its own testbed, so the cells fan out over the pool; the slots
  // come back in cell order.
  const auto outcomes = core::SweepRunner{}.run(
      floor_cells.size(),
      [&](std::size_t i) { return floor_cells[i]->testbed->collect(); });

  result.cells.reserve(floor_cells.size());
  for (std::size_t i = 0; i < floor_cells.size(); ++i) {
    sim::ShardedSimulator::Cell& cell = ss.cell(static_cast<std::uint32_t>(i));
    if (!outcomes[i].ok()) {
      throw sim::SimError("radio floor: collecting cell " + cell.name() +
                          " failed: " + outcomes[i].error);
    }
    FloorCell& fc = *floor_cells[i];
    const faults::ScenarioOutcome& out = *outcomes[i].value;
    const RadioCounters& rc = fc.backend->counters();

    RadioCellReport r;
    r.cell = static_cast<std::uint32_t>(i);
    r.name = cell.name();
    r.scenario = fc.scenario;
    r.seed = fc.seed;
    r.snr_offset_millidb = fc.snr_offset_millidb;
    r.events_executed = cell.sim().events_executed();
    r.switched_over = out.switched_over ? 1 : 0;
    r.switchover_latency_ns = out.switchover_latency.nanos();
    // Fold in the dead tail: a device that stopped producing outputs (or
    // never started) is a gap up to the horizon, not a gap of zero.
    const std::int64_t tail =
        fc.testbed->saw_output()
            ? opt.horizon.nanos() - fc.testbed->last_valid_output().nanos()
            : opt.horizon.nanos();
    r.max_output_gap_ns = std::max(out.max_output_gap.nanos(), tail);
    r.watchdog_trips = out.device_watchdog_trips;
    r.frames_offered = out.net.frames_offered;
    r.frames_delivered = out.net.frames_delivered;
    r.dropped_backend = out.net.frames_dropped_backend;
    r.residual = out.residual;
    r.radio_planned = rc.frames_planned;
    r.radio_dropped_snr = rc.dropped_snr;
    r.radio_dropped_no_assoc = rc.dropped_no_assoc;
    r.radio_dropped_handoff = rc.dropped_handoff;
    r.assoc_events = rc.assoc_events;
    r.roam_events = rc.roam_events;
    r.disassoc_events = rc.disassoc_events;
    r.rate_avg_bps =
        rc.rate_frames == 0 ? 0 : rc.rate_bps_total / rc.rate_frames;
    const std::uint64_t faded =
        rc.frames_planned - rc.dropped_no_assoc - rc.dropped_handoff;
    r.snr_avg_millidb =
        faded == 0 ? 0
                   : rc.snr_millidb_total / static_cast<std::int64_t>(faded);
    r.metrics_fp = out.metrics_fp;
    r.trace_fp = out.trace_fp;
    result.cells.push_back(std::move(r));
  }
  return result;
}

bool degradation_monotone(const RadioFloorResult& result) {
  if (result.io_cycle_ns <= 0) return false;
  const auto gap_cycles = [&](const RadioCellReport& r) {
    return r.max_output_gap_ns / result.io_cycle_ns;
  };
  for (std::size_t s = 0; s < kMatrixRows; ++s) {
    const std::size_t base = s * kLadderRungs;
    if (base + kLadderRungs > result.cells.size()) return false;
    for (std::size_t o = 1; o < kLadderRungs; ++o) {
      const RadioCellReport& prev = result.cells[base + o - 1];
      const RadioCellReport& cur = result.cells[base + o];
      if (cur.drop_permille() < prev.drop_permille()) return false;
      if (gap_cycles(cur) < gap_cycles(prev)) return false;
    }
    const RadioCellReport& healthy = result.cells[base];
    const RadioCellReport& worst = result.cells[base + kLadderRungs - 1];
    if (gap_cycles(worst) <= gap_cycles(healthy)) return false;
    if (worst.drop_permille() <= healthy.drop_permille()) return false;
  }
  return true;
}

// --- artifacts --------------------------------------------------------------

namespace {

using Column = CellColumn<RadioFloorResult, RadioCellReport>;
template <auto Member>
constexpr auto field =
    &member_value<Member, RadioFloorResult, RadioCellReport>;

using enum ColumnKind;
using enum TraceArg;

/// Every RadioCellReport column, declared once: CSV name, Prometheus name
/// (or CSV-only), kind, and the trace arg it feeds.
constexpr Column kColumns[] = {
    {"cell", nullptr, kU64, field<&RadioCellReport::cell>},
    {"name", nullptr, kString, field<&RadioCellReport::name>},
    {"scenario", nullptr, kString, field<&RadioCellReport::scenario>},
    {"seed", nullptr, kU64, field<&RadioCellReport::seed>},
    {"snr_offset_millidb", nullptr, kI64,
     field<&RadioCellReport::snr_offset_millidb>},
    {"events", "events_executed", kU64,
     field<&RadioCellReport::events_executed>, kOnSpan},
    {"switched_over", "switched_over", kU64,
     field<&RadioCellReport::switched_over>},
    {"switchover_latency_ns", "switchover_latency_ns", kI64,
     field<&RadioCellReport::switchover_latency_ns>},
    {"max_output_gap_ns", "max_output_gap_ns", kI64,
     field<&RadioCellReport::max_output_gap_ns>, kOnCounter},
    {"watchdog_bound_ns", nullptr, kI64,
     [](const RadioFloorResult& f, const RadioCellReport&) -> CellValue {
       return f.watchdog_bound_ns;
     }},
    {"watchdog_trips", "watchdog_trips", kU64,
     field<&RadioCellReport::watchdog_trips>},
    {"frames_offered", "frames_offered", kU64,
     field<&RadioCellReport::frames_offered>},
    {"frames_delivered", "frames_delivered", kU64,
     field<&RadioCellReport::frames_delivered>},
    {"dropped_backend", "dropped_backend", kU64,
     field<&RadioCellReport::dropped_backend>},
    {"radio_planned", "radio_planned", kU64,
     field<&RadioCellReport::radio_planned>},
    {"radio_dropped_snr", "radio_dropped_snr", kU64,
     field<&RadioCellReport::radio_dropped_snr>},
    {"radio_dropped_no_assoc", "radio_dropped_no_assoc", kU64,
     field<&RadioCellReport::radio_dropped_no_assoc>},
    {"radio_dropped_handoff", "radio_dropped_handoff", kU64,
     field<&RadioCellReport::radio_dropped_handoff>},
    {"drop_permille", "drop_permille", kU64,
     field<&RadioCellReport::drop_permille>, kOnSpan},
    {"assoc_events", "assoc_events", kU64,
     field<&RadioCellReport::assoc_events>},
    {"roam_events", "roam_events", kU64, field<&RadioCellReport::roam_events>,
     kOnCounter, "roams"},
    {"disassoc_events", "disassoc_events", kU64,
     field<&RadioCellReport::disassoc_events>},
    {"rate_avg_bps", "rate_avg_bps", kU64,
     field<&RadioCellReport::rate_avg_bps>},
    {"snr_avg_millidb", nullptr, kI64,
     field<&RadioCellReport::snr_avg_millidb>},
    {"residual", nullptr, kI64, field<&RadioCellReport::residual>},
    {"metrics_fp", nullptr, kHex, field<&RadioCellReport::metrics_fp>},
    {"trace_fp", nullptr, kHex, field<&RadioCellReport::trace_fp>},
    // Per-cell load-rate gauge (the calibration-profile weight). Radio
    // cells exchange no cross-shard messages, so it is just the event
    // count -- deterministic, hence safe in the fingerprinted export.
    {.csv = nullptr,
     .prom = "load_rate",
     .kind = kU64,
     .get = field<&RadioCellReport::events_executed>,
     .gauge = true},
};

constexpr CellSchema<RadioFloorResult, RadioCellReport> kSchema{
    "radio", "radio_floor", "gap", kColumns};

}  // namespace

std::string RadioFloorResult::to_prometheus() const {
  return render_prometheus(*this, kSchema);
}

std::string RadioFloorResult::to_chrome_trace() const {
  return render_chrome_trace(*this, kSchema);
}

std::string RadioFloorResult::to_csv() const {
  return render_csv(*this, kSchema);
}

std::uint64_t RadioFloorResult::fingerprint() const {
  return artifact_fingerprint(to_csv(), to_prometheus(), to_chrome_trace());
}

}  // namespace steelnet::net
