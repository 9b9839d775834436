#include "net/radio_backend.hpp"

#include <algorithm>
#include <cmath>

namespace steelnet::net {

namespace {
constexpr double kMinPathDistance = 1.0;  ///< meters; the PL reference
constexpr double kNoiseFloorDbm = -94.0;
constexpr double kPathLossRefDb = 40.0;  ///< loss at the 1 m reference
constexpr double kPathLossExponent = 3.0;
constexpr double kFadingSigmaDb = 3.0;  ///< per-frame lognormal shadow fading
/// Logistic frame-error curve: p_loss = 1 / (1 + exp((snr - mid)/slope)).
constexpr double kFerMidSnrDb = 12.0;
constexpr double kFerSlopeDb = 1.5;
constexpr double kAssocMinSnrDb = 5.0;  ///< weakest mean SNR worth associating
constexpr sim::SimTime kScanInterval = sim::milliseconds(50);
/// Dead air after a discovery+association exchange and after a roam.
constexpr sim::SimTime kAssocDelay = sim::milliseconds(2);
constexpr sim::SimTime kHandoffDeadTime = sim::milliseconds(5);
}  // namespace

LossyRadioBackend::LossyRadioBackend(RadioConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.aps.empty()) {
    throw LinkError(LinkErrorCode::kBadRadioConfig,
                    "LossyRadioBackend: at least one access point required");
  }
  if (cfg_.rates.empty()) {
    throw LinkError(LinkErrorCode::kBadRadioConfig,
                    "LossyRadioBackend: empty rate ladder");
  }
  for (std::size_t i = 0; i < cfg_.rates.size(); ++i) {
    if (cfg_.rates[i].bits_per_second < kMinLinkBitRate) {
      throw LinkError(LinkErrorCode::kBadRadioConfig,
                      "LossyRadioBackend: rate rung " + std::to_string(i) +
                          " below kMinLinkBitRate");
    }
    if (i > 0 && cfg_.rates[i].min_snr_db <= cfg_.rates[i - 1].min_snr_db) {
      throw LinkError(LinkErrorCode::kBadRadioConfig,
                      "LossyRadioBackend: rate ladder min_snr_db must be "
                      "strictly ascending");
    }
  }
}

std::size_t LossyRadioBackend::add_station(
    std::string name, std::vector<RadioWaypoint> waypoints) {
  if (waypoints.empty()) {
    throw LinkError(LinkErrorCode::kBadRadioConfig,
                    "add_station '" + name + "': empty waypoint track");
  }
  for (std::size_t i = 1; i < waypoints.size(); ++i) {
    if (waypoints[i].at < waypoints[i - 1].at) {
      throw LinkError(LinkErrorCode::kBadRadioConfig,
                      "add_station '" + name + "': waypoints not time-sorted");
    }
  }
  Station s;
  s.name = std::move(name);
  s.waypoints = std::move(waypoints);
  const sim::Rng root(cfg_.seed);
  s.fade_rng = root.derive("radio/fade/" + s.name);
  s.loss_rng = root.derive("radio/loss/" + s.name);
  stations_.push_back(std::move(s));
  return stations_.size() - 1;
}

void LossyRadioBackend::bind_link(NodeId a, PortId port_a, NodeId b,
                                  PortId port_b, std::size_t station) {
  if (station >= stations_.size()) {
    throw LinkError(LinkErrorCode::kUnboundStation,
                    "bind_link: station id " + std::to_string(station) +
                        " out of range");
  }
  for (const std::uint64_t k : {link_key(a, port_a), link_key(b, port_b)}) {
    if (bindings_.contains(k)) {
      throw LinkError(LinkErrorCode::kDuplicateBinding,
                      "bind_link: direction already bound to a station");
    }
  }
  bindings_.emplace(link_key(a, port_a), station);
  bindings_.emplace(link_key(b, port_b), station);
}

void LossyRadioBackend::validate_link(NodeId node, PortId port,
                                      const LinkParams& params) {
  (void)params;
  if (!bindings_.contains(link_key(node, port))) {
    throw LinkError(LinkErrorCode::kUnboundStation,
                    "LossyRadioBackend: (" + std::to_string(node) + ", p" +
                        std::to_string(port) +
                        ") has no bound station -- call bind_link before "
                        "Network::connect");
  }
}

LossyRadioBackend::Station& LossyRadioBackend::station_of(NodeId node,
                                                          PortId port) {
  const auto it = bindings_.find(link_key(node, port));
  if (it == bindings_.end()) {
    throw LinkError(LinkErrorCode::kUnboundStation,
                    "LossyRadioBackend: unbound (" + std::to_string(node) +
                        ", p" + std::to_string(port) + ")");
  }
  return stations_[it->second];
}

void LossyRadioBackend::position_at(const Station& s, std::int64_t t_ns,
                                    double& x, double& y) {
  const auto& wp = s.waypoints;
  if (t_ns <= wp.front().at.nanos()) {
    x = wp.front().x;
    y = wp.front().y;
    return;
  }
  if (t_ns >= wp.back().at.nanos()) {
    x = wp.back().x;
    y = wp.back().y;
    return;
  }
  for (std::size_t i = 1; i < wp.size(); ++i) {
    if (t_ns > wp[i].at.nanos()) continue;
    const std::int64_t t0 = wp[i - 1].at.nanos();
    const std::int64_t t1 = wp[i].at.nanos();
    const double f = t1 == t0 ? 1.0
                              : static_cast<double>(t_ns - t0) /
                                    static_cast<double>(t1 - t0);
    x = wp[i - 1].x + f * (wp[i].x - wp[i - 1].x);
    y = wp[i - 1].y + f * (wp[i].y - wp[i - 1].y);
    return;
  }
  x = wp.back().x;
  y = wp.back().y;
}

double LossyRadioBackend::mean_snr_db(const Station& s, std::size_t ap,
                                      std::int64_t t_ns) const {
  double x = 0.0;
  double y = 0.0;
  position_at(s, t_ns, x, y);
  const RadioAp& a = cfg_.aps[ap];
  const double dx = x - a.x;
  const double dy = y - a.y;
  const double d = std::max(kMinPathDistance, std::sqrt(dx * dx + dy * dy));
  const double path_loss =
      kPathLossRefDb + 10.0 * kPathLossExponent * std::log10(d);
  return a.tx_power_dbm - path_loss - kNoiseFloorDbm + cfg_.snr_offset_db;
}

void LossyRadioBackend::advance(Station& s, std::int64_t now_ns) {
  while (s.next_scan_ns <= now_ns) {
    const std::int64_t t = s.next_scan_ns;
    s.next_scan_ns += kScanInterval.nanos();
    // Beacon scan: fade-free mean SNR to every AP (ties break toward the
    // lower AP index, so the decision is a pure function of time).
    std::size_t best = 0;
    double best_snr = mean_snr_db(s, 0, t);
    for (std::size_t a = 1; a < cfg_.aps.size(); ++a) {
      const double snr = mean_snr_db(s, a, t);
      if (snr > best_snr) {
        best = a;
        best_snr = snr;
      }
    }
    if (s.assoc_ap < 0) {
      if (best_snr >= kAssocMinSnrDb) {
        // Discovery + association exchange: dead air until it completes.
        s.assoc_ap = static_cast<int>(best);
        s.air_ready_ns = t + kAssocDelay.nanos();
        ++s.assoc_events;
        ++counters_.assoc_events;
      }
      continue;
    }
    const double cur_snr =
        mean_snr_db(s, static_cast<std::size_t>(s.assoc_ap), t);
    if (cur_snr < kAssocMinSnrDb) {
      // Fell below the association floor: drop off the AP and rediscover
      // at a later scan.
      s.assoc_ap = -1;
      ++counters_.disassoc_events;
      continue;
    }
    if (static_cast<int>(best) != s.assoc_ap &&
        best_snr >= cur_snr + cfg_.roam_hysteresis_db) {
      // Roam: handoff dead time, then traffic resumes on the new AP.
      s.assoc_ap = static_cast<int>(best);
      s.air_ready_ns = t + kHandoffDeadTime.nanos();
      ++s.roam_events;
      ++counters_.roam_events;
    }
  }
}

int LossyRadioBackend::rate_for(double snr_db) const {
  int best = -1;
  for (std::size_t i = 0; i < cfg_.rates.size(); ++i) {
    if (snr_db >= cfg_.rates[i].min_snr_db) best = static_cast<int>(i);
  }
  return best;
}

sim::SimTime LossyRadioBackend::serialize_estimate(NodeId node, PortId port,
                                                   const Frame& frame,
                                                   const LinkParams& params,
                                                   sim::SimTime now) {
  (void)params;
  Station& s = station_of(node, port);
  advance(s, now.nanos());
  // Fade-free estimate at the currently adapted mean-SNR rate; dead air
  // serializes at the bottom rung (most pessimistic occupancy).
  std::uint64_t bps = cfg_.rates.front().bits_per_second;
  if (s.assoc_ap >= 0 && now.nanos() >= s.air_ready_ns) {
    const int r = rate_for(
        mean_snr_db(s, static_cast<std::size_t>(s.assoc_ap), now.nanos()));
    if (r >= 0) bps = cfg_.rates[static_cast<std::size_t>(r)].bits_per_second;
  }
  return serialization_time(frame.occupancy_bytes(), bps);
}

LinkTxPlan LossyRadioBackend::plan_transmit(NodeId node, PortId port,
                                            const Frame& frame,
                                            const LinkParams& params,
                                            sim::SimTime now) {
  Station& s = station_of(node, port);
  advance(s, now.nanos());
  ++counters_.frames_planned;

  LinkTxPlan plan;
  plan.propagate = params.propagation;
  // Dead air still occupies the NIC: serialize at the bottom rung.
  plan.bits_per_second = cfg_.rates.front().bits_per_second;

  if (s.assoc_ap < 0) {
    plan.survives = false;
    plan.cause = "radio_no_assoc";
    ++counters_.dropped_no_assoc;
  } else if (now.nanos() < s.air_ready_ns) {
    plan.survives = false;
    plan.cause = "radio_handoff";
    ++counters_.dropped_handoff;
  } else {
    const double mean =
        mean_snr_db(s, static_cast<std::size_t>(s.assoc_ap), now.nanos());
    const double snr = mean + s.fade_rng.normal(0.0, kFadingSigmaDb);
    const std::int64_t mdb = std::llround(snr * 1000.0);
    counters_.snr_millidb_total += mdb;
    counters_.snr_millidb_min = std::min(counters_.snr_millidb_min, mdb);
    counters_.snr_millidb_max = std::max(counters_.snr_millidb_max, mdb);
    const int r = rate_for(snr);
    if (r < 0) {
      // Faded below receiver sensitivity.
      plan.survives = false;
      plan.cause = "radio_snr";
      ++counters_.dropped_snr;
    } else {
      plan.bits_per_second =
          cfg_.rates[static_cast<std::size_t>(r)].bits_per_second;
      counters_.rate_bps_total += plan.bits_per_second;
      ++counters_.rate_frames;
      const double p_loss =
          1.0 / (1.0 + std::exp((snr - kFerMidSnrDb) / kFerSlopeDb));
      if (s.loss_rng.bernoulli(p_loss)) {
        plan.survives = false;
        plan.cause = "radio_snr";
        ++counters_.dropped_snr;
      }
    }
  }
  plan.serialize =
      serialization_time(frame.occupancy_bytes(), plan.bits_per_second);
  return plan;
}

LossyRadioBackend::StationStatus LossyRadioBackend::station_status(
    std::size_t station) const {
  const Station& s = stations_.at(station);
  StationStatus st;
  st.associated = s.assoc_ap >= 0;
  st.ap = s.assoc_ap >= 0 ? static_cast<std::size_t>(s.assoc_ap) : 0;
  st.assoc_events = s.assoc_events;
  st.roam_events = s.roam_events;
  return st;
}

}  // namespace steelnet::net
