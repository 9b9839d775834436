// steelnet::core -- service-availability arithmetic (§2.2).
//
// "Use cases such as motion control, mobile robots, and process
// monitoring require extreme service availability -- at least 99.9999%.
// This corresponds to a downtime of less than 31.5 s per year."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace steelnet::core {

constexpr double kSecondsPerYear = 365.0 * 24 * 3600;

/// Downtime per year implied by an availability fraction (0.999999 ->
/// ~31.5 s).
[[nodiscard]] sim::SimTime downtime_per_year(double availability);

/// "Six nines" etc. -> fraction; nines may be fractional (3.5 nines).
[[nodiscard]] double nines_to_availability(double nines);
[[nodiscard]] double availability_to_nines(double availability);

/// Expected availability of a failover system: failures arrive at
/// `failures_per_year`, each causing `outage_per_failure` of downtime
/// (detection + switchover, or repair when unprotected).
[[nodiscard]] double failover_availability(double failures_per_year,
                                           sim::SimTime outage_per_failure);

/// One row of the availability comparison table.
struct AvailabilityRow {
  std::string mechanism;
  sim::SimTime outage_per_failure;
  double availability_at_12_per_year;  ///< one failure a month
  double yearly_downtime_seconds;
  bool meets_six_nines;
};

/// Builds the comparison row for a mechanism with measured outage.
[[nodiscard]] AvailabilityRow make_row(std::string mechanism,
                                       sim::SimTime outage_per_failure,
                                       double failures_per_year = 12.0);

}  // namespace steelnet::core
