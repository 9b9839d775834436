#include "core/availability.hpp"

#include <cmath>
#include <stdexcept>

namespace steelnet::core {

sim::SimTime downtime_per_year(double availability) {
  if (availability < 0.0 || availability > 1.0) {
    throw std::invalid_argument("downtime_per_year: availability range");
  }
  return sim::SimTime{static_cast<std::int64_t>(
      (1.0 - availability) * kSecondsPerYear * 1e9)};
}

double nines_to_availability(double nines) {
  return 1.0 - std::pow(10.0, -nines);
}

double availability_to_nines(double availability) {
  if (availability >= 1.0) return 16.0;  // beyond double resolution
  if (availability <= 0.0) return 0.0;
  return -std::log10(1.0 - availability);
}

double failover_availability(double failures_per_year,
                             sim::SimTime outage_per_failure) {
  if (failures_per_year < 0) {
    throw std::invalid_argument("failover_availability: negative rate");
  }
  const double yearly_downtime =
      failures_per_year * outage_per_failure.seconds();
  if (yearly_downtime >= kSecondsPerYear) return 0.0;
  return 1.0 - yearly_downtime / kSecondsPerYear;
}

AvailabilityRow make_row(std::string mechanism,
                         sim::SimTime outage_per_failure,
                         double failures_per_year) {
  AvailabilityRow row;
  row.mechanism = std::move(mechanism);
  row.outage_per_failure = outage_per_failure;
  row.availability_at_12_per_year =
      failover_availability(failures_per_year, outage_per_failure);
  row.yearly_downtime_seconds =
      failures_per_year * outage_per_failure.seconds();
  row.meets_six_nines =
      row.availability_at_12_per_year >= nines_to_availability(6.0);
  return row;
}

}  // namespace steelnet::core
