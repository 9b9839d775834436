// steelnet::sim -- online and batch statistics used by every experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace steelnet::sim {

/// One (x, P(X <= x)) point of an empirical CDF.
struct CdfPoint {
  double value;
  double cum_prob;
};

/// Stores every sample; supports exact percentiles and CDF extraction.
/// Use for experiment outputs (bounded sample counts), not hot paths.
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::uint64_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Exact percentile by nearest-rank, p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  /// Empirical CDF downsampled to at most `max_points` points.
  [[nodiscard]] std::vector<CdfPoint> cdf(std::size_t max_points = 200) const;

  /// Mean absolute successive difference -- the "jitter" metric used in
  /// the paper's Fig. 4 (cycle-to-cycle variation).
  [[nodiscard]] double mean_successive_jitter() const;
  /// Per-sample |x_i - x_{i-1}| series (one shorter than the input).
  [[nodiscard]] std::vector<double> successive_differences() const;

  [[nodiscard]] const std::vector<double>& raw() const { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Fixed-width histogram over [lo, hi); out-of-range values clamp to the
/// edge bins. O(1) insert, O(bins) memory.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] std::uint64_t bin_count(std::size_t i) const;
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Bins event timestamps into fixed windows -- used for "packets per 50 ms"
/// time series (Fig. 5).
class TimeSeriesBinner {
 public:
  explicit TimeSeriesBinner(SimTime bin_width);

  void record(SimTime at, double weight = 1.0);

  struct Bin {
    SimTime start;
    double value;
  };
  /// All bins from t=0 through the last recorded event (gaps are zero).
  [[nodiscard]] std::vector<Bin> bins() const;
  [[nodiscard]] SimTime bin_width() const { return width_; }
  [[nodiscard]] double total() const { return total_; }

 private:
  SimTime width_;
  std::vector<double> values_;
  double total_ = 0.0;
};

/// Longest run of consecutive `true` flags -- used for "consecutive jitter
/// events" / watchdog analysis (§2.1).
[[nodiscard]] std::size_t longest_true_run(const std::vector<bool>& flags);

}  // namespace steelnet::sim
