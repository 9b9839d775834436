#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace steelnet::sim {

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void SampleSet::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double SampleSet::max() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) throw std::logic_error("percentile of empty SampleSet");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile range");
  ensure_sorted();
  // Nearest-rank.
  const auto n = sorted_.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * double(n)));
  if (rank > 0) --rank;
  if (rank >= n) rank = n - 1;
  return sorted_[rank];
}

std::vector<CdfPoint> SampleSet::cdf(std::size_t max_points) const {
  ensure_sorted();
  std::vector<CdfPoint> out;
  const auto n = sorted_.size();
  if (n == 0) return out;
  const std::size_t step = std::max<std::size_t>(1, n / max_points);
  for (std::size_t i = 0; i < n; i += step) {
    out.push_back({sorted_[i], double(i + 1) / double(n)});
  }
  if (out.back().value != sorted_.back() || out.back().cum_prob != 1.0) {
    out.push_back({sorted_.back(), 1.0});
  }
  return out;
}

std::vector<double> SampleSet::successive_differences() const {
  std::vector<double> d;
  if (samples_.size() < 2) return d;
  d.reserve(samples_.size() - 1);
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    d.push_back(std::abs(samples_[i] - samples_[i - 1]));
  }
  return d;
}

double SampleSet::mean_successive_jitter() const {
  const auto d = successive_differences();
  if (d.empty()) return 0.0;
  double s = 0;
  for (double x : d) s += x;
  return s / static_cast<double>(d.size());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (bins == 0 || hi <= lo) throw std::invalid_argument("Histogram: bad range");
}

void Histogram::add(double x) {
  auto idx = static_cast<std::int64_t>((x - lo_) / width_);
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

std::uint64_t Histogram::bin_count(std::size_t i) const { return counts_.at(i); }
double Histogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}
double Histogram::bin_hi(std::size_t i) const { return bin_lo(i) + width_; }

TimeSeriesBinner::TimeSeriesBinner(SimTime bin_width) : width_(bin_width) {
  if (bin_width <= SimTime::zero()) {
    throw std::invalid_argument("TimeSeriesBinner: bin width must be positive");
  }
}

void TimeSeriesBinner::record(SimTime at, double weight) {
  if (at < SimTime::zero()) {
    throw std::invalid_argument("TimeSeriesBinner: negative time");
  }
  const auto idx = static_cast<std::size_t>(at / width_);
  if (idx >= values_.size()) values_.resize(idx + 1, 0.0);
  values_[idx] += weight;
  total_ += weight;
}

std::vector<TimeSeriesBinner::Bin> TimeSeriesBinner::bins() const {
  std::vector<Bin> out;
  out.reserve(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out.push_back({width_ * static_cast<std::int64_t>(i), values_[i]});
  }
  return out;
}

std::size_t longest_true_run(const std::vector<bool>& flags) {
  std::size_t best = 0, cur = 0;
  for (bool f : flags) {
    cur = f ? cur + 1 : 0;
    best = std::max(best, cur);
  }
  return best;
}

}  // namespace steelnet::sim
