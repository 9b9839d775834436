#include "host/samplers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace steelnet::host {

ParetoTailSampler::ParetoTailSampler(sim::SimTime base, double tail_prob,
                                     sim::SimTime scale, double alpha,
                                     std::uint64_t seed)
    : base_(base),
      tail_prob_(tail_prob),
      scale_ns_(double(scale.nanos())),
      alpha_(alpha),
      rng_(seed) {
  if (tail_prob < 0 || tail_prob > 1) {
    throw std::invalid_argument("ParetoTailSampler: bad tail probability");
  }
}

sim::SimTime ParetoTailSampler::sample(std::size_t) {
  sim::SimTime v = base_;
  if (tail_prob_ > 0 && rng_.bernoulli(tail_prob_)) {
    v += sim::SimTime{
        static_cast<std::int64_t>(rng_.pareto(scale_ns_, alpha_))};
  }
  return v;
}

void ChainSampler::add(std::unique_ptr<LatencySampler> stage) {
  stages_.push_back(std::move(stage));
}

sim::SimTime ChainSampler::sample(std::size_t bytes) {
  sim::SimTime total = sim::SimTime::zero();
  for (auto& s : stages_) total += s->sample(bytes);
  return total;
}

ContentionScaledSampler::ContentionScaledSampler(
    std::unique_ptr<LatencySampler> inner, double slope, double jitter_sigma,
    std::uint64_t seed)
    : inner_(std::move(inner)),
      slope_(slope),
      jitter_sigma_(jitter_sigma),
      rng_(seed) {
  if (!inner_) throw std::invalid_argument("ContentionScaledSampler: null");
}

void ContentionScaledSampler::set_load(std::size_t concurrent_flows) {
  load_ = std::max<std::size_t>(1, concurrent_flows);
}

sim::SimTime ContentionScaledSampler::sample(std::size_t bytes) {
  const sim::SimTime base = inner_->sample(bytes);
  const double extra = double(load_ - 1);
  double factor = 1.0 + slope_ * extra;
  if (extra > 0 && jitter_sigma_ > 0) {
    factor *= std::max(0.0, rng_.normal(1.0, jitter_sigma_ * std::sqrt(extra)));
  }
  return sim::SimTime{
      static_cast<std::int64_t>(double(base.nanos()) * factor)};
}

}  // namespace steelnet::host
