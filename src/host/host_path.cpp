#include "host/host_path.hpp"

#include <stdexcept>

namespace steelnet::host {

HostPath::HostPath(std::unique_ptr<LatencySampler> rx,
                   std::unique_ptr<LatencySampler> tx,
                   ContentionScaledSampler* rx_contention,
                   ContentionScaledSampler* tx_contention)
    : rx_(std::move(rx)),
      tx_(std::move(tx)),
      rx_contention_(rx_contention),
      tx_contention_(tx_contention) {
  if (!rx_ || !tx_) throw std::invalid_argument("HostPath: null sampler");
}

sim::SimTime HostPath::sample_rx(std::size_t bytes) {
  return rx_->sample(bytes);
}

sim::SimTime HostPath::sample_tx(std::size_t bytes) {
  return tx_->sample(bytes);
}

void HostPath::set_load(std::size_t concurrent_flows) {
  if (rx_contention_ != nullptr) rx_contention_->set_load(concurrent_flows);
  if (tx_contention_ != nullptr) tx_contention_->set_load(concurrent_flows);
}

namespace {

/// pcie + PREEMPT_RT kernel in series inside a contention scaler (handed
/// out through `contention_out`), then the vswitch/vhost hop.
std::unique_ptr<LatencySampler> make_stack(
    std::uint64_t seed, ContentionScaledSampler** contention_out) {
  auto chain = std::make_unique<ChainSampler>();
  chain->add(std::make_unique<PcieModel>(PcieConfig{}, seed ^ 0x1));
  chain->add(std::make_unique<KernelModel>(KernelKind::kPreemptRt, seed ^ 0x2));
  auto scaled = std::make_unique<ContentionScaledSampler>(
      std::move(chain), /*slope=*/0.06, /*jitter_sigma=*/0.03, seed ^ 0x3);
  *contention_out = scaled.get();
  // The virtual switch / vhost hop adds a couple of microseconds each way.
  auto stack = std::make_unique<ChainSampler>();
  stack->add(std::move(scaled));
  stack->add(std::make_unique<FixedSampler>(sim::microseconds(2)));
  return stack;
}

}  // namespace

std::unique_ptr<HostPath> HostProfile::virtualized_rt(std::uint64_t seed) {
  ContentionScaledSampler* rx_c = nullptr;
  ContentionScaledSampler* tx_c = nullptr;
  auto rx = make_stack(seed * 2 + 1, &rx_c);
  auto tx = make_stack(seed * 2 + 2, &tx_c);
  return std::make_unique<HostPath>(std::move(rx), std::move(tx), rx_c, tx_c);
}

}  // namespace steelnet::host
