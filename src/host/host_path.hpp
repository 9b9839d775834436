// steelnet::host -- composed host rx/tx paths and the vPLC host profile.
#pragma once

#include <cstdint>
#include <memory>

#include "host/kernel.hpp"
#include "host/pcie.hpp"
#include "host/samplers.hpp"
#include "net/host_node.hpp"

namespace steelnet::host {

/// A full host path: PCIe + kernel + contention, for rx and tx, pluggable
/// into net::HostNode. Owns its samplers.
class HostPath final : public net::HostPathModel {
 public:
  /// The contention handles, when given, must point into the respective
  /// sampler chains (set_load is forwarded to them).
  HostPath(std::unique_ptr<LatencySampler> rx,
           std::unique_ptr<LatencySampler> tx,
           ContentionScaledSampler* rx_contention = nullptr,
           ContentionScaledSampler* tx_contention = nullptr);

  sim::SimTime sample_rx(std::size_t bytes) override;
  sim::SimTime sample_tx(std::size_t bytes) override;

  /// Informs contention-aware stages how many flows share the host.
  /// (No-op for paths without a ContentionScaledSampler.)
  void set_load(std::size_t concurrent_flows);

 private:
  std::unique_ptr<LatencySampler> rx_;
  std::unique_ptr<LatencySampler> tx_;
  ContentionScaledSampler* rx_contention_ = nullptr;  // borrowed from rx_
  ContentionScaledSampler* tx_contention_ = nullptr;  // borrowed from tx_
};

/// The vPLC host every experiment uses.
class HostProfile {
 public:
  /// Virtualized (container/VM) PREEMPT_RT server: PCIe + PREEMPT_RT
  /// kernel under contention, plus a vswitch/vhost traversal stage.
  static std::unique_ptr<HostPath> virtualized_rt(std::uint64_t seed);
};

}  // namespace steelnet::host
