// steelnet::mlnet -- the Fig. 6 inference-latency experiment.
//
// Clients ship accuracy-dimensioned frames to their assigned inference
// server; servers run a bounded pool of workers; the report is the
// client-observed request->response latency distribution.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mlnet/topologies.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace steelnet::mlnet {

/// An inference endpoint bound to a server HostNode.
class InferenceServer {
 public:
  InferenceServer(net::HostNode& host, MlWorkloadParams params);

  [[nodiscard]] std::uint64_t served() const { return served_; }
  [[nodiscard]] std::uint64_t queue_peak() const { return queue_peak_; }
  [[nodiscard]] net::HostNode& host() { return host_; }

 private:
  void on_request(net::Frame frame, sim::SimTime at);

  net::HostNode& host_;
  MlWorkloadParams params_;
  std::vector<sim::SimTime> worker_free_at_;
  std::uint64_t served_ = 0;
  std::uint64_t queue_peak_ = 0;
};

/// A camera/PLC client issuing periodic inference requests.
class InferenceClient {
 public:
  InferenceClient(net::HostNode& host, net::MacAddress server,
                  MlWorkloadParams params, std::size_t request_bytes,
                  std::uint64_t client_id, sim::SimTime start_offset);

  void stop();
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] const sim::SampleSet& latency_ms() const {
    return latency_ms_;
  }

 private:
  void send_request();
  void on_response(net::Frame frame, sim::SimTime at);

  net::HostNode& host_;
  net::MacAddress server_;
  MlWorkloadParams params_;
  std::size_t request_bytes_;
  std::uint64_t client_id_;
  std::unique_ptr<sim::PeriodicTask> task_;
  std::map<std::uint64_t, sim::SimTime> in_flight_;
  std::uint64_t seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  sim::SampleSet latency_ms_;
};

struct InferenceConfig {
  TopologyKind topology = TopologyKind::kRing;
  MlApp app = MlApp::kObjectIdentification;
  std::size_t clients = 32;
  sim::SimTime duration = sim::seconds(2);
  double target_accuracy = 0.95;
  std::uint64_t seed = 1;
};

struct InferenceReport {
  std::string topology;
  std::string app;
  std::size_t clients = 0;
  sim::SampleSet latency_ms;  ///< all clients pooled
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::size_t switches = 0;   ///< infrastructure cost proxies
  std::size_t servers = 0;
  std::size_t frame_bytes = 0;
};

/// Builds the topology, runs the workload, returns pooled latencies.
InferenceReport run_inference_experiment(const InferenceConfig& config);

}  // namespace steelnet::mlnet
