#include "mlnet/inference.hpp"

#include <algorithm>

#include "sim/random.hpp"

namespace steelnet::mlnet {

using namespace steelnet::sim::literals;

namespace {
constexpr std::size_t kResponseBytes = 256;  ///< inference verdict
}  // namespace

InferenceServer::InferenceServer(net::HostNode& host,
                                 MlWorkloadParams params)
    : host_(host),
      params_(params),
      worker_free_at_(kServerWorkers, sim::SimTime::zero()) {
  host_.set_receiver([this](net::Frame f, sim::SimTime at) {
    on_request(std::move(f), at);
  });
}

void InferenceServer::on_request(net::Frame frame, sim::SimTime at) {
  const net::MacAddress requester = frame.src;
  const std::uint64_t flow_id = frame.flow_id;
  const std::uint64_t seq = frame.seq;
  host_.network().frame_pool().recycle(std::move(frame));
  // Earliest-free worker; FIFO within the pool.
  auto it = std::min_element(worker_free_at_.begin(), worker_free_at_.end());
  const sim::SimTime start = std::max(at, *it);
  const sim::SimTime done = start + sim::SimTime{params_.service_ns};
  *it = done;
  const std::size_t backlog = static_cast<std::size_t>(
      std::count_if(worker_free_at_.begin(), worker_free_at_.end(),
                    [at](sim::SimTime t) { return t > at; }));
  queue_peak_ = std::max(queue_peak_, backlog);
  ++served_;

  net::Frame resp = host_.network().frame_pool().make(kResponseBytes);
  resp.dst = requester;
  resp.src = host_.mac();
  resp.flow_id = flow_id;
  resp.seq = seq;
  host_.network().sim().schedule_at(
      done, [this, r = std::move(resp)]() mutable {
        host_.send(std::move(r));
      });
}

InferenceClient::InferenceClient(net::HostNode& host, net::MacAddress server,
                                 MlWorkloadParams params,
                                 std::size_t request_bytes,
                                 std::uint64_t client_id,
                                 sim::SimTime start_offset)
    : host_(host),
      server_(server),
      params_(params),
      request_bytes_(request_bytes),
      client_id_(client_id) {
  host_.set_receiver([this](net::Frame f, sim::SimTime at) {
    on_response(std::move(f), at);
  });
  const auto period = sim::SimTime{
      static_cast<std::int64_t>(1e9 / params_.fps)};
  task_ = std::make_unique<sim::PeriodicTask>(
      host_.network().sim(), start_offset, period, [this] { send_request(); });
}

void InferenceClient::stop() {
  if (task_) task_->stop();
}

void InferenceClient::send_request() {
  net::Frame f = host_.network().frame_pool().make(request_bytes_);
  f.dst = server_;
  f.src = host_.mac();
  f.flow_id = client_id_;
  f.seq = seq_++;
  in_flight_[f.seq] = host_.network().sim().now();
  ++sent_;
  host_.send(std::move(f));
}

void InferenceClient::on_response(net::Frame frame, sim::SimTime at) {
  const std::uint64_t seq = frame.seq;
  host_.network().frame_pool().recycle(std::move(frame));
  const auto it = in_flight_.find(seq);
  if (it == in_flight_.end()) return;
  latency_ms_.add((at - it->second).millis());
  in_flight_.erase(it);
  ++received_;
}

InferenceReport run_inference_experiment(const InferenceConfig& config) {
  sim::Simulator simulator;
  net::Network network{simulator};
  sim::Rng rng{config.seed};

  MlFabric mf = build_ml_topology(network, config.topology, config.app,
                                  config.clients, config.target_accuracy);

  const MlWorkloadParams params = workload_params(config.app);
  const std::size_t frame_bytes =
      required_frame_bytes(config.app, config.target_accuracy);

  std::vector<std::unique_ptr<InferenceServer>> servers;
  for (net::NodeId sid : mf.servers) {
    servers.push_back(std::make_unique<InferenceServer>(
        dynamic_cast<net::HostNode&>(network.node(sid)), params));
  }

  const auto period =
      sim::SimTime{static_cast<std::int64_t>(1e9 / params.fps)};
  std::vector<std::unique_ptr<InferenceClient>> clients;
  for (std::size_t c = 0; c < mf.clients.size(); ++c) {
    auto& chost = dynamic_cast<net::HostNode&>(network.node(mf.clients[c]));
    auto& shost = dynamic_cast<net::HostNode&>(
        network.node(mf.servers[mf.client_server[c]]));
    // Random phase: industrial cameras free-run, they are not barriered.
    const auto offset = sim::SimTime{
        rng.uniform_int(0, period.nanos() - 1)};
    clients.push_back(std::make_unique<InferenceClient>(
        chost, shost.mac(), params, frame_bytes, c, offset));
  }

  simulator.run_until(config.duration);
  for (auto& c : clients) c->stop();
  simulator.run_until(config.duration + 500_ms);  // drain in-flight

  InferenceReport report;
  report.topology = to_string(config.topology);
  report.app = to_string(config.app);
  report.clients = config.clients;
  report.switches = mf.switches;
  report.servers = mf.server_count;
  report.frame_bytes = frame_bytes;
  for (auto& c : clients) {
    report.requests += c->sent();
    report.responses += c->received();
    for (double v : c->latency_ms().raw()) report.latency_ms.add(v);
  }
  return report;
}

}  // namespace steelnet::mlnet
