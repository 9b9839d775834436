// Reproduces Fig. 6: "ML-aware topologies achieve the lowest latency for
// both defect detection and object identification compared to traditional
// IT and OT networks."
//
// Median inference latency vs number of clients (32/64/128/256) for the
// classic industrial Ring, an IT Leaf-Spine, and the traffic-aware
// ML-aware design, for both applications.
#include <iostream>
#include <map>

#include "bench_args.hpp"
#include "core/report.hpp"
#include "mlnet/inference.hpp"

int main(int argc, char** argv) {
  using namespace steelnet;
  using namespace steelnet::sim::literals;

  using enum bench::Flag;
  const auto args = bench::BenchArgs::parse(
      argc, argv, {kSeed}, /*default_seed=*/1234);

  const std::vector<std::size_t> client_counts{32, 64, 128, 256};

  bench::Checks checks{args};
  for (mlnet::MlApp app : mlnet::all_ml_apps()) {
    std::cout << "=== Fig. 6: " << mlnet::to_string(app)
              << " -- median latency (ms) vs clients ===\n\n";
    core::TextTable table({"clients", "Ring", "Leaf Spine", "ML-aware",
                           "p99 Ring", "p99 Leaf Spine", "p99 ML-aware"});
    std::map<std::pair<int, std::size_t>, double> medians;
    for (std::size_t n : client_counts) {
      std::vector<std::string> row{std::to_string(n)};
      std::vector<std::string> p99s;
      for (mlnet::TopologyKind k : mlnet::all_topologies()) {
        mlnet::InferenceConfig cfg;
        cfg.topology = k;
        cfg.app = app;
        cfg.clients = n;
        cfg.duration = 2_s;
        cfg.seed = args.seed + n;
        const auto r = mlnet::run_inference_experiment(cfg);
        medians[{int(k), n}] = r.latency_ms.median();
        row.push_back(core::TextTable::num(r.latency_ms.median(), 3));
        p99s.push_back(core::TextTable::num(r.latency_ms.percentile(99), 3));
      }
      for (auto& p : p99s) row.push_back(std::move(p));
      table.add_row(std::move(row));
    }
    table.print(std::cout);

    bool ordering_ok = true;
    for (std::size_t n : client_counts) {
      const double ring = medians[{int(mlnet::TopologyKind::kRing), n}];
      const double ls = medians[{int(mlnet::TopologyKind::kLeafSpine), n}];
      const double ml = medians[{int(mlnet::TopologyKind::kMlAware), n}];
      if (!(ml < ls && ls < ring)) ordering_ok = false;
    }
    checks.out() << "\npaper's shape check:\n";
    checks.check(ordering_ok,
                 "ML-aware < Leaf Spine < Ring at every client count");
    std::cout << '\n';
  }

  // Infrastructure-cost context (the §5 "aligns inference accuracy with
  // infrastructure cost" point).
  std::cout << "=== infrastructure (256 clients, defect detection) ===\n\n";
  core::TextTable infra({"topology", "switches", "servers",
                         "frame bytes @0.95 acc"});
  for (mlnet::TopologyKind k : mlnet::all_topologies()) {
    mlnet::InferenceConfig cfg;
    cfg.topology = k;
    cfg.app = mlnet::MlApp::kDefectDetection;
    cfg.clients = 256;
    cfg.duration = 200_ms;  // just to build + sample
    const auto r = mlnet::run_inference_experiment(cfg);
    infra.add_row({r.topology, std::to_string(r.switches),
                   std::to_string(r.servers),
                   std::to_string(r.frame_bytes)});
  }
  infra.print(std::cout);
  return checks.exit_code();
}
