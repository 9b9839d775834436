#include "mlnet/topologies.hpp"

#include <gtest/gtest.h>

#include "mlnet/inference.hpp"
#include "sim/simulator.hpp"

namespace steelnet::mlnet {
namespace {

using namespace steelnet::sim::literals;

TEST(MlAwarePlanner, RespectsLinkBudget) {
  const auto plan = plan_ml_aware(MlApp::kDefectDetection, 128, 0.95);
  EXPECT_GT(plan.clients_per_cell, 0u);
  // 60% of the 1 Gb/s edge link.
  EXPECT_LE(plan.cell_load_bps, 1e9 * 0.6 + plan.per_client_bps);
  EXPECT_GE(plan.cells * plan.clients_per_cell, 128u);
}

TEST(MlAwarePlanner, MoreClientsMoreCells) {
  const auto small = plan_ml_aware(MlApp::kObjectIdentification, 32, 0.95);
  const auto large = plan_ml_aware(MlApp::kObjectIdentification, 256, 0.95);
  EXPECT_EQ(small.clients_per_cell, large.clients_per_cell);
  EXPECT_GT(large.cells, small.cells);
}

TEST(MlAwarePlanner, HigherAccuracySmallerCells) {
  const auto strict = plan_ml_aware(MlApp::kDefectDetection, 128, 0.95);
  const auto relaxed = plan_ml_aware(MlApp::kDefectDetection, 128, 0.70);
  EXPECT_LE(strict.clients_per_cell, relaxed.clients_per_cell);
}

TEST(MlAwarePlanner, ZeroClientsThrows) {
  EXPECT_THROW((void)plan_ml_aware(MlApp::kDefectDetection, 0, 0.9),
               std::invalid_argument);
}

class TopologyBuild : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(TopologyBuild, AllClientsCanReachTheirServer) {
  sim::Simulator simulator;
  net::Network network{simulator};
  const auto mf = build_ml_topology(network, GetParam(),
                                    MlApp::kObjectIdentification, 16, 0.95);
  ASSERT_EQ(mf.clients.size(), 16u);
  ASSERT_FALSE(mf.servers.empty());
  ASSERT_EQ(mf.client_server.size(), 16u);

  // Ping each client's assigned server through the built fabric.
  int delivered = 0;
  for (std::size_t c = 0; c < mf.clients.size(); ++c) {
    auto& client = dynamic_cast<net::HostNode&>(network.node(mf.clients[c]));
    auto& server = dynamic_cast<net::HostNode&>(
        network.node(mf.servers[mf.client_server[c]]));
    server.set_receiver(
        [&delivered](net::Frame, sim::SimTime) { ++delivered; });
    net::Frame f;
    f.dst = server.mac();
    f.payload.resize(64);
    client.send(std::move(f));
  }
  simulator.run();
  EXPECT_EQ(delivered, 16);
}

INSTANTIATE_TEST_SUITE_P(Kinds, TopologyBuild,
                         ::testing::ValuesIn(all_topologies()));

TEST(TopologyBuild, MlAwareUsesPlannedCells) {
  sim::Simulator simulator;
  net::Network network{simulator};
  const auto plan = plan_ml_aware(MlApp::kDefectDetection, 64, 0.95);
  const auto mf = build_ml_topology(network, TopologyKind::kMlAware,
                                    MlApp::kDefectDetection, 64, 0.95);
  EXPECT_EQ(mf.servers.size(), plan.cells);
  // agg + one switch per cell
  EXPECT_EQ(mf.switches, plan.cells + 1);
}

TEST(TopologyBuild, MlAwareCellsFollowTargetAccuracy) {
  // At 0.90 a defect-detection cell holds 140 clients, so 256 clients
  // need 2 cells; cells planned for 0.95 would need 3.
  const auto plan = plan_ml_aware(MlApp::kDefectDetection, 256, 0.90);
  ASSERT_EQ(plan.cells, 2u);
  InferenceConfig cfg;
  cfg.topology = TopologyKind::kMlAware;
  cfg.app = MlApp::kDefectDetection;
  cfg.clients = 256;
  cfg.duration = 200_ms;
  cfg.target_accuracy = 0.90;
  const auto report = run_inference_experiment(cfg);
  EXPECT_EQ(report.frame_bytes,
            required_frame_bytes(MlApp::kDefectDetection, 0.90));
  EXPECT_EQ(report.servers, plan.cells);
}

TEST(TopologyBuild, RingHasSingleServer) {
  sim::Simulator simulator;
  net::Network network{simulator};
  const auto mf = build_ml_topology(network, TopologyKind::kRing,
                                    MlApp::kObjectIdentification, 32, 0.95);
  EXPECT_EQ(mf.servers.size(), 1u);
  EXPECT_EQ(mf.switches, 16u);
}

TEST(TopologyBuild, ZeroClientsThrows) {
  sim::Simulator simulator;
  net::Network network{simulator};
  EXPECT_THROW(build_ml_topology(network, TopologyKind::kRing,
                                 MlApp::kObjectIdentification, 0, 0.95),
               std::invalid_argument);
}

TEST(Inference, SmallExperimentCompletes) {
  InferenceConfig cfg;
  cfg.topology = TopologyKind::kMlAware;
  cfg.clients = 8;
  cfg.duration = 500_ms;
  const auto r = run_inference_experiment(cfg);
  EXPECT_GT(r.requests, 8u * 3);
  // Nearly every request answered (the drain window catches stragglers).
  EXPECT_GE(r.responses + 8, r.requests);
  EXPECT_GT(r.latency_ms.count(), 0u);
  EXPECT_GT(r.latency_ms.median(), 0.0);
  EXPECT_LT(r.latency_ms.median(), 50.0);
}

TEST(Inference, Fig6OrderingHoldsAtModestScale) {
  // The headline claim at reduced scale (64 clients, short run):
  // ML-aware < leaf-spine < ring in median latency.
  InferenceConfig cfg;
  cfg.app = MlApp::kDefectDetection;
  cfg.clients = 64;
  cfg.duration = 1_s;
  double medians[3] = {};
  for (TopologyKind k : all_topologies()) {
    cfg.topology = k;
    medians[std::size_t(k)] = run_inference_experiment(cfg).latency_ms.median();
  }
  EXPECT_LT(medians[std::size_t(TopologyKind::kMlAware)],
            medians[std::size_t(TopologyKind::kLeafSpine)]);
  EXPECT_LT(medians[std::size_t(TopologyKind::kLeafSpine)],
            medians[std::size_t(TopologyKind::kRing)]);
}

TEST(Inference, DeterministicForSeed) {
  InferenceConfig cfg;
  cfg.topology = TopologyKind::kLeafSpine;
  cfg.clients = 8;
  cfg.duration = 300_ms;
  cfg.seed = 77;
  const auto a = run_inference_experiment(cfg);
  const auto b = run_inference_experiment(cfg);
  EXPECT_EQ(a.requests, b.requests);
  ASSERT_EQ(a.latency_ms.count(), b.latency_ms.count());
  EXPECT_EQ(a.latency_ms.median(), b.latency_ms.median());
}

}  // namespace
}  // namespace steelnet::mlnet
