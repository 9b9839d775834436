// steelnet::mlnet -- ML inference workloads and the degradation model.
//
// §5: "The traffic input comes from analyzing ML models with degraded
// input data" -- ML inference in industrial settings suffers under
// network-induced degradation (compression artifacts, frame loss,
// jitter), especially for video-centric tasks. We model accuracy as a
// calibrated function of degradation severity per application; inverting
// the compression curve yields the frame size each client must ship to
// hit a target accuracy, which is what dimensions the network.
//
// Curve shapes follow the corruption-robustness literature (Hendrycks &
// Dietterich 2019 [53]; casting-defect benchmarking [29, 85]): accuracy
// plateaus at low severity and falls off steeply past a knee, with
// defect detection (fine-grained textures) more sensitive than object
// identification (coarse shapes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace steelnet::mlnet {

enum class MlApp : std::uint8_t {
  kObjectIdentification,
  kDefectDetection,
};

[[nodiscard]] std::string to_string(MlApp app);
[[nodiscard]] std::vector<MlApp> all_ml_apps();

enum class Corruption : std::uint8_t {
  kCompression,  ///< severity = 1 - (bytes / raw frame bytes)
  kFrameLoss,    ///< severity = loss fraction
  kJitter,       ///< severity = stddev / frame interval
};

/// Clean-input accuracy of the (pretrained, per [29]) model.
[[nodiscard]] double clean_accuracy(MlApp app);

/// Accuracy under one corruption at severity in [0, 1]. Monotone
/// non-increasing in severity; equals clean_accuracy at severity 0.
[[nodiscard]] double accuracy(MlApp app, Corruption c, double severity);

/// Parallel inference workers per server, for every application.
inline constexpr std::size_t kServerWorkers = 4;

/// Per-application workload parameters.
struct MlWorkloadParams {
  MlApp app = MlApp::kObjectIdentification;
  std::size_t raw_frame_bytes = 0;  ///< uncompressed camera frame
  double fps = 10.0;                ///< requests per second per client
  /// Per-inference service time at a server worker, nanoseconds.
  std::int64_t service_ns = 0;
};

[[nodiscard]] MlWorkloadParams workload_params(MlApp app);

/// Smallest compressed frame (bytes) that still achieves `target_accuracy`
/// under compression. Throws std::invalid_argument when the target
/// exceeds the clean accuracy.
[[nodiscard]] std::size_t required_frame_bytes(MlApp app,
                                               double target_accuracy);

/// Offered load of one client in bits per second at `target_accuracy`.
[[nodiscard]] double client_offered_bps(MlApp app, double target_accuracy);

}  // namespace steelnet::mlnet
