#include "mlnet/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace steelnet::mlnet {

std::string to_string(MlApp app) {
  switch (app) {
    case MlApp::kObjectIdentification: return "Object Identification";
    case MlApp::kDefectDetection: return "Defect Detection";
  }
  return "?";
}

std::vector<MlApp> all_ml_apps() {
  return {MlApp::kObjectIdentification, MlApp::kDefectDetection};
}

double clean_accuracy(MlApp app) {
  switch (app) {
    case MlApp::kObjectIdentification:
      return 0.985;
    case MlApp::kDefectDetection:
      return 0.957;  // casting dataset, pretrained [29]
  }
  return 0.0;
}

namespace {

/// Logistic fall-off: plateau until `knee`, then decay with `steepness`,
/// floored at `floor` (random-guess performance).
double falloff(double clean, double floor, double knee, double steepness,
               double severity) {
  severity = std::clamp(severity, 0.0, 1.0);
  const double x = (severity - knee) * steepness;
  const double s = 1.0 / (1.0 + std::exp(-x));
  // At severity 0 (x very negative) s ~ 0 -> clean; at 1 -> floor-ish.
  return clean - (clean - floor) * s;
}

struct CurveParams {
  double floor, knee, steepness;
};

CurveParams curve(MlApp app, Corruption c) {
  // Defect detection's fine-grained features die earlier (smaller knee,
  // steeper slope) for every corruption -- the [85] finding.
  const bool defect = app == MlApp::kDefectDetection;
  switch (c) {
    case Corruption::kCompression:
      // Knees sit near full compression: industrial JPEG pipelines shed
      // >90% of raw bytes before features start to degrade, and defect
      // detection's knee comes earlier (needs more bytes).
      return defect ? CurveParams{0.52, 0.93, 60.0}
                    : CurveParams{0.55, 0.97, 80.0};
    case Corruption::kFrameLoss:
      return defect ? CurveParams{0.45, 0.25, 10.0}
                    : CurveParams{0.52, 0.40, 10.0};
    case Corruption::kJitter:
      return defect ? CurveParams{0.60, 0.35, 8.0}
                    : CurveParams{0.65, 0.50, 8.0};
  }
  return {0.5, 0.5, 10.0};
}

}  // namespace

double accuracy(MlApp app, Corruption c, double severity) {
  const CurveParams p = curve(app, c);
  const double clean = clean_accuracy(app);
  // Anchor so that accuracy(0) == clean exactly.
  const double raw = falloff(clean, p.floor, p.knee, p.steepness, severity);
  const double at_zero = falloff(clean, p.floor, p.knee, p.steepness, 0.0);
  return raw + (clean - at_zero);
}

MlWorkloadParams workload_params(MlApp app) {
  MlWorkloadParams p;
  p.app = app;
  switch (app) {
    case MlApp::kObjectIdentification:
      p.raw_frame_bytes = 512 * 1024;  // VGA-ish frame
      p.fps = 10.0;
      p.service_ns = 200'000;  // light detector
      break;
    case MlApp::kDefectDetection:
      p.raw_frame_bytes = 512 * 1024;  // high-res inspection crop
      p.fps = 10.0;
      p.service_ns = 350'000;  // heavier classifier
      break;
  }
  return p;
}

std::size_t required_frame_bytes(MlApp app, double target_accuracy) {
  if (target_accuracy > clean_accuracy(app)) {
    throw std::invalid_argument("required_frame_bytes: target " +
                                std::to_string(target_accuracy) +
                                " exceeds clean accuracy of " +
                                to_string(app));
  }
  const auto params = workload_params(app);
  // Binary-search the largest compression severity that still meets the
  // target (accuracy is monotone non-increasing in severity).
  double lo = 0.0, hi = 1.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = (lo + hi) / 2;
    if (accuracy(app, Corruption::kCompression, mid) >= target_accuracy) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double severity = lo;
  const auto bytes = static_cast<std::size_t>(
      std::ceil(double(params.raw_frame_bytes) * (1.0 - severity)));
  return std::max<std::size_t>(bytes, 1024);
}

double client_offered_bps(MlApp app, double target_accuracy) {
  const auto params = workload_params(app);
  return double(required_frame_bytes(app, target_accuracy)) * 8.0 *
         params.fps;
}

}  // namespace steelnet::mlnet
