#include "mlnet/workload.hpp"

#include <gtest/gtest.h>

namespace steelnet::mlnet {
namespace {

TEST(Degradation, CleanAccuracyAtZeroSeverity) {
  for (MlApp app : all_ml_apps()) {
    for (Corruption c : {Corruption::kCompression, Corruption::kFrameLoss,
                         Corruption::kJitter}) {
      EXPECT_NEAR(accuracy(app, c, 0.0), clean_accuracy(app), 1e-9)
          << to_string(app) << "/corruption " << static_cast<int>(c);
    }
  }
}

TEST(Degradation, MonotoneNonIncreasing) {
  for (MlApp app : all_ml_apps()) {
    for (Corruption c : {Corruption::kCompression, Corruption::kFrameLoss,
                         Corruption::kJitter}) {
      double prev = 2.0;
      for (int i = 0; i <= 100; ++i) {
        const double a = accuracy(app, c, i / 100.0);
        EXPECT_LE(a, prev + 1e-12);
        prev = a;
      }
    }
  }
}

TEST(Degradation, SeverityClamped) {
  const double lo = accuracy(MlApp::kDefectDetection,
                             Corruption::kFrameLoss, -5.0);
  EXPECT_NEAR(lo, clean_accuracy(MlApp::kDefectDetection), 1e-9);
  const double hi = accuracy(MlApp::kDefectDetection,
                             Corruption::kFrameLoss, 5.0);
  EXPECT_LT(hi, 0.6);
}

TEST(Degradation, DefectDetectionMoreSensitive) {
  // §5 / [85]: fine-grained defect features degrade before coarse object
  // features at the same corruption severity.
  for (double sev : {0.3, 0.5, 0.7, 0.9}) {
    const double obj = accuracy(MlApp::kObjectIdentification,
                                Corruption::kFrameLoss, sev) -
                       clean_accuracy(MlApp::kObjectIdentification);
    const double def = accuracy(MlApp::kDefectDetection,
                                Corruption::kFrameLoss, sev) -
                       clean_accuracy(MlApp::kDefectDetection);
    EXPECT_LE(def, obj + 1e-9) << sev;
  }
}

TEST(Degradation, RequiredBytesShrinkWithLowerTargets) {
  const auto strict = required_frame_bytes(MlApp::kDefectDetection, 0.95);
  const auto relaxed = required_frame_bytes(MlApp::kDefectDetection, 0.80);
  EXPECT_LT(relaxed, strict);
  EXPECT_GT(strict, 1024u);
  EXPECT_LT(strict, workload_params(MlApp::kDefectDetection).raw_frame_bytes);
}

TEST(Degradation, DefectNeedsMoreBytesThanObjectId) {
  // Same accuracy target, heavier data: the "accuracy vs data quantity"
  // trade-off that drives network dimensioning.
  EXPECT_GT(required_frame_bytes(MlApp::kDefectDetection, 0.9),
            required_frame_bytes(MlApp::kObjectIdentification, 0.9));
}

TEST(Degradation, ImpossibleTargetThrows) {
  EXPECT_THROW((void)required_frame_bytes(MlApp::kDefectDetection, 0.999),
               std::invalid_argument);
}

TEST(Degradation, OfferedLoadMatchesBytesTimesRate) {
  const auto bytes = required_frame_bytes(MlApp::kObjectIdentification, 0.9);
  const auto params = workload_params(MlApp::kObjectIdentification);
  EXPECT_DOUBLE_EQ(client_offered_bps(MlApp::kObjectIdentification, 0.9),
                   double(bytes) * 8.0 * params.fps);
}

TEST(Workload, ParamsSane) {
  for (MlApp app : all_ml_apps()) {
    const auto p = workload_params(app);
    EXPECT_GT(p.raw_frame_bytes, 0u);
    EXPECT_GT(p.fps, 0.0);
    EXPECT_GT(p.service_ns, 0);
  }
  EXPECT_EQ(to_string(MlApp::kDefectDetection), "Defect Detection");
}

}  // namespace
}  // namespace steelnet::mlnet
