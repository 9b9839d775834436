#include <gtest/gtest.h>

#include <sstream>

#include "core/availability.hpp"
#include "core/report.hpp"
#include "core/traffic_mix.hpp"

namespace steelnet::core {
namespace {

using namespace steelnet::sim::literals;

TEST(Availability, SixNinesIs31point5Seconds) {
  const auto dt = downtime_per_year(0.999999);
  EXPECT_NEAR(dt.seconds(), 31.536, 0.01);  // the paper rounds to 31.5 s
}

TEST(Availability, NinesConversionsRoundTrip) {
  for (double nines : {2.0, 3.0, 4.0, 5.0, 6.0}) {
    EXPECT_NEAR(availability_to_nines(nines_to_availability(nines)), nines,
                1e-9);
  }
  EXPECT_NEAR(nines_to_availability(6.0), 0.999999, 1e-12);
}

TEST(Availability, FailoverMath) {
  // 12 failures/year at 100 ms outage = 1.2 s downtime -> ~7.4 nines.
  const double a = failover_availability(12.0, 100_ms);
  EXPECT_GT(a, nines_to_availability(6.0));
  // 12 failures/year at 55.4 s (worst k8s case in [57]) -> fails hard.
  const double bad = failover_availability(12.0, 55'400_ms);
  EXPECT_LT(bad, nines_to_availability(5.0));
  EXPECT_THROW((void)failover_availability(-1.0, 1_s), std::invalid_argument);
}

TEST(Availability, RowConstruction) {
  const auto row = make_row("InstaPLC", 8_ms);
  EXPECT_TRUE(row.meets_six_nines);
  const auto hw = make_row("hw-pair", 300_ms);
  EXPECT_TRUE(hw.meets_six_nines);  // 3.6 s < 31.5 s
  const auto k8s = make_row("k8s", 55'400_ms);
  EXPECT_FALSE(k8s.meets_six_nines);
}

TEST(Availability, RangeChecks) {
  EXPECT_THROW((void)downtime_per_year(1.5), std::invalid_argument);
  EXPECT_THROW((void)downtime_per_year(-0.1), std::invalid_argument);
}

TEST(TrafficMix, ClassifiesByBytes) {
  FlowStats f;
  f.total_bytes = 5 * 1024;
  EXPECT_EQ(classify(f), FlowClass::kMice);
  f.total_bytes = 600 * 1024;
  EXPECT_EQ(classify(f), FlowClass::kMedium);
  f.total_bytes = 2ull * 1024 * 1024 * 1024;
  EXPECT_EQ(classify(f), FlowClass::kElephant);
}

TEST(TrafficMix, VplcFlowIsItsOwnClass) {
  FlowStats f;
  f.periodic = true;
  f.open_ended = true;
  f.mean_packet_bytes = 40;
  f.total_bytes = 3ull * 1024 * 1024 * 1024;  // a year of tiny packets
  EXPECT_EQ(classify(f), FlowClass::kDeterministicMicroflow);
  // The bytes-only taxonomy misfiles it as an elephant (§2.3's point).
  EXPECT_EQ(classify_bytes_only(f), FlowClass::kElephant);
}

TEST(TrafficMix, LargePacketPeriodicFlowIsNotMicro) {
  FlowStats f;
  f.periodic = true;
  f.open_ended = true;
  f.mean_packet_bytes = 1400;  // video stream, not control traffic
  f.total_bytes = 100 * 1024;
  EXPECT_EQ(classify(f), FlowClass::kMedium);
}

TEST(TrafficMix, BoundaryBytesExactlyAtThresholds) {
  const ClassifierThresholds t;
  FlowStats f;
  // Exactly at mice_max_bytes is still a mouse (boundary inclusive) ...
  f.total_bytes = t.mice_max_bytes;
  EXPECT_EQ(classify(f), FlowClass::kMice);
  // ... one byte past it is medium.
  f.total_bytes = t.mice_max_bytes + 1;
  EXPECT_EQ(classify(f), FlowClass::kMedium);
  // One byte short of the elephant boundary is medium; exactly at it,
  // elephant (boundary inclusive).
  f.total_bytes = t.elephant_min_bytes - 1;
  EXPECT_EQ(classify(f), FlowClass::kMedium);
  f.total_bytes = t.elephant_min_bytes;
  EXPECT_EQ(classify(f), FlowClass::kElephant);
}

TEST(TrafficMix, MicroPacketCeilingBoundary) {
  const ClassifierThresholds t;
  FlowStats f;
  f.periodic = true;
  f.open_ended = true;
  f.total_bytes = 100 * 1024;
  // Exactly at the §2.3 payload ceiling: still a microflow.
  f.mean_packet_bytes = t.micro_packet_max_bytes;
  EXPECT_EQ(classify(f), FlowClass::kDeterministicMicroflow);
  // One byte over: falls back to the byte taxonomy.
  f.mean_packet_bytes = t.micro_packet_max_bytes + 1;
  EXPECT_EQ(classify(f), FlowClass::kMedium);
}

TEST(TrafficMix, ElephantSizedPeriodicOpenEndedFlowIsMicro) {
  // §2.3's central case: a never-ending cyclic control flow accumulates
  // elephant-scale bytes, yet must not classify as an elephant.
  FlowStats f;
  f.periodic = true;
  f.open_ended = true;
  f.mean_packet_bytes = 50;
  f.total_bytes = 5ull * 1024 * 1024 * 1024;
  EXPECT_EQ(classify(f), FlowClass::kDeterministicMicroflow);
  EXPECT_EQ(classify_bytes_only(f), FlowClass::kElephant);
}

TEST(TrafficMix, ClassifyBytesOnlyDivergesOnlyOnMicroflows) {
  // classify and classify_bytes_only agree unless the microflow triple
  // (periodic, open-ended, tiny packets) holds -- each leg alone is not
  // enough to diverge.
  const ClassifierThresholds t;
  FlowStats f;
  f.total_bytes = 100 * 1024;
  f.mean_packet_bytes = 50;
  for (int mask = 0; mask < 4; ++mask) {
    f.periodic = (mask & 1) != 0;
    f.open_ended = (mask & 2) != 0;
    if (f.periodic && f.open_ended) continue;
    EXPECT_EQ(classify(f, t), classify_bytes_only(f, t));
  }
  f.periodic = true;
  f.open_ended = true;
  EXPECT_NE(classify(f, t), classify_bytes_only(f, t));
}

TEST(TrafficMix, TabulateHonorsCustomThresholds) {
  // Scaled thresholds (as the flowmon measured window uses): a 2 MB flow
  // is an elephant once elephant_min_bytes drops to 1 MB.
  ClassifierThresholds scaled;
  scaled.elephant_min_bytes = 1024 * 1024;
  FlowStats f;
  f.total_bytes = 2 * 1024 * 1024;
  EXPECT_EQ(classify(f), FlowClass::kMedium);
  EXPECT_EQ(classify(f, scaled), FlowClass::kElephant);
  const auto rows = tabulate_mix({f}, scaled);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].klass, "elephant");
}

TEST(CsvWriter, EscapesAndPads) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"plain", "with,comma"});
  csv.add_row({"quote\"inside"});
  const auto s = csv.to_string();
  EXPECT_NE(s.find("a,b\n"), std::string::npos);
  EXPECT_NE(s.find("plain,\"with,comma\"\n"), std::string::npos);
  // Embedded quote doubled, short row padded to the header width.
  EXPECT_NE(s.find("\"quote\"\"inside\",\n"), std::string::npos);
}

TEST(TrafficMix, GeneratedMixHasAllClasses) {
  const auto flows = generate_mix(MixSpec{});
  const auto rows = tabulate_mix(flows);
  ASSERT_EQ(rows.size(), 4u);
  std::size_t total = 0;
  double share = 0;
  for (const auto& r : rows) {
    total += r.count;
    share += r.share_of_flows;
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_NEAR(share, 1.0, 1e-9);
}

TEST(TrafficMix, MicroflowsMisclassifiedByBytesOnly) {
  MixSpec spec;
  spec.observation = 3600_s;
  const auto flows = generate_mix(spec);
  for (const auto& r : tabulate_mix(flows)) {
    if (r.klass == "deterministic-microflow") {
      EXPECT_EQ(r.count, 80u);
      // Over an hour every vPLC flow has outgrown the mice bucket.
      EXPECT_EQ(r.misclassified_by_bytes_only, 80u);
    } else {
      EXPECT_EQ(r.misclassified_by_bytes_only, 0u);
    }
  }
}

TEST(TrafficMix, DeterministicPerSeed) {
  const auto a = generate_mix(MixSpec{});
  const auto b = generate_mix(MixSpec{});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].total_bytes, b[i].total_bytes);
  }
}

TEST(TextTable, FormatsAligned) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.5"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only-one"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(TextTable, NumberHelpers) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.5, 1), "50.0%");
}

TEST(AsciiCdf, RendersMonotonePlot) {
  sim::SampleSet s;
  for (int i = 0; i < 1000; ++i) s.add(double(i % 100));
  const auto plot = ascii_cdf(s, "us");
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find("us"), std::string::npos);
  sim::SampleSet empty;
  EXPECT_EQ(ascii_cdf(empty, "us"), "(no samples)\n");
}

TEST(QuantileTable, RendersAllSeries) {
  sim::SampleSet a, b;
  for (int i = 1; i <= 100; ++i) {
    a.add(i);
    b.add(i * 2);
  }
  const auto s = quantile_table({{"fast", &a}, {"slow", &b}}, "ms");
  EXPECT_NE(s.find("fast"), std::string::npos);
  EXPECT_NE(s.find("slow"), std::string::npos);
  EXPECT_NE(s.find("p99"), std::string::npos);
}

TEST(AsciiTimeseries, RendersBars) {
  sim::TimeSeriesBinner b(50_ms);
  for (int i = 0; i < 40; ++i) b.record(50_ms * i, i < 20 ? 40.0 : 20.0);
  const auto s = ascii_timeseries(b.bins(), "packets/50ms");
  EXPECT_NE(s.find('#'), std::string::npos);
  EXPECT_NE(s.find("packets/50ms"), std::string::npos);
  EXPECT_EQ(ascii_timeseries({}, "x"), "(no data)\n");
}

}  // namespace
}  // namespace steelnet::core
