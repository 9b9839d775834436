#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace steelnet::obs {
namespace {

TEST(Counter, BehavesLikeUint64) {
  Counter c;
  EXPECT_EQ(c, 0u);
  ++c;
  c += 3;
  c.inc();
  EXPECT_EQ(c, 5u);
  EXPECT_EQ(c.value(), 5u);
  const std::uint64_t as_int = c;  // implicit conversion keeps shims working
  EXPECT_EQ(as_int, 5u);
}

TEST(MetricsRegistry, OwnedInstruments) {
  MetricsRegistry reg;
  Counter& c = reg.make_counter({"n1", "mod", "hits"});
  Gauge& g = reg.make_gauge({"n1", "mod", "depth"});
  c += 7;
  g.set(2.5);
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  // Path order: "n1/mod/depth" < "n1/mod/hits".
  EXPECT_EQ(samples[0].path.name, "depth");
  EXPECT_EQ(samples[0].kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(samples[0].value, 2.5);
  EXPECT_EQ(samples[1].path.name, "hits");
  EXPECT_EQ(samples[1].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(samples[1].value, 7.0);
}

TEST(MetricsRegistry, BoundInstrumentsReadTheOwnerValue) {
  MetricsRegistry reg;
  std::uint64_t raw = 0;
  Counter migrated;
  reg.bind_counter({"sw0", "switch", "frames_in"}, &raw);
  reg.bind_counter({"sw0", "switch", "drops"}, &migrated);
  reg.bind_gauge({"sw0", "switch", "load"}, [&raw] {
    return static_cast<double>(raw) / 2.0;
  });
  raw = 10;
  migrated += 3;
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[0].value, 3.0);    // drops
  EXPECT_DOUBLE_EQ(samples[1].value, 10.0);   // frames_in
  EXPECT_DOUBLE_EQ(samples[2].value, 5.0);    // load
}

TEST(MetricsRegistry, DuplicatePathThrows) {
  MetricsRegistry reg;
  reg.make_counter({"n", "m", "x"});
  EXPECT_THROW(reg.make_counter({"n", "m", "x"}), std::invalid_argument);
  EXPECT_THROW(reg.make_gauge({"n", "m", "x"}), std::invalid_argument);
  std::uint64_t v = 0;
  EXPECT_THROW(reg.bind_counter({"n", "m", "x"}, &v), std::invalid_argument);
  EXPECT_TRUE(reg.contains({"n", "m", "x"}));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, EmptyLabelSegmentThrows) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.make_counter({"", "m", "x"}), std::invalid_argument);
  EXPECT_THROW(reg.make_counter({"n", "", "x"}), std::invalid_argument);
  EXPECT_THROW(reg.make_counter({"n", "m", ""}), std::invalid_argument);
}

TEST(MetricsRegistry, NullSourcesThrow) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.bind_counter({"n", "m", "a"},
                                static_cast<const std::uint64_t*>(nullptr)),
               std::invalid_argument);
  EXPECT_THROW(reg.bind_counter({"n", "m", "b"},
                                static_cast<const Counter*>(nullptr)),
               std::invalid_argument);
  EXPECT_THROW(reg.bind_gauge({"n", "m", "c"}, nullptr),
               std::invalid_argument);
}

TEST(MetricsRegistry, HistogramSnapshot) {
  MetricsRegistry reg;
  sim::Histogram& h = reg.make_histogram({"n", "m", "lat"}, 0.0, 100.0, 10);
  h.add(5.0);
  h.add(15.0);
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].kind, MetricKind::kHistogram);
  ASSERT_NE(samples[0].hist, nullptr);
  EXPECT_EQ(samples[0].hist->count(), 2u);
}

// Identical registration + mutation histories must render byte-identical
// exports: the registry walks a std::map, not insertion order.
TEST(MetricsRegistry, ExportsAreDeterministic) {
  auto build = [](MetricsRegistry& reg) {
    reg.make_counter({"b", "mod", "x"}) += 2;
    reg.make_counter({"a", "mod", "y"}) += 1;
    reg.make_gauge({"a", "mod", "g"}).set(0.5);
  };
  MetricsRegistry r1, r2;
  build(r1);
  build(r2);
  EXPECT_EQ(r1.to_prometheus(), r2.to_prometheus());
  // Path order regardless of registration order.
  const auto s = r1.snapshot();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].path.full(), "a/mod/g");
  EXPECT_EQ(s[1].path.full(), "a/mod/y");
  EXPECT_EQ(s[2].path.full(), "b/mod/x");
}

TEST(MetricsRegistry, PrometheusShape) {
  MetricsRegistry reg;
  reg.make_counter({"vplc1", "host", "sent"}) += 4;
  const auto text = reg.to_prometheus();
  EXPECT_NE(text.find("steelnet_host_sent{node=\"vplc1\"} 4"),
            std::string::npos);
}

}  // namespace
}  // namespace steelnet::obs
