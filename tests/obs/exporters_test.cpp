// Every obs export has one renderer and three outputs: the text as a
// string, the text on an ostream, and its FNV-1a 64 fingerprint streamed
// through sim::Fnv1aSink. They must agree byte for byte, including around
// and across the sink's 64 KiB buffer.
#include "obs/exporters.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "sim/hash.hpp"

namespace steelnet::obs {
namespace {

using namespace steelnet::sim::literals;

constexpr std::size_t kSinkBuffer = 64 * 1024;

/// Renders `tr` all three ways and returns the string form.
std::string expect_trace_forms_agree(const SpanTracer& tr) {
  const std::string text = chrome_trace_json(tr);
  std::ostringstream os;
  write_chrome_trace(os, tr);
  EXPECT_EQ(os.str(), text);
  EXPECT_EQ(chrome_trace_fingerprint(tr), sim::fnv1a64(text));
  return text;
}

std::string expect_prometheus_forms_agree(const MetricsRegistry& reg) {
  const std::string text = reg.to_prometheus();
  EXPECT_EQ(reg.prometheus_fingerprint(), sim::fnv1a64(text));
  return text;
}

TEST(ExportForms, EmptyTracer) {
  const SpanTracer tr;
  EXPECT_EQ(expect_trace_forms_agree(tr),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n");
}

TEST(ExportForms, TrackNamesNeedingEscapes) {
  SpanTracer tr;
  for (const char* name :
       {"quote\"d", "back\\slash", "new\nline", "tab\tbed", "ctl\x01x"}) {
    tr.add(tr.track(name), name, 1_ns, 2_ns);
  }
  const std::string text = expect_trace_forms_agree(tr);
  for (const char* escaped :
       {"quote\\\"d", "back\\\\slash", "new\\nline", "tab\\tbed",
        "ctl\\u0001x"}) {
    EXPECT_NE(text.find(std::string{"{\"name\":\""} + escaped + "\"}"),
              std::string::npos)
        << escaped;
    EXPECT_NE(text.find(std::string{"\"name\":\""} + escaped + "\",\"pid\""),
              std::string::npos)
        << escaped;
  }
}

TEST(ExportForms, SpansWithAndWithoutTraceIds) {
  SpanTracer tr;
  const TrackId t = tr.track("sw/p1");
  tr.add(t, "untraced", 500_ns, 999_ns);
  tr.hop(42, Hop::kLink, t, 3_s + 1_ns, 4_s + 2'500_ns);
  EXPECT_EQ(expect_trace_forms_agree(tr),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"name\":\"sw/p1\"}},"
            "{\"ph\":\"X\",\"cat\":\"frame\",\"name\":\"untraced\",\"pid\":1,"
            "\"tid\":0,\"ts\":0.500,\"dur\":0.499},"
            "{\"ph\":\"X\",\"cat\":\"frame\",\"name\":\"link\",\"pid\":1,"
            "\"tid\":0,\"ts\":3000000.001,\"dur\":1000002.499,"
            "\"args\":{\"trace_id\":42}}]}\n");
}

TEST(ExportForms, NegativeTimesKeepTheirSign) {
  SpanTracer tr;
  const TrackId t = tr.track("t");
  tr.add(t, "x", sim::nanoseconds(-500), 0_ns);
  tr.add(t, "y", sim::nanoseconds(-1'500), sim::nanoseconds(-1'000));
  const std::string text = expect_trace_forms_agree(tr);
  EXPECT_NE(text.find("\"ts\":-0.500,\"dur\":0.500"), std::string::npos);
  EXPECT_NE(text.find("\"ts\":-1.500,\"dur\":0.500"), std::string::npos);
}

TEST(ExportForms, TraceLongerThanTheSinkBuffer) {
  SpanTracer tr;
  const TrackId a = tr.track("a");
  const TrackId b = tr.track("b");
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    tr.add(i % 2 == 0 ? a : b, i % 3 == 0 ? "queue" : "link",
           sim::nanoseconds(static_cast<std::int64_t>(i) * 1'237),
           sim::nanoseconds(static_cast<std::int64_t>(i) * 1'237 + 811), i);
  }
  EXPECT_GT(expect_trace_forms_agree(tr).size(), 4 * kSinkBuffer);
}

TEST(ExportForms, TrackNameLongerThanTheSinkBuffer) {
  SpanTracer tr;
  const std::string plain(kSinkBuffer + 123, 'n');
  std::string escaped = plain;
  escaped[kSinkBuffer / 2] = '"';
  tr.add(tr.track("short"), "s", 0_ns, 1_ns);
  tr.add(tr.track(plain), "p", 0_ns, 1_ns);
  tr.add(tr.track(escaped), "e", 0_ns, 1_ns);
  EXPECT_GT(expect_trace_forms_agree(tr).size(), 2 * plain.size());
}

TEST(ExportForms, EmptyRegistry) {
  const MetricsRegistry reg;
  EXPECT_EQ(expect_prometheus_forms_agree(reg), "");
  EXPECT_EQ(reg.prometheus_fingerprint(), sim::kFnv1aOffset);
}

TEST(ExportForms, RegistryWithHistogram) {
  MetricsRegistry reg;
  reg.make_counter({"vplc1", "host", "sent"}) += 4;
  reg.make_gauge({"vplc1", "host", "load"}).set(0.1234567);
  sim::Histogram& h = reg.make_histogram({"sw", "queue", "delay"}, 0, 3, 3);
  h.add(0.5);
  h.add(2.5);
  h.add(2.7);
  EXPECT_EQ(expect_prometheus_forms_agree(reg),
            "# TYPE steelnet_queue_delay histogram\n"
            "steelnet_queue_delay_bucket{node=\"sw\",le=\"1\"} 1\n"
            "steelnet_queue_delay_bucket{node=\"sw\",le=\"2\"} 1\n"
            "steelnet_queue_delay_bucket{node=\"sw\",le=\"3\"} 3\n"
            "steelnet_queue_delay_bucket{node=\"sw\",le=\"+Inf\"} 3\n"
            "steelnet_queue_delay_count{node=\"sw\"} 3\n"
            "# TYPE steelnet_host_load gauge\n"
            "steelnet_host_load{node=\"vplc1\"} 0.123457\n"
            "# TYPE steelnet_host_sent counter\n"
            "steelnet_host_sent{node=\"vplc1\"} 4\n");
}

TEST(ExportForms, RegistryLongerThanTheSinkBuffer) {
  MetricsRegistry reg;
  for (int i = 0; i < 2'000; ++i) {
    reg.make_gauge({"node" + std::to_string(i), "mod", "g"}).set(i / 7.0);
  }
  EXPECT_GT(expect_prometheus_forms_agree(reg).size(), kSinkBuffer);
}

// Names the repo never uses but a caller may: a quote and a backslash, a
// comma, a line feed. Each exporter escapes them per its format.
TEST(ExportEscapes, PrometheusLabelValues) {
  MetricsRegistry reg;
  reg.make_counter({"plc\"7\\a", "host", "sent"}) += 3;
  reg.make_counter({"cell,3", "host", "sent"}) += 1;
  reg.make_counter({"two\nlines", "host", "sent"}) += 2;
  EXPECT_EQ(expect_prometheus_forms_agree(reg),
            "# TYPE steelnet_host_sent counter\n"
            "steelnet_host_sent{node=\"cell,3\"} 1\n"
            "# TYPE steelnet_host_sent counter\n"
            "steelnet_host_sent{node=\"plc\\\"7\\\\a\"} 3\n"
            "# TYPE steelnet_host_sent counter\n"
            "steelnet_host_sent{node=\"two\\nlines\"} 2\n");
}

TEST(ExportEscapes, SpansCsvFields) {
  SpanTracer tr;
  tr.add(tr.track("cell,3"), "x", 1_ns, 2_ns, 1);
  tr.add(tr.track("plc\"7\\a"), "cell,3", 3_ns, 5_ns, 2);
  tr.add(tr.track("two\nlines"), "x", 6_ns, 6_ns, 3);
  EXPECT_EQ(spans_csv(tr),
            "trace_id,track,name,start_ns,end_ns,duration_ns\n"
            "1,\"cell,3\",x,1,2,1\n"
            "2,\"plc\"\"7\\a\",\"cell,3\",3,5,2\n"
            "3,\"two\nlines\",x,6,6,0\n");
}

}  // namespace
}  // namespace steelnet::obs
