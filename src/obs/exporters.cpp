#include "obs/exporters.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>

#include "obs/text_out.hpp"
#include "sim/hash.hpp"

namespace steelnet::obs {

namespace {

/// Writes through to a stream (write_chrome_trace's output).
struct StreamOut {
  std::ostream& os;

  void append(std::string_view bytes) {
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  void put(char c) { os.put(c); }
};

/// A JSON string body. Only a name holding a quote, backslash or control
/// byte is escaped; any other name is written as is.
template <typename Out>
void append_json_string(Out& out, std::string_view s) {
  const auto needs_escape = [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  };
  if (std::none_of(s.begin(), s.end(), needs_escape)) {
    out.append(s);
    return;
  }
  for (const char c : s) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                              kHex[c & 0xf]};
          out.append({esc, sizeof esc});
        } else {
          out.put(c);
        }
    }
  }
}

/// Nanoseconds rendered as microseconds with exactly three decimals --
/// Chrome trace `ts`/`dur` are in µs; three decimals keep ns resolution.
/// The sign survives a magnitude below 1 µs: -500 ns is `-0.500`.
template <typename Out>
void append_us(Out& out, sim::SimTime t) {
  const std::int64_t ns = t.nanos();
  // Unsigned negation keeps INT64_MIN's magnitude representable.
  const std::uint64_t mag = ns < 0 ? 0 - static_cast<std::uint64_t>(ns)
                                   : static_cast<std::uint64_t>(ns);
  if (ns < 0) out.put('-');
  detail::append_u64(out, mag / 1000);
  const auto frac = static_cast<unsigned>(mag % 1000);
  const char decimals[] = {'.', static_cast<char>('0' + frac / 100),
                           static_cast<char>('0' + frac / 10 % 10),
                           static_cast<char>('0' + frac % 10)};
  out.append({decimals, sizeof decimals});
}

/// The one Chrome-trace renderer: every trace export, kept or only
/// fingerprinted, is these bytes.
template <typename Out>
void render_chrome_trace(Out& out, const SpanTracer& tracer) {
  out.append("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (TrackId t = 0; t < tracer.track_count(); ++t) {
    if (!first) out.put(',');
    first = false;
    out.append("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":");
    detail::append_u64(out, t);
    out.append(",\"args\":{\"name\":\"");
    append_json_string(out, tracer.track_name(t));
    out.append("\"}}");
  }
  for (const Span& s : tracer.spans()) {
    if (!first) out.put(',');
    first = false;
    out.append("{\"ph\":\"X\",\"cat\":\"frame\",\"name\":\"");
    append_json_string(out, s.name);
    out.append("\",\"pid\":1,\"tid\":");
    detail::append_u64(out, s.track);
    out.append(",\"ts\":");
    append_us(out, s.start);
    out.append(",\"dur\":");
    append_us(out, s.duration());
    if (s.trace_id != 0) {
      out.append(",\"args\":{\"trace_id\":");
      detail::append_u64(out, s.trace_id);
      out.put('}');
    }
    out.put('}');
  }
  out.append("]}\n");
}

}  // namespace

std::string chrome_trace_json(const SpanTracer& tracer) {
  std::string text;
  detail::StringOut out{text};
  render_chrome_trace(out, tracer);
  return text;
}

void write_chrome_trace(std::ostream& os, const SpanTracer& tracer) {
  StreamOut out{os};
  render_chrome_trace(out, tracer);
}

std::uint64_t chrome_trace_fingerprint(const SpanTracer& tracer) {
  sim::Fnv1aSink sink;
  render_chrome_trace(sink, tracer);
  return sink.digest();
}

std::string spans_csv(const SpanTracer& tracer) {
  std::ostringstream os;
  os << "trace_id,track,name,start_ns,end_ns,duration_ns\n";
  for (const Span& s : tracer.spans()) {
    os << s.trace_id << ',' << tracer.track_name(s.track) << ',' << s.name
       << ',' << s.start.nanos() << ',' << s.end.nanos() << ','
       << s.duration().nanos() << '\n';
  }
  return os.str();
}

Snapshotter::Snapshotter(sim::Simulator& sim, const MetricsRegistry& registry,
                         sim::SimTime period)
    : sim_(sim),
      registry_(registry),
      task_(std::make_unique<sim::PeriodicTask>(sim, period, period,
                                                [this] { take(); })) {}

void Snapshotter::stop() {
  if (task_) task_->stop();
}

void Snapshotter::take() {
  ++taken_;
  const sim::SimTime now = sim_.now();
  for (const MetricSample& s : registry_.snapshot()) {
    series_.push_back({now, s.path, s.value});
  }
}

std::string Snapshotter::to_csv() const {
  std::ostringstream os;
  os << "time_ns,node,module,metric,value\n";
  for (const Row& r : series_) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.6g", r.value);
    os << r.at.nanos() << ',' << r.path.node << ',' << r.path.module << ','
       << r.path.name << ',' << buf << '\n';
  }
  return os.str();
}

}  // namespace steelnet::obs
