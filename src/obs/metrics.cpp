#include "obs/metrics.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string_view>

#include "obs/text_out.hpp"
#include "sim/hash.hpp"

namespace steelnet::obs {

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

double MetricsRegistry::Entry::value() const {
  if (bound_u64 != nullptr) return static_cast<double>(*bound_u64);
  if (bound_counter != nullptr) {
    return static_cast<double>(bound_counter->value());
  }
  if (read) return read();
  if (owned_counter) return static_cast<double>(owned_counter->value());
  if (owned_gauge) return owned_gauge->value();
  if (owned_hist) return static_cast<double>(owned_hist->count());
  return 0.0;
}

MetricsRegistry::Entry& MetricsRegistry::emplace(MetricPath path,
                                                 MetricKind kind) {
  if (path.node.empty() || path.module.empty() || path.name.empty()) {
    throw std::invalid_argument("MetricsRegistry: empty label segment in \"" +
                                path.full() + "\"");
  }
  auto [it, inserted] = entries_.try_emplace(path.full());
  if (!inserted) {
    throw std::invalid_argument("MetricsRegistry: duplicate metric \"" +
                                path.full() + "\"");
  }
  it->second.path = std::move(path);
  it->second.kind = kind;
  return it->second;
}

Counter& MetricsRegistry::make_counter(MetricPath path) {
  Entry& e = emplace(std::move(path), MetricKind::kCounter);
  e.owned_counter = std::make_unique<Counter>();
  return *e.owned_counter;
}

Gauge& MetricsRegistry::make_gauge(MetricPath path) {
  Entry& e = emplace(std::move(path), MetricKind::kGauge);
  e.owned_gauge = std::make_unique<Gauge>();
  return *e.owned_gauge;
}

sim::Histogram& MetricsRegistry::make_histogram(MetricPath path, double lo,
                                                double hi, std::size_t bins) {
  Entry& e = emplace(std::move(path), MetricKind::kHistogram);
  e.owned_hist = std::make_unique<sim::Histogram>(lo, hi, bins);
  return *e.owned_hist;
}

void MetricsRegistry::bind_counter(MetricPath path,
                                   const std::uint64_t* value) {
  if (value == nullptr) {
    throw std::invalid_argument("MetricsRegistry::bind_counter: null source");
  }
  emplace(std::move(path), MetricKind::kCounter).bound_u64 = value;
}

void MetricsRegistry::bind_counter(MetricPath path, const Counter* value) {
  if (value == nullptr) {
    throw std::invalid_argument("MetricsRegistry::bind_counter: null source");
  }
  emplace(std::move(path), MetricKind::kCounter).bound_counter = value;
}

void MetricsRegistry::bind_gauge(MetricPath path,
                                 std::function<double()> read) {
  if (!read) {
    throw std::invalid_argument("MetricsRegistry::bind_gauge: null reader");
  }
  emplace(std::move(path), MetricKind::kGauge).read = std::move(read);
}

bool MetricsRegistry::contains(const MetricPath& path) const {
  return entries_.contains(path.full());
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    (void)key;
    out.push_back({e.path, e.kind, e.value(), e.owned_hist.get()});
  }
  return out;
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else becomes '_'.
std::string prom_sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return out;
}

/// Fixed-format double: integers print bare, the rest with 6 significant
/// digits (printf's `%.0f` / `%.6g`) -- locale-free and stable across
/// platforms.
template <typename Out>
void append_num(Out& out, double v) {
  char buf[48];
  const char* end =
      v == std::floor(v) && std::abs(v) < 1e15
          ? std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed,
                          0).ptr
          : std::to_chars(buf, buf + sizeof buf, v,
                          std::chars_format::general, 6).ptr;
  out.append({buf, static_cast<std::size_t>(end - buf)});
}

}  // namespace

template <typename Out>
void MetricsRegistry::render_prometheus(Out& out) const {
  using detail::append_u64;
  for (const auto& [key, e] : entries_) {
    (void)key;
    const std::string name = "steelnet_" + prom_sanitize(e.path.module) +
                             "_" + prom_sanitize(e.path.name);
    // `<name><suffix>{node="<node>"`; the caller closes the label set.
    const auto series = [&](std::string_view suffix) {
      out.append(name);
      out.append(suffix);
      out.append("{node=\"");
      out.append(e.path.node);
      out.put('"');
    };
    out.append("# TYPE ");
    out.append(name);
    out.put(' ');
    out.append(to_string(e.kind));
    out.put('\n');
    if (e.kind == MetricKind::kHistogram && e.owned_hist != nullptr) {
      const sim::Histogram& h = *e.owned_hist;
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < h.bins(); ++i) {
        cum += h.bin_count(i);
        series("_bucket");
        out.append(",le=\"");
        append_num(out, h.bin_hi(i));
        out.append("\"} ");
        append_u64(out, cum);
        out.put('\n');
      }
      series("_bucket");
      out.append(",le=\"+Inf\"} ");
      append_u64(out, h.count());
      out.put('\n');
      series("_count");
      out.append("} ");
      append_u64(out, h.count());
      out.put('\n');
      continue;
    }
    series("");
    out.append("} ");
    append_num(out, e.value());
    out.put('\n');
  }
}

std::string MetricsRegistry::to_prometheus() const {
  std::string text;
  detail::StringOut out{text};
  render_prometheus(out);
  return text;
}

std::uint64_t MetricsRegistry::prometheus_fingerprint() const {
  sim::Fnv1aSink sink;
  render_prometheus(sink);
  return sink.digest();
}

std::string MetricsRegistry::to_csv() const {
  std::string text = "node,module,metric,kind,value\n";
  detail::StringOut out{text};
  for (const auto& [key, e] : entries_) {
    (void)key;
    text += e.path.node + ',' + e.path.module + ',' + e.path.name + ',' +
            to_string(e.kind) + ',';
    append_num(out, e.value());
    out.put('\n');
  }
  return text;
}

}  // namespace steelnet::obs
