// steelnet::obs -- the metrics registry: one named home for every counter,
// gauge and histogram in the stack.
//
// Metrics are identified by a hierarchical label path `node/module/metric`
// (e.g. "vplc1/host/frames_sent"): `node` is the network element the value
// belongs to, `module` the subsystem that produces it, `metric` the field.
// Paths are unique; registering the same path twice throws.
//
// Two ways onto the registry, both free on the hot path:
//   * bind_*  -- the value stays where it always lived (a module's counter
//     struct); the registry keeps a read-only pointer or closure and reads
//     it at snapshot time. Migration cost: zero. Hot-path cost: zero.
//   * make_*  -- the registry owns the value and hands back a stable
//     reference; new code increments that directly (one add, no lookup).
//
// Snapshots are taken in path order (a std::map walk), so identical runs
// produce byte-identical Prometheus/CSV dumps -- the registry is part of
// the determinism surface, never a perturbation of it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hpp"

namespace steelnet::obs {

/// A monotonic 64-bit counter that can live inline in a module's counter
/// struct and still be exported by name. Converts implicitly to its value
/// so existing accessors (`counters().dropped_overflow == 3`) keep working
/// unchanged after a field migrates from plain uint64_t.
class Counter {
 public:
  constexpr Counter() = default;
  constexpr Counter(std::uint64_t v) : v_(v) {}  // NOLINT(google-explicit-constructor)

  Counter& operator++() {
    ++v_;
    return *this;
  }
  Counter& operator+=(std::uint64_t d) {
    v_ += d;
    return *this;
  }
  void inc(std::uint64_t d = 1) { v_ += d; }

  constexpr operator std::uint64_t() const { return v_; }  // NOLINT
  [[nodiscard]] constexpr std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// A settable instantaneous value.
class Gauge {
 public:
  void set(double v) { v_ = v; }
  [[nodiscard]] double value() const { return v_; }

 private:
  double v_ = 0.0;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricKind k);

/// Hierarchical label set of one metric.
struct MetricPath {
  std::string node;
  std::string module;
  std::string name;

  [[nodiscard]] std::string full() const {
    return node + "/" + module + "/" + name;
  }
};

/// One metric's value at snapshot time. `hist` is non-null only for
/// histograms (and points at registry-owned storage).
struct MetricSample {
  MetricPath path;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  const sim::Histogram* hist = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registry-owned instruments (stable addresses for the caller) ---
  Counter& make_counter(MetricPath path);
  Gauge& make_gauge(MetricPath path);
  sim::Histogram& make_histogram(MetricPath path, double lo, double hi,
                                 std::size_t bins);

  // --- bound instruments: value stays with its owner, which must outlive
  //     the registry (or the registry must be dropped first; both are
  //     per-run objects in practice) ---
  void bind_counter(MetricPath path, const std::uint64_t* value);
  void bind_counter(MetricPath path, const Counter* value);
  /// A computed read-out, sampled at snapshot time.
  void bind_gauge(MetricPath path, std::function<double()> read);

  [[nodiscard]] bool contains(const MetricPath& path) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// All metrics in path order; deterministic for identical histories.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Prometheus text exposition: `steelnet_<module>_<name>{node="..."}`.
  [[nodiscard]] std::string to_prometheus() const;
  /// FNV-1a 64 of to_prometheus(), streamed without building the text.
  [[nodiscard]] std::uint64_t prometheus_fingerprint() const;

 private:
  struct Entry {
    MetricPath path;
    MetricKind kind;
    const std::uint64_t* bound_u64 = nullptr;
    const Counter* bound_counter = nullptr;
    std::function<double()> read;
    std::unique_ptr<Counter> owned_counter;
    std::unique_ptr<Gauge> owned_gauge;
    std::unique_ptr<sim::Histogram> owned_hist;

    [[nodiscard]] double value() const;
  };

  Entry& emplace(MetricPath path, MetricKind kind);
  /// The one Prometheus renderer behind to_prometheus() and its
  /// fingerprint; `Out` is a text sink (append(string_view), put(char)).
  template <typename Out>
  void render_prometheus(Out& out) const;

  std::map<std::string, Entry> entries_;  ///< keyed by full path
};

}  // namespace steelnet::obs
