// steelnet::net -- the one per-cell artifact writer of the sharded plants.
//
// Each per-cell report type (CellReport, RadioCellReport) declares its
// columns once, in its runner's .cpp file: CSV name, Prometheus name or
// CSV-only, kind, and the Chrome-trace arg it feeds. That one list drives
// the CSV header, the CSV rows, the Prometheus family and the trace, so
// the three artifacts cannot drift apart; artifact_fingerprint() pins all
// three in one number. Included by the runners only -- callers use the
// results' to_csv()/to_prometheus()/to_chrome_trace()/fingerprint().
//
// The renderers read the per-cell reports (and result-level constants)
// only -- never ShardRunStats' timing-dependent fields -- so the bytes are
// invariant to shard count, partitioner and thread scheduling.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "sim/hash.hpp"

namespace steelnet::net {

/// How a column's value is written.
enum class ColumnKind : std::uint8_t {
  kU64,     ///< unsigned decimal
  kI64,     ///< signed decimal; a Prometheus counter takes its u64 bits
  kString,  ///< text (CSV only)
  kHex,     ///< 16 lowercase hex digits (CSV only)
};

/// Which Chrome-trace event of its cell carries a column as an arg.
enum class TraceArg : std::uint8_t { kNone, kOnSpan, kOnCounter };

/// One cell's value of one column: integer bits, or text for kString.
struct CellValue {
  template <std::integral T>
  CellValue(T v) : bits(static_cast<std::uint64_t>(v)) {}  // NOLINT
  CellValue(const std::string& s) : text(s) {}              // NOLINT

  std::uint64_t bits = 0;
  std::string_view text;
};

/// One artifact column of a per-cell report `Cell` inside `Result`.
template <typename Result, typename Cell>
struct CellColumn {
  const char* csv;   ///< CSV header name; nullptr = not a CSV column
  const char* prom;  ///< Prometheus metric name; nullptr = CSV-only
  ColumnKind kind;
  CellValue (*get)(const Result&, const Cell&);
  TraceArg trace = TraceArg::kNone;
  const char* trace_key = nullptr;  ///< trace arg name; nullptr = `csv`
  bool gauge = false;               ///< Prometheus gauge, not counter
};

/// Getter of a report member (data or const member function) for
/// CellColumn::get.
template <auto Member, typename Result, typename Cell>
CellValue member_value(const Result&, const Cell& cell) {
  return std::invoke(Member, cell);
}

/// Everything the writer needs to render one report type.
template <typename Result, typename Cell>
struct CellSchema {
  const char* module;   ///< Prometheus module label
  const char* process;  ///< Chrome-trace process name
  const char* counter;  ///< Chrome-trace counter track of each cell
  std::span<const CellColumn<Result, Cell>> columns;
};

/// Appends `v` as `kind` (integer formatting only, no allocation).
inline void append_value(std::string& out, ColumnKind kind,
                         const CellValue& v) {
  if (kind == ColumnKind::kString) {
    out += v.text;
    return;
  }
  char buf[24];
  char* end =
      kind == ColumnKind::kI64
          ? std::to_chars(buf, buf + sizeof(buf),
                          static_cast<std::int64_t>(v.bits)).ptr
          : std::to_chars(buf, buf + sizeof(buf), v.bits,
                          kind == ColumnKind::kHex ? 16 : 10).ptr;
  if (kind == ColumnKind::kHex) out.append(16 - (end - buf), '0');
  out.append(buf, end);
}

/// The one fingerprint of a sharded plant's export surface: FNV-1a over
/// each artifact, combined.
[[nodiscard]] inline std::uint64_t artifact_fingerprint(
    std::string_view csv, std::string_view prom, std::string_view trace) {
  return sim::fnv1a64(csv) ^ (sim::fnv1a64(prom) * sim::kFnv1aPrime) ^
         (sim::fnv1a64(trace) * sim::kFnv1aPrime);
}

/// `csv,...` header line then one row per cell, in cell order.
template <typename Result, typename Cell>
std::string render_csv(const Result& result,
                       const CellSchema<Result, Cell>& schema) {
  std::string out;
  for (const auto& col : schema.columns) {
    if (col.csv == nullptr) continue;
    if (!out.empty()) out += ',';
    out += col.csv;
  }
  out += '\n';
  for (const Cell& cell : result.cells) {
    bool first = true;
    for (const auto& col : schema.columns) {
      if (col.csv == nullptr) continue;
      if (!first) out += ',';
      first = false;
      append_value(out, col.kind, col.get(result, cell));
    }
    out += '\n';
  }
  return out;
}

/// Prometheus text exposition of every exported column, path-ordered.
template <typename Result, typename Cell>
std::string render_prometheus(const Result& result,
                              const CellSchema<Result, Cell>& schema) {
  obs::MetricsRegistry reg;
  for (const Cell& cell : result.cells) {
    for (const auto& col : schema.columns) {
      if (col.prom == nullptr) continue;
      const std::uint64_t v = col.get(result, cell).bits;
      if (col.gauge) {
        reg.make_gauge({cell.name, schema.module, col.prom})
            .set(static_cast<double>(v));
      } else {
        reg.make_counter({cell.name, schema.module, col.prom}) += v;
      }
    }
  }
  return reg.to_prometheus();
}

/// Chrome trace-event JSON: per cell one "X" span over the run and one
/// "C" counter sample at the horizon, each carrying its TraceArg columns.
/// Times are integer nanoseconds printed as microseconds.
template <typename Result, typename Cell>
std::string render_chrome_trace(const Result& result,
                                const CellSchema<Result, Cell>& schema) {
  std::string out =
      "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"tid\":0,\"args\":{\"name\":\"";
  out += schema.process;
  out += "\"}}";
  const std::int64_t h = result.horizon_ns;
  const char frac[5] = {'.', static_cast<char>('0' + h % 1000 / 100),
                        static_cast<char>('0' + h % 100 / 10),
                        static_cast<char>('0' + h % 10), '\0'};
  const auto event = [&](const Cell& cell, std::string_view name,
                         TraceArg where) {
    const bool span = where == TraceArg::kOnSpan;
    out += ",{\"name\":\"";
    out += name;
    out += span ? "\",\"ph\":\"X\"" : "\",\"ph\":\"C\"";
    out += ",\"pid\":1,\"tid\":";
    append_value(out, ColumnKind::kU64, cell.cell);
    out += span ? ",\"ts\":0.000,\"dur\":" : ",\"ts\":";
    append_value(out, ColumnKind::kI64, h / 1000);
    out += frac;
    out += ",\"args\":{";
    const char* sep = "";
    for (const auto& col : schema.columns) {
      if (col.trace != where) continue;
      out += sep;
      out += '"';
      out += col.trace_key != nullptr ? col.trace_key : col.csv;
      out += "\":";
      append_value(out, col.kind, col.get(result, cell));
      sep = ",";
    }
    out += "}}";
  };
  for (const Cell& cell : result.cells) {
    event(cell, cell.name, TraceArg::kOnSpan);
    event(cell, schema.counter, TraceArg::kOnCounter);
  }
  out += "]}";
  return out;
}

}  // namespace steelnet::net
