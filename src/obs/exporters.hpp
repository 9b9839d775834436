// steelnet::obs -- exporters: Chrome-trace/Perfetto JSON and CSV span
// dumps.
//
// All output is rendered from deterministic sim-time state with fixed
// formatting, so identical seeds produce byte-identical files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/hub.hpp"

namespace steelnet::obs {

/// Chrome trace-event JSON ("traceEvents" array of complete events plus
/// track-name metadata), loadable in Perfetto / chrome://tracing.
/// Timestamps are sim-time microseconds with nanosecond resolution
/// (ts/dur carry three decimals). All three forms render the same bytes;
/// the fingerprint is FNV-1a 64 of them, streamed without building the
/// text.
[[nodiscard]] std::string chrome_trace_json(const SpanTracer& tracer);
void write_chrome_trace(std::ostream& os, const SpanTracer& tracer);
[[nodiscard]] std::uint64_t chrome_trace_fingerprint(const SpanTracer& tracer);

/// `trace_id,track,name,start_ns,end_ns,duration_ns` lines; a track or
/// span name holding a comma, quote or line break is quoted (RFC 4180).
[[nodiscard]] std::string spans_csv(const SpanTracer& tracer);

}  // namespace steelnet::obs
