// steelnet::obs -- where the exporters' renderers write.
//
// Each text exporter has exactly one renderer, templated on its output:
// anything with append(std::string_view) and put(char). StringOut builds
// the text; sim::Fnv1aSink hashes it without keeping it, which is how
// the export fingerprints are taken. Internal to src/obs.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace steelnet::obs::detail {

/// Appends to a caller-owned string.
struct StringOut {
  std::string& s;

  void append(std::string_view bytes) { s.append(bytes); }
  void put(char c) { s.push_back(c); }
};

/// Unsigned decimal, no allocation.
template <typename Out>
void append_u64(Out& out, std::uint64_t v) {
  char buf[20];
  const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  out.append({buf, static_cast<std::size_t>(end - buf)});
}

}  // namespace steelnet::obs::detail
