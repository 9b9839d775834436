#include "faults/scenario.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "sim/simulator.hpp"

namespace steelnet::faults {
namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr std::array<KindName, 9> kKindNames = {{
    {FaultKind::kLinkDown, "link_down"},
    {FaultKind::kLinkFlap, "flap"},
    {FaultKind::kLoss, "loss"},
    {FaultKind::kCorrupt, "corrupt"},
    {FaultKind::kDuplicate, "duplicate"},
    {FaultKind::kReorder, "reorder"},
    {FaultKind::kJitter, "jitter"},
    {FaultKind::kNodeCrash, "crash"},
    {FaultKind::kNodeStop, "stop"},
}};

[[noreturn]] void fail(const std::string& what) { throw sim::SimError(what); }

std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

/// A plain decimal that fits in T: no sign, no trailing bytes, no
/// overflow.
template <typename T>
T parse_uint(std::string_view text, std::string_view what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size() ||
      v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    fail("scenario: bad " + std::string(what) + " '" + std::string(text) +
         "'");
  }
  return static_cast<T>(v);
}

double parse_double(std::string_view text) {
  // from_chars<double> is not universally available; strtod on a bounded
  // copy keeps the parser locale-robust enough for "0.25"/"1".
  const std::string buf(text);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty()) {
    fail("scenario: bad probability '" + buf + "'");
  }
  return v;
}

std::string format_double(double v) {
  // Shortest representation that parses back to exactly v, so scenario
  // text round-trips randomly drawn probabilities bit-for-bit.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

}  // namespace

const char* to_string(FaultKind k) {
  for (const KindName& kn : kKindNames) {
    if (kn.kind == k) return kn.name;
  }
  return "?";
}

sim::SimTime parse_duration(std::string_view text) {
  std::size_t digits = 0;
  while (digits < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[digits])) != 0)) {
    ++digits;
  }
  if (digits == 0) fail("scenario: bad duration '" + std::string(text) + "'");
  const auto value =
      parse_uint<std::int64_t>(text.substr(0, digits), "duration");
  const std::string_view unit = text.substr(digits);
  const std::int64_t unit_ns = unit == "ns"   ? 1
                               : unit == "us" ? 1'000
                               : unit == "ms" ? 1'000'000
                               : unit == "s"  ? 1'000'000'000
                                              : 0;
  if (unit_ns == 0) {
    fail("scenario: bad duration unit '" + std::string(text) + "'");
  }
  if (value > std::numeric_limits<std::int64_t>::max() / unit_ns) {
    fail("scenario: duration out of range '" + std::string(text) + "'");
  }
  return sim::nanoseconds(value * unit_ns);
}

std::string format_duration(sim::SimTime t) {
  const std::int64_t ns = t.nanos();
  if (ns % 1'000'000'000 == 0) return std::to_string(ns / 1'000'000'000) + "s";
  if (ns % 1'000'000 == 0) return std::to_string(ns / 1'000'000) + "ms";
  if (ns % 1'000 == 0) return std::to_string(ns / 1'000) + "us";
  return std::to_string(ns) + "ns";
}

std::string FaultScenario::to_text() const {
  std::string out;
  out += "name " + name + "\n";
  out += "seed " + std::to_string(seed) + "\n";
  for (const FaultSpec& f : faults) {
    out += to_string(f.kind);
    const bool link_fault =
        f.kind != FaultKind::kNodeCrash && f.kind != FaultKind::kNodeStop;
    if (link_fault) {
      out += " link=" + f.node + ":" + std::to_string(f.port);
    } else {
      out += " node=" + f.node;
    }
    out += " at=" + format_duration(f.at);
    if (f.kind == FaultKind::kLinkFlap) {
      out += " down=" + format_duration(f.duration);
      out += " period=" + format_duration(f.period);
      out += " count=" + std::to_string(f.count);
    } else if (f.duration != sim::SimTime::zero()) {
      out += " dur=" + format_duration(f.duration);
    }
    if (f.probability != 0) out += " p=" + format_double(f.probability);
    if (f.delay != sim::SimTime::zero()) {
      out += (f.kind == FaultKind::kJitter ? " max=" : " delay=") +
             format_duration(f.delay);
    }
    out += "\n";
  }
  return out;
}

FaultScenario FaultScenario::parse(std::string_view text) {
  FaultScenario sc;
  sc.faults.clear();
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    const auto tokens = split_ws(line);
    if (tokens.empty() || tokens[0].front() == '#') continue;
    const std::string_view head = tokens[0];
    if (head == "name") {
      if (tokens.size() != 2) fail("scenario: name takes one token");
      sc.name = std::string(tokens[1]);
      continue;
    }
    if (head == "seed") {
      if (tokens.size() != 2) fail("scenario: seed takes one token");
      sc.seed = parse_uint<std::uint64_t>(tokens[1], "seed");
      continue;
    }
    FaultSpec spec;
    bool known = false;
    for (const KindName& kn : kKindNames) {
      if (head == kn.name) {
        spec.kind = kn.kind;
        known = true;
        break;
      }
    }
    if (!known) fail("scenario: unknown fault kind '" + std::string(head) + "'");
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::string_view tok = tokens[i];
      const std::size_t eq = tok.find('=');
      if (eq == std::string_view::npos) {
        fail("scenario: expected key=value, got '" + std::string(tok) + "'");
      }
      const std::string_view k = tok.substr(0, eq);
      const std::string_view v = tok.substr(eq + 1);
      if (k == "link") {
        const std::size_t colon = v.rfind(':');
        if (colon == std::string_view::npos) {
          fail("scenario: link needs node:port, got '" + std::string(v) + "'");
        }
        spec.node = std::string(v.substr(0, colon));
        spec.port = parse_uint<net::PortId>(v.substr(colon + 1), "port");
      } else if (k == "node") {
        spec.node = std::string(v);
      } else if (k == "at") {
        spec.at = parse_duration(v);
      } else if (k == "dur" || k == "down") {
        spec.duration = parse_duration(v);
      } else if (k == "p") {
        spec.probability = parse_double(v);
      } else if (k == "delay" || k == "max") {
        spec.delay = parse_duration(v);
      } else if (k == "count") {
        spec.count = parse_uint<std::uint32_t>(v, "count");
      } else if (k == "period") {
        spec.period = parse_duration(v);
      } else {
        fail("scenario: unknown key '" + std::string(k) + "'");
      }
    }
    if (spec.node.empty()) fail("scenario: fault needs a link= or node=");
    sc.faults.push_back(std::move(spec));
  }
  return sc;
}

}  // namespace steelnet::faults
