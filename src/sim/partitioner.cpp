#include "sim/partitioner.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <sstream>

namespace steelnet::sim {

namespace {

std::size_t checked_shards(const std::vector<std::uint64_t>& weights,
                           std::size_t shards) {
  if (shards == 0) {
    throw PartitionError(PartitionErrorCode::kBadShardCount,
                         "assign: shards must be >= 1");
  }
  return std::min(shards, weights.size());
}

}  // namespace

std::vector<std::uint32_t> PrefixQuotaPartitioner::assign(
    const std::vector<std::uint64_t>& weights, std::size_t shards) const {
  shards = checked_shards(weights, shards);
  const std::size_t n = weights.size();
  if (n == 0) return {};
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += std::max<std::uint64_t>(w, 1);

  std::vector<std::uint32_t> out(n);
  std::uint64_t prefix = 0;
  std::uint32_t s = 0;
  std::size_t count_in_s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (s + 1 < shards && count_in_s > 0) {
      // Close the current group when its weight quota is met, or when the
      // remaining cells are only just enough to keep every later group
      // nonempty.
      const bool quota_met =
          prefix * shards >= total * (static_cast<std::uint64_t>(s) + 1);
      const bool must_advance = n - i <= shards - 1 - s;
      if (quota_met || must_advance) {
        ++s;
        count_in_s = 0;
      }
    }
    out[i] = s;
    ++count_in_s;
    prefix += std::max<std::uint64_t>(weights[i], 1);
  }
  return out;
}

std::vector<std::uint32_t> LptPartitioner::assign(
    const std::vector<std::uint64_t>& weights, std::size_t shards) const {
  shards = checked_shards(weights, shards);
  const std::size_t n = weights.size();
  if (n == 0) return {};

  std::vector<std::uint64_t> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = std::max<std::uint64_t>(weights[i], 1);

  // Tie-break rule (pinned by tests): a flat profile carries no placement
  // signal, so reproduce the prefix-quota walk bit for bit -- calibration
  // of a uniform floor must not churn an already-good contiguous layout.
  if (std::all_of(w.begin(), w.end(),
                  [&w](std::uint64_t x) { return x == w.front(); })) {
    return PrefixQuotaPartitioner{}.assign(weights, shards);
  }

  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&w](std::uint32_t a, std::uint32_t b) {
              return w[a] != w[b] ? w[a] > w[b] : a < b;
            });

  std::vector<std::uint64_t> load(shards, 0);
  std::vector<std::uint32_t> out(n);
  for (const std::uint32_t cell : order) {
    // Least-loaded shard, lowest id on ties: a linear scan keeps the
    // tie-break trivially deterministic and shard counts are single-digit.
    std::size_t best = 0;
    for (std::size_t s = 1; s < shards; ++s) {
      if (load[s] < load[best]) best = s;
    }
    out[cell] = static_cast<std::uint32_t>(best);
    load[best] += w[cell];
  }
  return out;
}

std::uint64_t PartitionStats::imbalance_permille() const {
  if (shard_load.empty() || total_load == 0) return 1000;
  // max / mean = max * shards / total, scaled to permille.
  return max_load * 1000 * shard_load.size() / total_load;
}

PartitionStats partition_stats(const std::vector<std::uint64_t>& weights,
                               const std::vector<std::uint32_t>& assignment) {
  if (weights.size() != assignment.size()) {
    throw PartitionError(
        PartitionErrorCode::kBadAssignment,
        "partition_stats: " + std::to_string(weights.size()) + " weights vs " +
            std::to_string(assignment.size()) + " assignments");
  }
  PartitionStats st;
  std::uint32_t max_shard = 0;
  for (const std::uint32_t s : assignment) max_shard = std::max(max_shard, s);
  st.shard_load.assign(assignment.empty() ? 0 : max_shard + 1u, 0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const std::uint64_t w = std::max<std::uint64_t>(weights[i], 1);
    st.shard_load[assignment[i]] += w;
    st.total_load += w;
  }
  for (const std::uint64_t l : st.shard_load) st.max_load = std::max(st.max_load, l);
  return st;
}

void validate_assignment(const std::vector<std::uint32_t>& assignment,
                         std::size_t n_cells, std::size_t shards) {
  // Same clamp as assign(): shards beyond the cell count cannot all be
  // nonempty, so the contract only covers the first min(shards, n) ids.
  shards = std::min(shards, n_cells);
  if (assignment.size() != n_cells) {
    throw PartitionError(PartitionErrorCode::kBadAssignment,
                         "partitioner returned " +
                             std::to_string(assignment.size()) +
                             " assignments for " + std::to_string(n_cells) +
                             " cells");
  }
  std::vector<bool> used(shards, false);
  for (const std::uint32_t s : assignment) {
    if (s >= shards) {
      throw PartitionError(PartitionErrorCode::kBadAssignment,
                           "partitioner assigned shard " + std::to_string(s) +
                               " with only " + std::to_string(shards) +
                               " shards");
    }
    used[s] = true;
  }
  for (std::size_t s = 0; s < shards; ++s) {
    if (!used[s]) {
      throw PartitionError(PartitionErrorCode::kBadAssignment,
                           "partitioner left shard " + std::to_string(s) +
                               " empty");
    }
  }
}

// --- RateProfile ------------------------------------------------------------

std::vector<std::uint64_t> RateProfile::weights() const {
  std::vector<std::uint64_t> w;
  w.reserve(cells.size());
  for (const CellRate& c : cells) {
    w.push_back(std::max<std::uint64_t>(c.events + c.msgs, 1));
  }
  return w;
}

std::string RateProfile::to_text() const {
  std::ostringstream os;
  os << "# steelnet cell-rate profile v1\n";
  os << "cell,events,msgs\n";
  for (const CellRate& c : cells) {
    os << c.name << ',' << c.events << ',' << c.msgs << '\n';
  }
  return os.str();
}

namespace {

std::uint64_t parse_count(const std::string& field, std::size_t line_no) {
  if (field.empty()) {
    throw PartitionError(PartitionErrorCode::kMalformedProfile,
                         "profile line " + std::to_string(line_no) +
                             ": empty count field");
  }
  std::uint64_t v = 0;
  for (const char ch : field) {
    if (ch < '0' || ch > '9') {
      throw PartitionError(PartitionErrorCode::kMalformedProfile,
                           "profile line " + std::to_string(line_no) +
                               ": non-numeric count '" + field + "'");
    }
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw PartitionError(PartitionErrorCode::kMalformedProfile,
                           "profile line " + std::to_string(line_no) +
                               ": count '" + field + "' overflows 64 bits");
    }
    v = v * 10 + digit;
  }
  return v;
}

}  // namespace

RateProfile RateProfile::parse(const std::string& text) {
  RateProfile out;
  std::istringstream is(text);
  std::string line;
  bool header_seen = false;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line.front() == '#') continue;
    if (!header_seen) {
      if (line != "cell,events,msgs") {
        throw PartitionError(PartitionErrorCode::kMalformedProfile,
                             "profile line " + std::to_string(line_no) +
                                 ": expected header 'cell,events,msgs', got '" +
                                 line + "'");
      }
      header_seen = true;
      continue;
    }
    const std::size_t c1 = line.find(',');
    const std::size_t c2 = c1 == std::string::npos
                               ? std::string::npos
                               : line.find(',', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        line.find(',', c2 + 1) != std::string::npos || c1 == 0) {
      throw PartitionError(PartitionErrorCode::kMalformedProfile,
                           "profile line " + std::to_string(line_no) +
                               ": expected 'name,events,msgs', got '" + line +
                               "'");
    }
    CellRate r;
    r.name = line.substr(0, c1);
    r.events = parse_count(line.substr(c1 + 1, c2 - c1 - 1), line_no);
    r.msgs = parse_count(line.substr(c2 + 1), line_no);
    out.cells.push_back(std::move(r));
  }
  if (!header_seen) {
    throw PartitionError(PartitionErrorCode::kMalformedProfile,
                         "profile has no 'cell,events,msgs' header");
  }
  return out;
}

}  // namespace steelnet::sim
