// Cell -> shard placement for the sharded PDES kernel.
//
// Both placements map per-cell weights to shard ids. Placement decides
// wall-clock only, never simulation results: the kernel's determinism
// contract (per-cell fire order a pure function of initial state + own
// RNG + totally ordered inbound messages) holds for *any* assignment,
// so placement is free to chase balance. ShardedSimulator::run applies
// one rule over the two:
//
//   * PrefixQuotaPartitioner -- the static contiguous walk over the
//     declared weights; cheap, cache-friendly groups, assumes declared
//     weights are honest. Used when no measured weights are set.
//   * LptPartitioner -- longest-processing-time greedy bin-pack over
//     *measured* per-cell rates (see RateProfile); the profile-guided
//     placement for skewed floors. Tie-break rule: an all-equal profile
//     reproduces the prefix-quota assignment exactly, so calibration
//     noise-free uniform floors cannot churn placements.
//
// Everything here is deterministic: same inputs, same assignment, on
// every platform. Randomness, clocks, and iteration-order dependence
// are all banned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace steelnet::sim {

enum class PartitionErrorCode : std::uint8_t {
  kBadShardCount,    ///< assign() with shards == 0
  kBadAssignment,    ///< an invalid cell->shard map
  kProfileMismatch,  ///< measured weights don't match the cell count
  kMalformedProfile, ///< RateProfile::parse on text that isn't a profile
};

class PartitionError : public SimError {
 public:
  PartitionError(PartitionErrorCode code, const std::string& what)
      : SimError(what), code_(code) {}
  [[nodiscard]] PartitionErrorCode code() const { return code_; }

 private:
  PartitionErrorCode code_;
};

// Both assign() return one shard id per weight, with every shard id in
// [0, min(shards, weights.size())) used at least once, and throw
// PartitionError{kBadShardCount} when shards == 0. An empty weight
// vector yields an empty assignment; shards above the cell count clamp
// (trailing shards would be empty otherwise).

/// Contiguous weighted walk: cell i joins shard s until the weight
/// prefix crosses quota (s+1)/shards of the total, with a must-advance
/// guard that keeps every later shard nonempty. Groups are contiguous
/// cell ranges -- friendly to topologies wired by index locality.
class PrefixQuotaPartitioner {
 public:
  [[nodiscard]] std::vector<std::uint32_t> assign(
      const std::vector<std::uint64_t>& weights, std::size_t shards) const;
};

/// Greedy LPT bin-pack over measured rates: cells sorted by (weight
/// desc, id asc), each assigned to the least-loaded shard (lowest id on
/// load ties). Zero weights are clamped to 1 so idle cells still count
/// as occupancy. When every weight is equal the measured profile says
/// nothing prefix-quota doesn't already know, so LPT delegates to it
/// verbatim -- the regression pin that keeps uniform floors stable.
class LptPartitioner {
 public:
  [[nodiscard]] std::vector<std::uint32_t> assign(
      const std::vector<std::uint64_t>& weights, std::size_t shards) const;
};

/// Post-hoc balance report for an assignment under (possibly different)
/// weights -- e.g. judge a declared-weight partition by measured rates.
struct PartitionStats {
  std::vector<std::uint64_t> shard_load;  ///< summed weight per shard
  std::uint64_t total_load = 0;
  std::uint64_t max_load = 0;

  /// max-shard-load over mean-shard-load, in integer permille so the
  /// metric is bit-stable across platforms. 1000 = perfectly balanced;
  /// 2000 = the hottest shard carries twice the mean. 1000 when empty.
  [[nodiscard]] std::uint64_t imbalance_permille() const;
};

/// Throws PartitionError{kBadAssignment} on size mismatch. Shard count
/// is inferred as max(assignment)+1.
[[nodiscard]] PartitionStats partition_stats(
    const std::vector<std::uint64_t>& weights,
    const std::vector<std::uint32_t>& assignment);

/// Validates an assignment against the assign() contract (size, range,
/// no empty shard) -- the kernel runs this before trusting a placement
/// with worker threads.
void validate_assignment(const std::vector<std::uint32_t>& assignment,
                         std::size_t n_cells, std::size_t shards);

/// Measured per-cell load from a calibration run, the unit of the
/// `--profile-out` / `--profile-in` round-trip. Text format, one line
/// per cell after a fixed header (comments start with '#'):
///
///     # steelnet cell-rate profile v1
///     cell,events,msgs
///     cell_000,182403,5521
///
/// Cell order in the file is the kernel's cell-id order; the parser
/// preserves it. weights() folds each row to max(events + msgs, 1) --
/// the per-cell work estimate LPT packs by.
struct RateProfile {
  struct CellRate {
    std::string name;
    std::uint64_t events = 0;  ///< local simulator events executed
    std::uint64_t msgs = 0;    ///< cross-shard messages delivered
  };
  std::vector<CellRate> cells;

  [[nodiscard]] std::vector<std::uint64_t> weights() const;
  [[nodiscard]] std::string to_text() const;
  /// Throws PartitionError{kMalformedProfile} on anything that isn't a
  /// v1 profile: missing header, short rows, non-numeric counts, counts
  /// that do not fit in 64 bits.
  [[nodiscard]] static RateProfile parse(const std::string& text);
};

}  // namespace steelnet::sim
