// steelnet::faults -- fault scenario description.
//
// A FaultScenario is a seed plus a list of timed/probabilistic fault
// specs -- the complete, reproducible description of everything that
// goes wrong in one run. Scenarios are plain data, built in code or
// generated from a seed (faults::random_scenario).
//
// The FaultPlane consumes a scenario via FaultPlane::schedule, resolving
// node names against the attached Network and turning every spec into
// deterministic simulator events.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "sim/time.hpp"

namespace steelnet::faults {

enum class FaultKind : std::uint8_t {
  kLinkDown,   ///< link hard-down for a window (both directions)
  kLinkFlap,   ///< `count` down/up cycles of `period`, down for `duration`
  kLoss,       ///< per-frame loss with `probability` during the window
  kCorrupt,    ///< per-frame single-bit corruption with `probability`
  kDuplicate,  ///< per-frame duplication with `probability`
  kReorder,    ///< per-frame delayed re-enqueue (+`delay`) with `probability`
  kJitter,     ///< uniform [0, `delay`] added to every frame's arrival
  kNodeCrash,  ///< node NIC dies (and its process stops, via handler)
  kNodeStop,   ///< process stops gracefully; the NIC stays up (silence)
};

/// One fault, bound to a link endpoint (`node`:`port`) or a node.
struct FaultSpec {
  FaultKind kind = FaultKind::kLinkDown;
  std::string node;        ///< endpoint / target node name
  net::PortId port = 0;    ///< link faults: the endpoint's port
  sim::SimTime at{};       ///< onset
  sim::SimTime duration{}; ///< window (zero = permanent); flap: down time
  double probability = 0;  ///< loss/corrupt/duplicate/reorder
  sim::SimTime delay{};    ///< jitter bound / reorder extra delay
  std::uint32_t count = 0; ///< flap cycles
  sim::SimTime period{};   ///< flap cycle period
};

struct FaultScenario {
  std::string name = "scenario";
  std::uint64_t seed = 1;
  std::vector<FaultSpec> faults;
};

}  // namespace steelnet::faults
