// steelnet::ebpf -- sample programs the verifier and VM tests load.
//
// Neither is a reflector variant: one faults at runtime on purpose, the
// other exercises the map helpers the shipped reflectors never call.
#pragma once

#include "ebpf/isa.hpp"

namespace steelnet::ebpf {

/// A deliberately broken program for failure-injection tests: reads a
/// payload offset beyond any small industrial frame, so the VM aborts at
/// runtime (the verifier accepts it -- the static bound is 2 KiB).
[[nodiscard]] Program make_out_of_bounds_reader();

/// A flow-counting PASS program: counts frames per flow id read from the
/// payload's first word into the hash map. Exercises map helpers.
[[nodiscard]] Program make_flow_counter();

}  // namespace steelnet::ebpf
