// steelnet::ebpf -- the interpreter.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ebpf/cost.hpp"
#include "ebpf/isa.hpp"
#include "ebpf/maps.hpp"
#include "net/frame.hpp"
#include "sim/time.hpp"

namespace steelnet::ebpf {

/// Outcome of one program execution.
struct RunResult {
  XdpVerdict verdict = XdpVerdict::kAborted;
  std::uint64_t insns_executed = 0;
  std::uint64_t helper_calls = 0;
  /// Modelled wall-clock execution time (cost model total).
  sim::SimTime exec_time;
  /// Runtime fault description (empty if none). Faults yield kAborted.
  std::string fault;
};

/// Executes verified programs against live frames.
///
/// The VM owns the program's maps and ring buffer (one of each suffices
/// for this library's programs). Callers must verify programs first:
/// run() trusts static bounds and only re-checks dynamic packet length.
class Vm {
 public:
  Vm(Program program, CostParams cost = {}, std::uint64_t seed = 1);

  /// `now` feeds bpf_ktime_get_ns. The frame may be mutated (XDP_TX
  /// programs rewrite headers/payload in place).
  RunResult run(net::Frame& frame, sim::SimTime now);

  [[nodiscard]] const Program& program() const { return program_; }
  [[nodiscard]] HashMap& map() { return map_; }
  [[nodiscard]] RingBuffer& ringbuf() { return ringbuf_; }
  [[nodiscard]] CostModel& cost_model() { return cost_; }

  /// Total ring-buffer drops etc. survive across runs (stateful maps).
  [[nodiscard]] std::uint64_t runs() const { return runs_; }

  /// Lifetime totals over all runs (cost-model time in ns, instructions
  /// retired, helper calls, aborted runs).
  [[nodiscard]] std::uint64_t insns_total() const { return insns_total_; }
  [[nodiscard]] std::uint64_t helpers_total() const { return helpers_total_; }
  [[nodiscard]] std::uint64_t exec_ns_total() const { return exec_ns_total_; }
  [[nodiscard]] std::uint64_t aborts_total() const { return aborts_total_; }

 private:
  RunResult run_impl(net::Frame& frame, sim::SimTime now);

  Program program_;
  CostModel cost_;
  HashMap map_;
  RingBuffer ringbuf_;
  std::uint64_t runs_ = 0;
  std::uint64_t insns_total_ = 0;
  std::uint64_t helpers_total_ = 0;
  std::uint64_t exec_ns_total_ = 0;
  std::uint64_t aborts_total_ = 0;
};

}  // namespace steelnet::ebpf
