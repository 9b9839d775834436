#include "ebpf/xdp.hpp"

#include <utility>

namespace steelnet::ebpf {

XdpHook::XdpHook(Program program, CostParams cost, std::uint64_t seed)
    : vm_((verify_or_throw(program), std::move(program)), cost, seed) {}

net::NicAction XdpHook::process(net::Frame& frame, sim::SimTime now,
                                sim::SimTime& cost_out) {
  const RunResult r = vm_.run(frame, now);
  ++stats_.runs;
  cost_out = r.exec_time;
  if (observer_) observer_(r);
  switch (r.verdict) {
    case XdpVerdict::kPass:
      ++stats_.pass;
      return net::NicAction::kPass;
    case XdpVerdict::kDrop:
      ++stats_.drop;
      return net::NicAction::kDrop;
    case XdpVerdict::kTx:
      ++stats_.tx;
      std::swap(frame.dst, frame.src);
      return net::NicAction::kTx;
    case XdpVerdict::kAborted:
      break;
  }
  ++stats_.aborted;
  return net::NicAction::kAborted;
}

}  // namespace steelnet::ebpf
