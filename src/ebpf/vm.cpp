#include "ebpf/vm.hpp"

#include <cstring>

namespace steelnet::ebpf {

Vm::Vm(Program program, CostParams cost, std::uint64_t seed)
    : program_(std::move(program)), cost_(cost, seed) {}

namespace {

std::uint64_t load_pkt(const net::Frame& f, std::size_t off, std::size_t w) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < w; ++i) {
    v |= static_cast<std::uint64_t>(f.payload[off + i]) << (8 * i);
  }
  return v;
}

void store_pkt(net::Frame& f, std::size_t off, std::size_t w,
               std::uint64_t v) {
  for (std::size_t i = 0; i < w; ++i) {
    f.payload[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

RunResult Vm::run(net::Frame& frame, sim::SimTime now) {
  ++runs_;
  RunResult result = run_impl(frame, now);
  insns_total_ += result.insns_executed;
  helpers_total_ += result.helper_calls;
  exec_ns_total_ += static_cast<std::uint64_t>(result.exec_time.nanos());
  if (result.verdict == XdpVerdict::kAborted) ++aborts_total_;
  return result;
}

RunResult Vm::run_impl(net::Frame& frame, sim::SimTime now) {
  RunResult result;
  std::array<std::uint64_t, kNumRegisters> reg{};
  std::array<std::uint8_t, kStackBytes> stack{};
  reg[1] = 0;  // ctx pointer is opaque in this model
  reg[kFramePointer] = kStackBytes;

  double cost_ns = cost_.params().per_run_base_ns + cost_.environment_noise();
  std::size_t pc = 0;
  const auto& insns = program_.insns;

  auto fault = [&](const std::string& why) {
    result.verdict = XdpVerdict::kAborted;
    result.fault = why + " at insn " + std::to_string(pc);
    result.exec_time =
        sim::SimTime{static_cast<std::int64_t>(cost_ns)};
    return result;
  };

  while (true) {
    if (pc >= insns.size()) return fault("pc out of range");
    if (result.insns_executed++ > kMaxInsns) {
      return fault("instruction budget exceeded");
    }
    const Insn& insn = insns[pc];
    cost_ns += cost_.insn_cost(insn);

    auto pkt_ok = [&](std::size_t width) {
      const auto off = static_cast<std::size_t>(insn.off);
      return off + width <= frame.payload.size();
    };

    switch (insn.op) {
      case Op::kMovImm:
        reg[insn.dst] = static_cast<std::uint64_t>(insn.imm);
        break;
      case Op::kMovReg:
        reg[insn.dst] = reg[insn.src];
        break;
      case Op::kAddImm:
        reg[insn.dst] += static_cast<std::uint64_t>(insn.imm);
        break;
      case Op::kAddReg:
        reg[insn.dst] += reg[insn.src];
        break;
      case Op::kSubImm:
        reg[insn.dst] -= static_cast<std::uint64_t>(insn.imm);
        break;
      case Op::kSubReg:
        reg[insn.dst] -= reg[insn.src];
        break;
      case Op::kMulImm:
        reg[insn.dst] *= static_cast<std::uint64_t>(insn.imm);
        break;
      case Op::kMulReg:
        reg[insn.dst] *= reg[insn.src];
        break;
      case Op::kDivImm:
        reg[insn.dst] =
            insn.imm == 0 ? 0
                          : reg[insn.dst] / static_cast<std::uint64_t>(insn.imm);
        break;
      case Op::kDivReg:
        reg[insn.dst] = reg[insn.src] == 0 ? 0 : reg[insn.dst] / reg[insn.src];
        break;
      case Op::kAndImm:
        reg[insn.dst] &= static_cast<std::uint64_t>(insn.imm);
        break;
      case Op::kAndReg:
        reg[insn.dst] &= reg[insn.src];
        break;
      case Op::kOrImm:
        reg[insn.dst] |= static_cast<std::uint64_t>(insn.imm);
        break;
      case Op::kOrReg:
        reg[insn.dst] |= reg[insn.src];
        break;
      case Op::kXorImm:
        reg[insn.dst] ^= static_cast<std::uint64_t>(insn.imm);
        break;
      case Op::kXorReg:
        reg[insn.dst] ^= reg[insn.src];
        break;
      case Op::kLshImm:
        reg[insn.dst] <<= insn.imm;
        break;
      case Op::kLshReg:
        reg[insn.dst] <<= (reg[insn.src] & 63);
        break;
      case Op::kRshImm:
        reg[insn.dst] >>= insn.imm;
        break;
      case Op::kRshReg:
        reg[insn.dst] >>= (reg[insn.src] & 63);
        break;
      case Op::kNeg:
        reg[insn.dst] = ~reg[insn.dst] + 1;
        break;

      case Op::kLdPktB:
        if (!pkt_ok(1)) return fault("packet load out of bounds");
        reg[insn.dst] = load_pkt(frame, std::size_t(insn.off), 1);
        break;
      case Op::kLdPktH:
        if (!pkt_ok(2)) return fault("packet load out of bounds");
        reg[insn.dst] = load_pkt(frame, std::size_t(insn.off), 2);
        break;
      case Op::kLdPktW:
        if (!pkt_ok(4)) return fault("packet load out of bounds");
        reg[insn.dst] = load_pkt(frame, std::size_t(insn.off), 4);
        break;
      case Op::kLdPktDw:
        if (!pkt_ok(8)) return fault("packet load out of bounds");
        reg[insn.dst] = load_pkt(frame, std::size_t(insn.off), 8);
        break;
      case Op::kStPktB:
        if (!pkt_ok(1)) return fault("packet store out of bounds");
        store_pkt(frame, std::size_t(insn.off), 1, reg[insn.src]);
        break;
      case Op::kStPktH:
        if (!pkt_ok(2)) return fault("packet store out of bounds");
        store_pkt(frame, std::size_t(insn.off), 2, reg[insn.src]);
        break;
      case Op::kStPktW:
        if (!pkt_ok(4)) return fault("packet store out of bounds");
        store_pkt(frame, std::size_t(insn.off), 4, reg[insn.src]);
        break;
      case Op::kStPktDw:
        if (!pkt_ok(8)) return fault("packet store out of bounds");
        store_pkt(frame, std::size_t(insn.off), 8, reg[insn.src]);
        break;

      case Op::kLdStackDw: {
        const std::size_t at = kStackBytes + insn.off;  // off < 0, verified
        std::uint64_t v;
        std::memcpy(&v, stack.data() + at, 8);
        reg[insn.dst] = v;
        break;
      }
      case Op::kStStackDw: {
        const std::size_t at = kStackBytes + insn.off;
        const std::uint64_t v = reg[insn.src];
        std::memcpy(stack.data() + at, &v, 8);
        break;
      }

      case Op::kCall: {
        ++result.helper_calls;
        const auto helper = static_cast<HelperId>(insn.imm);
        cost_ns += cost_.helper_cost(helper);
        switch (helper) {
          case HelperId::kKtimeGetNs:
            reg[0] = static_cast<std::uint64_t>(now.nanos()) +
                     static_cast<std::uint64_t>(cost_ns);
            break;
          case HelperId::kRingbufOutput: {
            // r1 = negative stack offset of the record, r2 = length.
            const auto off = static_cast<std::int64_t>(reg[1]);
            const auto len = reg[2];
            if (off >= 0 || -off > std::int64_t(kStackBytes) ||
                len > std::uint64_t(-off)) {
              return fault("ringbuf_output: bad stack range");
            }
            const std::size_t at = kStackBytes + off;
            reg[0] = ringbuf_.output(stack.data() + at, len) ? 0 : 1;
            break;
          }
          case HelperId::kMapLookup:
            reg[0] = map_.lookup(reg[2]);
            break;
          case HelperId::kMapUpdate:
            reg[0] = map_.update(reg[2], reg[3]) ? 0 : 1;
            break;
          case HelperId::kGetPktLen:
            reg[0] = frame.payload.size();
            break;
        }
        break;
      }

      case Op::kJa:
        pc += static_cast<std::size_t>(insn.off);
        break;
      case Op::kJeqImm:
        if (reg[insn.dst] == std::uint64_t(insn.imm)) pc += std::size_t(insn.off);
        break;
      case Op::kJeqReg:
        if (reg[insn.dst] == reg[insn.src]) pc += std::size_t(insn.off);
        break;
      case Op::kJneImm:
        if (reg[insn.dst] != std::uint64_t(insn.imm)) pc += std::size_t(insn.off);
        break;
      case Op::kJneReg:
        if (reg[insn.dst] != reg[insn.src]) pc += std::size_t(insn.off);
        break;
      case Op::kJgtImm:
        if (reg[insn.dst] > std::uint64_t(insn.imm)) pc += std::size_t(insn.off);
        break;
      case Op::kJgtReg:
        if (reg[insn.dst] > reg[insn.src]) pc += std::size_t(insn.off);
        break;
      case Op::kJgeImm:
        if (reg[insn.dst] >= std::uint64_t(insn.imm)) pc += std::size_t(insn.off);
        break;
      case Op::kJgeReg:
        if (reg[insn.dst] >= reg[insn.src]) pc += std::size_t(insn.off);
        break;
      case Op::kJltImm:
        if (reg[insn.dst] < std::uint64_t(insn.imm)) pc += std::size_t(insn.off);
        break;
      case Op::kJltReg:
        if (reg[insn.dst] < reg[insn.src]) pc += std::size_t(insn.off);
        break;

      case Op::kExit: {
        const auto v = static_cast<std::int64_t>(reg[0]);
        result.verdict = (v >= 0 && v <= 3) ? static_cast<XdpVerdict>(v)
                                            : XdpVerdict::kAborted;
        result.exec_time =
            sim::SimTime{static_cast<std::int64_t>(cost_ns)};
        return result;
      }
    }
    ++pc;
  }
}

}  // namespace steelnet::ebpf
