#include "ebpf/isa.hpp"

#include <sstream>

namespace steelnet::ebpf {

std::string to_string(Op op) {
  switch (op) {
    case Op::kAddImm: return "add_imm";
    case Op::kAddReg: return "add_reg";
    case Op::kSubImm: return "sub_imm";
    case Op::kSubReg: return "sub_reg";
    case Op::kMulImm: return "mul_imm";
    case Op::kMulReg: return "mul_reg";
    case Op::kDivImm: return "div_imm";
    case Op::kDivReg: return "div_reg";
    case Op::kAndImm: return "and_imm";
    case Op::kAndReg: return "and_reg";
    case Op::kOrImm: return "or_imm";
    case Op::kOrReg: return "or_reg";
    case Op::kXorImm: return "xor_imm";
    case Op::kXorReg: return "xor_reg";
    case Op::kLshImm: return "lsh_imm";
    case Op::kLshReg: return "lsh_reg";
    case Op::kRshImm: return "rsh_imm";
    case Op::kRshReg: return "rsh_reg";
    case Op::kMovImm: return "mov_imm";
    case Op::kMovReg: return "mov_reg";
    case Op::kNeg: return "neg";
    case Op::kLdPktB: return "ldpkt_b";
    case Op::kLdPktH: return "ldpkt_h";
    case Op::kLdPktW: return "ldpkt_w";
    case Op::kLdPktDw: return "ldpkt_dw";
    case Op::kStPktB: return "stpkt_b";
    case Op::kStPktH: return "stpkt_h";
    case Op::kStPktW: return "stpkt_w";
    case Op::kStPktDw: return "stpkt_dw";
    case Op::kLdStackDw: return "ldstack_dw";
    case Op::kStStackDw: return "ststack_dw";
    case Op::kCall: return "call";
    case Op::kJa: return "ja";
    case Op::kJeqImm: return "jeq_imm";
    case Op::kJeqReg: return "jeq_reg";
    case Op::kJneImm: return "jne_imm";
    case Op::kJneReg: return "jne_reg";
    case Op::kJgtImm: return "jgt_imm";
    case Op::kJgtReg: return "jgt_reg";
    case Op::kJgeImm: return "jge_imm";
    case Op::kJgeReg: return "jge_reg";
    case Op::kJltImm: return "jlt_imm";
    case Op::kJltReg: return "jlt_reg";
    case Op::kExit: return "exit";
  }
  return "?";
}

std::string disassemble(const Insn& insn) {
  std::ostringstream os;
  os << to_string(insn.op) << " dst=r" << int(insn.dst) << " src=r"
     << int(insn.src) << " off=" << insn.off << " imm=" << insn.imm;
  return os.str();
}

}  // namespace steelnet::ebpf
