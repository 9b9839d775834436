#include "ebpf/assembler.hpp"

#include <stdexcept>

namespace steelnet::ebpf {

Assembler::Assembler(std::string program_name)
    : name_(std::move(program_name)) {}

Assembler& Assembler::emit(Insn insn) {
  insns_.push_back(insn);
  return *this;
}

Assembler& Assembler::mov_imm(std::uint8_t dst, std::int64_t imm) {
  return emit({Op::kMovImm, dst, 0, 0, imm});
}
Assembler& Assembler::mov_reg(std::uint8_t dst, std::uint8_t src) {
  return emit({Op::kMovReg, dst, src, 0, 0});
}
Assembler& Assembler::add_imm(std::uint8_t dst, std::int64_t imm) {
  return emit({Op::kAddImm, dst, 0, 0, imm});
}
Assembler& Assembler::sub_reg(std::uint8_t dst, std::uint8_t src) {
  return emit({Op::kSubReg, dst, src, 0, 0});
}
Assembler& Assembler::sub_imm(std::uint8_t dst, std::int64_t imm) {
  return emit({Op::kSubImm, dst, 0, 0, imm});
}
Assembler& Assembler::mul_imm(std::uint8_t dst, std::int64_t imm) {
  return emit({Op::kMulImm, dst, 0, 0, imm});
}
Assembler& Assembler::div_imm(std::uint8_t dst, std::int64_t imm) {
  return emit({Op::kDivImm, dst, 0, 0, imm});
}
Assembler& Assembler::and_imm(std::uint8_t dst, std::int64_t imm) {
  return emit({Op::kAndImm, dst, 0, 0, imm});
}
Assembler& Assembler::or_imm(std::uint8_t dst, std::int64_t imm) {
  return emit({Op::kOrImm, dst, 0, 0, imm});
}
Assembler& Assembler::lsh_imm(std::uint8_t dst, std::int64_t imm) {
  return emit({Op::kLshImm, dst, 0, 0, imm});
}
Assembler& Assembler::rsh_imm(std::uint8_t dst, std::int64_t imm) {
  return emit({Op::kRshImm, dst, 0, 0, imm});
}

Assembler& Assembler::ld_pkt_dw(std::uint8_t dst, std::int16_t off) {
  return emit({Op::kLdPktDw, dst, 0, off, 0});
}
Assembler& Assembler::st_pkt_dw(std::int16_t off, std::uint8_t src) {
  return emit({Op::kStPktDw, 0, src, off, 0});
}

Assembler& Assembler::ld_stack_dw(std::uint8_t dst, std::int16_t off) {
  return emit({Op::kLdStackDw, dst, 0, off, 0});
}
Assembler& Assembler::st_stack_dw(std::int16_t off, std::uint8_t src) {
  return emit({Op::kStStackDw, 0, src, off, 0});
}

Assembler& Assembler::call(HelperId helper) {
  return emit({Op::kCall, 0, 0, 0, static_cast<std::int64_t>(helper)});
}

Assembler& Assembler::label(const std::string& name) {
  if (!labels_.emplace(name, insns_.size()).second) {
    throw std::runtime_error("duplicate label: " + name);
  }
  return *this;
}

Assembler& Assembler::jump(Op op, std::uint8_t dst, std::uint8_t src,
                           std::int64_t imm, const std::string& label) {
  fixups_.emplace_back(insns_.size(), label);
  return emit({op, dst, src, 0, imm});
}

Assembler& Assembler::ja(const std::string& label) {
  return jump(Op::kJa, 0, 0, 0, label);
}
Assembler& Assembler::jeq_imm(std::uint8_t dst, std::int64_t imm,
                              const std::string& label) {
  return jump(Op::kJeqImm, dst, 0, imm, label);
}
Assembler& Assembler::jgt_imm(std::uint8_t dst, std::int64_t imm,
                              const std::string& label) {
  return jump(Op::kJgtImm, dst, 0, imm, label);
}

Assembler& Assembler::exit() { return emit({Op::kExit, 0, 0, 0, 0}); }

Assembler& Assembler::ret(XdpVerdict verdict) {
  mov_imm(0, static_cast<std::int64_t>(verdict));
  return exit();
}

Program Assembler::finish() {
  for (const auto& [idx, label] : fixups_) {
    const auto it = labels_.find(label);
    if (it == labels_.end()) {
      throw std::runtime_error("undefined label: " + label);
    }
    // eBPF jump offsets are relative to the *next* instruction.
    const std::int64_t rel =
        static_cast<std::int64_t>(it->second) -
        static_cast<std::int64_t>(idx) - 1;
    insns_[idx].off = static_cast<std::int16_t>(rel);
  }
  return Program{name_, insns_};
}

}  // namespace steelnet::ebpf
