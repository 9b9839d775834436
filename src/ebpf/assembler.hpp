// steelnet::ebpf -- a fluent assembler for building programs in C++.
//
// Labels are resolved on finish(); forward references are allowed (eBPF
// verification forbids *backward* jumps, and so does our verifier, but
// the assembler itself doesn't care).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ebpf/isa.hpp"

namespace steelnet::ebpf {

class Assembler {
 public:
  explicit Assembler(std::string program_name);

  // --- ALU ---
  Assembler& mov_imm(std::uint8_t dst, std::int64_t imm);
  Assembler& mov_reg(std::uint8_t dst, std::uint8_t src);
  Assembler& add_imm(std::uint8_t dst, std::int64_t imm);
  Assembler& sub_reg(std::uint8_t dst, std::uint8_t src);
  Assembler& sub_imm(std::uint8_t dst, std::int64_t imm);
  Assembler& mul_imm(std::uint8_t dst, std::int64_t imm);
  Assembler& div_imm(std::uint8_t dst, std::int64_t imm);
  Assembler& and_imm(std::uint8_t dst, std::int64_t imm);
  Assembler& or_imm(std::uint8_t dst, std::int64_t imm);
  Assembler& lsh_imm(std::uint8_t dst, std::int64_t imm);
  Assembler& rsh_imm(std::uint8_t dst, std::int64_t imm);

  // --- packet memory ---
  Assembler& ld_pkt_dw(std::uint8_t dst, std::int16_t off);
  Assembler& st_pkt_dw(std::int16_t off, std::uint8_t src);

  // --- stack ---
  Assembler& ld_stack_dw(std::uint8_t dst, std::int16_t off);
  Assembler& st_stack_dw(std::int16_t off, std::uint8_t src);

  // --- control ---
  Assembler& call(HelperId helper);
  Assembler& label(const std::string& name);
  Assembler& ja(const std::string& label);
  Assembler& jeq_imm(std::uint8_t dst, std::int64_t imm,
                     const std::string& label);
  Assembler& jgt_imm(std::uint8_t dst, std::int64_t imm,
                     const std::string& label);
  Assembler& exit();

  /// Convenience: mov_imm(r0, verdict); exit().
  Assembler& ret(XdpVerdict verdict);

  /// Resolves labels and returns the program. Throws std::runtime_error
  /// on undefined or duplicate labels.
  [[nodiscard]] Program finish();

  [[nodiscard]] std::size_t size() const { return insns_.size(); }

 private:
  Assembler& emit(Insn insn);
  Assembler& jump(Op op, std::uint8_t dst, std::uint8_t src,
                  std::int64_t imm, const std::string& label);

  std::string name_;
  std::vector<Insn> insns_;
  std::map<std::string, std::size_t> labels_;
  // (insn index, label) pairs awaiting resolution
  std::vector<std::pair<std::size_t, std::string>> fixups_;
};

}  // namespace steelnet::ebpf
