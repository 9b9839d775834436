// steelnet::ebpf -- a compact eBPF-like instruction set.
//
// This is a faithful *subset* of the real eBPF machine model: eleven
// 64-bit registers (r10 is the read-only frame pointer), a 512-byte
// stack, bounded programs verified before load, helper calls, and no
// floating point (the real verifier forbids it for determinism, as the
// paper notes in §3). Packet access is modelled with dedicated
// load/store opcodes carrying an immediate offset; the interpreter
// bounds-checks against the live frame, mirroring XDP's data/data_end
// discipline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace steelnet::ebpf {

enum class Op : std::uint8_t {
  // ALU64, dst op= src/imm
  kAddImm, kAddReg,
  kSubImm, kSubReg,
  kMulImm, kMulReg,
  kDivImm, kDivReg,   ///< division by zero yields 0, as in eBPF
  kAndImm, kAndReg,
  kOrImm,  kOrReg,
  kXorImm, kXorReg,
  kLshImm, kLshReg,
  kRshImm, kRshReg,
  kMovImm, kMovReg,
  kNeg,

  // Packet memory (offset = insn.off + value of src reg when src != 0xff)
  kLdPktB, kLdPktH, kLdPktW, kLdPktDw,   ///< dst = pkt[off..]
  kStPktB, kStPktH, kStPktW, kStPktDw,   ///< pkt[off..] = src

  // Stack memory, offsets are negative from r10 (frame pointer)
  kLdStackDw,  ///< dst = stack[off]
  kStStackDw,  ///< stack[off] = src

  kCall,  ///< helper call, imm = HelperId; args r1-r5, result r0
  kJa,    ///< unconditional forward jump
  kJeqImm, kJeqReg,
  kJneImm, kJneReg,
  kJgtImm, kJgtReg,
  kJgeImm, kJgeReg,
  kJltImm, kJltReg,
  kExit,
};

/// Helper functions available to programs (ids mirror the spirit, not the
/// numbering, of the kernel's).
enum class HelperId : std::int64_t {
  kKtimeGetNs = 1,     ///< r0 = current time (ns)
  kRingbufOutput = 2,  ///< r1 = stack offset (negative), r2 = length
  kMapLookup = 3,      ///< r1 = map id, r2 = key; r0 = value (0 if miss)
  kMapUpdate = 4,      ///< r1 = map id, r2 = key, r3 = value
  kGetPktLen = 5,      ///< r0 = payload length
};

struct Insn {
  Op op;
  std::uint8_t dst = 0;
  std::uint8_t src = 0;
  std::int16_t off = 0;
  std::int64_t imm = 0;
};

/// XDP program verdicts (values as in the kernel ABI).
enum class XdpVerdict : std::int64_t {
  kAborted = 0,
  kDrop = 1,
  kPass = 2,
  kTx = 3,
};

constexpr std::size_t kNumRegisters = 11;  ///< r0..r10
constexpr std::uint8_t kFramePointer = 10;
constexpr std::size_t kStackBytes = 512;
constexpr std::size_t kMaxInsns = 4096;
constexpr std::size_t kMaxPacketOffset = 2048;

/// A named, verified-or-not program.
struct Program {
  std::string name;
  std::vector<Insn> insns;
};

[[nodiscard]] std::string to_string(Op op);

/// Disassembles one instruction (for error messages and dumps).
[[nodiscard]] std::string disassemble(const Insn& insn);

}  // namespace steelnet::ebpf
