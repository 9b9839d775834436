#include "ebpf/programs.hpp"

#include <stdexcept>

#include "ebpf/assembler.hpp"

namespace steelnet::ebpf {

std::string to_string(ReflectorVariant v) {
  switch (v) {
    case ReflectorVariant::kBase: return "Base";
    case ReflectorVariant::kTs: return "TS";
    case ReflectorVariant::kTsTs: return "TS-TS";
    case ReflectorVariant::kTsRb: return "TS-RB";
    case ReflectorVariant::kTsOw: return "TS-OW";
    case ReflectorVariant::kTsDRb: return "TS-D-RB";
  }
  return "?";
}

std::vector<ReflectorVariant> all_reflector_variants() {
  return {ReflectorVariant::kBase,  ReflectorVariant::kTs,
          ReflectorVariant::kTsTs,  ReflectorVariant::kTsRb,
          ReflectorVariant::kTsOw,  ReflectorVariant::kTsDRb};
}

Program make_reflector(ReflectorVariant variant) {
  Assembler a(to_string(variant));
  // Common prologue: touch the first payload word (header inspection any
  // real reflector does to decide it owns the packet).
  a.ld_pkt_dw(2, 0);

  switch (variant) {
    case ReflectorVariant::kBase:
      break;

    case ReflectorVariant::kTs:
      a.call(HelperId::kKtimeGetNs);   // r0 = now
      a.st_stack_dw(-8, 0);            // keep it (real code logs it later)
      break;

    case ReflectorVariant::kTsTs:
      a.call(HelperId::kKtimeGetNs);
      a.st_stack_dw(-8, 0);
      a.call(HelperId::kKtimeGetNs);
      a.st_stack_dw(-16, 0);
      break;

    case ReflectorVariant::kTsRb:
      a.call(HelperId::kKtimeGetNs);
      a.st_stack_dw(-8, 0);
      a.mov_imm(1, -8);                // r1 = record offset
      a.mov_imm(2, 8);                 // r2 = record length
      a.call(HelperId::kRingbufOutput);
      break;

    case ReflectorVariant::kTsOw:
      a.call(HelperId::kKtimeGetNs);
      a.st_pkt_dw(kTsOwPayloadOffset, 0);  // overwrite payload in place
      break;

    case ReflectorVariant::kTsDRb:
      a.call(HelperId::kKtimeGetNs);
      a.mov_reg(6, 0);                 // r6 = t0 (callee-saved)
      a.call(HelperId::kKtimeGetNs);
      a.sub_reg(0, 6);                 // r0 = t1 - t0
      a.st_stack_dw(-8, 0);
      a.mov_imm(1, -8);
      a.mov_imm(2, 8);
      a.call(HelperId::kRingbufOutput);
      break;
  }

  a.ret(XdpVerdict::kTx);
  return a.finish();
}

}  // namespace steelnet::ebpf
