#include "sample_programs.hpp"

#include "ebpf/assembler.hpp"

namespace steelnet::ebpf {

Program make_out_of_bounds_reader() {
  Assembler a("oob-reader");
  a.ld_pkt_dw(2, 1500);  // static bound ok; tiny frames fault at runtime
  a.ret(XdpVerdict::kPass);
  return a.finish();
}

Program make_flow_counter() {
  Assembler a("flow-counter");
  a.ld_pkt_dw(6, 0);                // r6 = flow id (callee-saved)
  a.mov_imm(1, 0);                  // r1 = map id (single map)
  a.mov_reg(2, 6);                  // r2 = key
  a.call(HelperId::kMapLookup);     // r0 = count
  a.add_imm(0, 1);
  a.mov_reg(3, 0);                  // r3 = new value
  a.mov_imm(1, 0);
  a.mov_reg(2, 6);
  a.call(HelperId::kMapUpdate);
  a.ret(XdpVerdict::kPass);
  return a.finish();
}

}  // namespace steelnet::ebpf
