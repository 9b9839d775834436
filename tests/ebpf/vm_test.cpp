#include "ebpf/vm.hpp"

#include <gtest/gtest.h>

#include "ebpf/assembler.hpp"
#include "ebpf/programs.hpp"
#include "ebpf/verifier.hpp"
#include "sample_programs.hpp"

namespace steelnet::ebpf {
namespace {

using namespace steelnet::sim::literals;

net::Frame frame_with_payload(std::size_t bytes) {
  net::Frame f;
  f.payload.assign(bytes, 0);
  return f;
}

CostParams zero_costs() {
  return CostModel::deterministic(CostParams{
      .per_run_base_ns = 0, .insn_ns = 0, .pkt_access_ns = 0,
      .stack_access_ns = 0, .ktime_ns = 0, .ringbuf_base_ns = 0,
      .map_ns = 0});
}

RunResult run_program(Program p, net::Frame& f,
                      sim::SimTime now = sim::SimTime::zero()) {
  verify_or_throw(p);
  Vm vm(std::move(p), zero_costs(), 1);
  return vm.run(f, now);
}

TEST(Vm, ReturnsVerdictFromR0) {
  Assembler a("t");
  a.ret(XdpVerdict::kDrop);
  auto f = frame_with_payload(64);
  EXPECT_EQ(run_program(a.finish(), f).verdict, XdpVerdict::kDrop);
}

TEST(Vm, InvalidVerdictValueAborts) {
  Assembler a("t");
  a.mov_imm(0, 77).exit();
  auto f = frame_with_payload(64);
  EXPECT_EQ(run_program(a.finish(), f).verdict, XdpVerdict::kAborted);
}

TEST(Vm, AluArithmetic) {
  // Compute through the ALU, store the result into the payload, PASS.
  Assembler b("alu");
  b.mov_imm(2, 10);    // 10
  b.add_imm(2, 5);
  b.mul_imm(2, 4);
  b.div_imm(2, 7);
  b.sub_imm(2, 1);
  b.lsh_imm(2, 2);
  b.rsh_imm(2, 1);
  b.and_imm(2, 0xc);
  b.or_imm(2, 1);
  b.st_pkt_dw(0, 2);
  b.ret(XdpVerdict::kPass);
  auto f2 = frame_with_payload(64);
  EXPECT_EQ(run_program(b.finish(), f2).verdict, XdpVerdict::kPass);
  EXPECT_EQ(f2.read_u64(0), 13u);
}

TEST(Vm, DivByZeroRegisterYieldsZero) {
  Assembler a("t");
  a.mov_imm(2, 100);
  a.mov_imm(3, 0);
  a.mov_reg(4, 2);
  // div_reg: dst / src
  auto p = a.finish();
  p.insns.push_back({Op::kDivReg, 4, 3, 0, 0});
  p.insns.push_back({Op::kStPktDw, 0, 4, 0, 0});
  p.insns.push_back({Op::kMovImm, 0, 0, 0, 2});
  p.insns.push_back({Op::kExit, 0, 0, 0, 0});
  auto f = frame_with_payload(64);
  const auto r = run_program(std::move(p), f);
  EXPECT_EQ(r.verdict, XdpVerdict::kPass);
  EXPECT_EQ(f.read_u64(0), 0u);
}

TEST(Vm, PacketLoadStoreRoundTrip) {
  Assembler a("t");
  a.ld_pkt_dw(2, 0);
  a.add_imm(2, 1);
  a.st_pkt_dw(8, 2);
  a.ret(XdpVerdict::kPass);
  auto f = frame_with_payload(32);
  f.write_u64(0, 0xfeed);
  EXPECT_EQ(run_program(a.finish(), f).verdict, XdpVerdict::kPass);
  EXPECT_EQ(f.read_u64(8), 0xfeeeu);
}

TEST(Vm, RuntimePacketBoundsFault) {
  auto f = frame_with_payload(32);  // program reads offset 1500
  const auto r = run_program(make_out_of_bounds_reader(), f);
  EXPECT_EQ(r.verdict, XdpVerdict::kAborted);
  EXPECT_NE(r.fault.find("out of bounds"), std::string::npos);
}

TEST(Vm, StackRoundTrip) {
  Assembler a("t");
  a.mov_imm(2, 0x1234);
  a.st_stack_dw(-16, 2);
  a.ld_stack_dw(3, -16);
  a.st_pkt_dw(0, 3);
  a.ret(XdpVerdict::kPass);
  auto f = frame_with_payload(16);
  EXPECT_EQ(run_program(a.finish(), f).verdict, XdpVerdict::kPass);
  EXPECT_EQ(f.read_u64(0), 0x1234u);
}

TEST(Vm, KtimeReflectsSimTime) {
  Assembler a("t");
  a.call(HelperId::kKtimeGetNs);
  a.st_pkt_dw(0, 0);
  a.ret(XdpVerdict::kPass);
  auto f = frame_with_payload(16);
  run_program(a.finish(), f, 5_us);
  EXPECT_EQ(f.read_u64(0), 5000u);  // zero-cost model: exactly now
}

TEST(Vm, KtimeIncludesElapsedExecutionCost) {
  Assembler a("t");
  a.call(HelperId::kKtimeGetNs);
  a.st_pkt_dw(0, 0);
  a.ret(XdpVerdict::kPass);
  CostParams costs = zero_costs();
  costs.ktime_ns = 100;  // the call itself takes 100ns
  auto p = a.finish();
  verify_or_throw(p);
  Vm vm(std::move(p), costs, 1);
  auto f = frame_with_payload(16);
  vm.run(f, 1_us);
  EXPECT_EQ(f.read_u64(0), 1100u);
}

TEST(Vm, GetPktLenHelper) {
  Assembler a("t");
  a.call(HelperId::kGetPktLen);
  a.st_pkt_dw(0, 0);
  a.ret(XdpVerdict::kPass);
  auto f = frame_with_payload(48);
  run_program(a.finish(), f);
  EXPECT_EQ(f.read_u64(0), 48u);
}

TEST(Vm, RingbufOutputStoresRecord) {
  auto p = make_reflector(ReflectorVariant::kTsRb);
  verify_or_throw(p);
  Vm vm(std::move(p), zero_costs(), 1);
  auto f = frame_with_payload(32);
  const auto r = vm.run(f, 3_us);
  EXPECT_EQ(r.verdict, XdpVerdict::kTx);
  ASSERT_EQ(vm.ringbuf().produced(), 1u);
  const auto rec = vm.ringbuf().pop();
  ASSERT_EQ(rec.data.size(), 8u);
  std::uint64_t ts = 0;
  for (int i = 7; i >= 0; --i) ts = (ts << 8) | rec.data[size_t(i)];
  EXPECT_EQ(ts, 3000u);
}

TEST(Vm, FlowCounterCountsPerFlow) {
  auto p = make_flow_counter();
  verify_or_throw(p);
  Vm vm(std::move(p), zero_costs(), 1);
  for (int i = 0; i < 3; ++i) {
    auto f = frame_with_payload(16);
    f.write_u64(0, 7);  // flow id 7
    vm.run(f, sim::SimTime::zero());
  }
  auto f2 = frame_with_payload(16);
  f2.write_u64(0, 9);
  vm.run(f2, sim::SimTime::zero());
  EXPECT_EQ(vm.map().lookup(7), 3u);
  EXPECT_EQ(vm.map().lookup(9), 1u);
  EXPECT_EQ(vm.map().lookup(8), 0u);
}

TEST(Vm, BranchTaken) {
  Assembler a("t");
  a.ld_pkt_dw(2, 0);
  a.jgt_imm(2, 100, "big");
  a.ret(XdpVerdict::kPass);
  a.label("big");
  a.ret(XdpVerdict::kDrop);
  auto p = a.finish();
  {
    auto f = frame_with_payload(16);
    f.write_u64(0, 50);
    EXPECT_EQ(run_program(p, f).verdict, XdpVerdict::kPass);
  }
  {
    auto f = frame_with_payload(16);
    f.write_u64(0, 500);
    EXPECT_EQ(run_program(p, f).verdict, XdpVerdict::kDrop);
  }
}

TEST(Vm, CountsInsnsAndHelpers) {
  auto p = make_reflector(ReflectorVariant::kTsTs);
  verify_or_throw(p);
  const std::size_t n_insns = p.insns.size();
  Vm vm(std::move(p), zero_costs(), 1);
  auto f = frame_with_payload(32);
  const auto r = vm.run(f, sim::SimTime::zero());
  EXPECT_EQ(r.helper_calls, 2u);
  EXPECT_EQ(r.insns_executed, n_insns);  // straight-line: every insn once
}

TEST(Vm, ExecTimeMatchesDeterministicCosts) {
  CostParams costs = zero_costs();
  costs.insn_ns = 10;
  Assembler a("t");
  a.mov_imm(0, 2);  // 10ns
  a.exit();         // 10ns
  auto p = a.finish();
  verify_or_throw(p);
  Vm vm(std::move(p), costs, 1);
  auto f = frame_with_payload(16);
  EXPECT_EQ(vm.run(f, sim::SimTime::zero()).exec_time, 20_ns);
}

}  // namespace
}  // namespace steelnet::ebpf
