#include "ebpf/verifier.hpp"

#include <gtest/gtest.h>

#include "ebpf/assembler.hpp"
#include "ebpf/programs.hpp"
#include "sample_programs.hpp"

namespace steelnet::ebpf {
namespace {

Program simple_ret() {
  Assembler a("ok");
  a.ret(XdpVerdict::kPass);
  return a.finish();
}

TEST(Verifier, AcceptsSimpleProgram) {
  const auto r = verify(simple_ret());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.max_insns_executed, 2u);
}

TEST(Verifier, RejectsEmptyProgram) {
  EXPECT_FALSE(verify(Program{"empty", {}}).ok);
}

TEST(Verifier, RejectsBackwardJump) {
  Program p{"loop",
            {{Op::kMovImm, 0, 0, 0, 0},
             {Op::kJa, 0, 0, -2, 0},  // jump back to insn 0
             {Op::kExit, 0, 0, 0, 0}}};
  const auto r = verify(p);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("backward"), std::string::npos);
}

TEST(Verifier, RejectsJumpOutOfRange) {
  Program p{"far", {{Op::kJa, 0, 0, 100, 0}, {Op::kExit, 0, 0, 0, 0}}};
  EXPECT_FALSE(verify(p).ok);
}

TEST(Verifier, RejectsFallOffEnd) {
  Program p{"fall", {{Op::kMovImm, 0, 0, 0, 0}}};
  EXPECT_FALSE(verify(p).ok);
}

TEST(Verifier, RejectsConditionalJumpAsLastInsn) {
  Program p{"cond-end",
            {{Op::kMovImm, 0, 0, 0, 0}, {Op::kJeqImm, 0, 0, 0, 0}}};
  EXPECT_FALSE(verify(p).ok);
}

TEST(Verifier, RejectsUninitializedRead) {
  Program p{"uninit",
            {{Op::kMovReg, 0, 5, 0, 0},  // r5 never written
             {Op::kExit, 0, 0, 0, 0}}};
  const auto r = verify(p);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("uninitialized"), std::string::npos);
}

TEST(Verifier, AcceptsReadAfterWriteOnAllPaths) {
  Assembler a("both-paths");
  a.mov_imm(2, 1);
  a.jeq_imm(2, 0, "else");
  a.mov_imm(3, 10);
  a.ja("join");
  a.label("else");
  a.mov_imm(3, 20);
  a.label("join");
  a.mov_reg(0, 3);  // r3 initialized on both paths
  a.exit();
  const auto r = verify(a.finish());
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(Verifier, RejectsReadInitializedOnOnePathOnly) {
  Assembler a("one-path");
  a.mov_imm(2, 1);
  a.jeq_imm(2, 0, "join");
  a.mov_imm(3, 10);  // only on fall-through path
  a.label("join");
  a.mov_reg(0, 3);
  a.exit();
  EXPECT_FALSE(verify(a.finish()).ok);
}

TEST(Verifier, RejectsWriteToFramePointer) {
  Program p{"fp", {{Op::kMovImm, 10, 0, 0, 0}, {Op::kExit, 0, 0, 0, 0}}};
  EXPECT_FALSE(verify(p).ok);
}

TEST(Verifier, RejectsBadStackAccess) {
  {
    Assembler a("pos-stack");
    a.mov_imm(2, 1);
    Program p = a.finish();
    p.insns.push_back({Op::kStStackDw, 0, 2, 8, 0});  // positive offset
    p.insns.push_back({Op::kExit, 0, 0, 0, 0});
    p.insns.insert(p.insns.begin() + 1, {Op::kMovImm, 0, 0, 0, 0});
    EXPECT_FALSE(verify(p).ok);
  }
  {
    Program p{"deep-stack",
              {{Op::kMovImm, 2, 0, 0, 1},
               {Op::kStStackDw, 0, 2, -520, 0},
               {Op::kMovImm, 0, 0, 0, 0},
               {Op::kExit, 0, 0, 0, 0}}};
    EXPECT_FALSE(verify(p).ok);
  }
  {
    Program p{"unaligned",
              {{Op::kMovImm, 2, 0, 0, 1},
               {Op::kStStackDw, 0, 2, -7, 0},
               {Op::kMovImm, 0, 0, 0, 0},
               {Op::kExit, 0, 0, 0, 0}}};
    EXPECT_FALSE(verify(p).ok);
  }
}

TEST(Verifier, RejectsPacketOffsetBeyondBound) {
  Program p{"pkt-far",
            {{Op::kLdPktDw, 2, 0, 2045, 0},
             {Op::kMovImm, 0, 0, 0, 0},
             {Op::kExit, 0, 0, 0, 0}}};
  EXPECT_FALSE(verify(p).ok);
  Program n{"pkt-neg",
            {{Op::kLdPktDw, 2, 0, -1, 0},
             {Op::kMovImm, 0, 0, 0, 0},
             {Op::kExit, 0, 0, 0, 0}}};
  EXPECT_FALSE(verify(n).ok);
}

TEST(Verifier, RejectsUnknownHelperAndBadConstants) {
  Program p{"helper",
            {{Op::kCall, 0, 0, 0, 999}, {Op::kExit, 0, 0, 0, 0}}};
  EXPECT_FALSE(verify(p).ok);
  Program d{"div0",
            {{Op::kMovImm, 0, 0, 0, 1},
             {Op::kDivImm, 0, 0, 0, 0},
             {Op::kExit, 0, 0, 0, 0}}};
  EXPECT_FALSE(verify(d).ok);
  Program s{"shift",
            {{Op::kMovImm, 0, 0, 0, 1},
             {Op::kLshImm, 0, 0, 0, 64},
             {Op::kExit, 0, 0, 0, 0}}};
  EXPECT_FALSE(verify(s).ok);
}

TEST(Verifier, RejectsTooLongProgram) {
  Program p{"long", {}};
  for (std::size_t i = 0; i < kMaxInsns + 1; ++i) {
    p.insns.push_back({Op::kMovImm, 0, 0, 0, 0});
  }
  p.insns.push_back({Op::kExit, 0, 0, 0, 0});
  EXPECT_FALSE(verify(p).ok);
}

TEST(Verifier, RegisterOutOfRangeRejected) {
  Program p{"r11", {{Op::kMovImm, 11, 0, 0, 0}, {Op::kExit, 0, 0, 0, 0}}};
  EXPECT_FALSE(verify(p).ok);
}

TEST(Verifier, VerifyOrThrowThrowsWithMessage) {
  EXPECT_THROW(verify_or_throw(Program{"bad", {}}), std::invalid_argument);
  EXPECT_NO_THROW(verify_or_throw(simple_ret()));
}

// Property: every program the library ships verifies.
class ShippedPrograms
    : public ::testing::TestWithParam<ReflectorVariant> {};

TEST_P(ShippedPrograms, Verify) {
  const auto r = verify(make_reflector(GetParam()));
  EXPECT_TRUE(r.ok) << r.error;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ShippedPrograms,
                         ::testing::ValuesIn(all_reflector_variants()));

TEST(Verifier, AuxiliaryProgramsVerify) {
  EXPECT_TRUE(verify(make_out_of_bounds_reader()).ok);
  EXPECT_TRUE(verify(make_flow_counter()).ok);
}

}  // namespace
}  // namespace steelnet::ebpf
