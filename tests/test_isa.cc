// Unit tests for the SRV64 ISA: classification, encode/decode round trips,
// micro-op cracking and register-usage metadata.
#include <gtest/gtest.h>

#include "isa/crack.h"
#include "isa/disasm.h"
#include "isa/encoding.h"
#include "isa/isa.h"
#include "sim/uop_info.h"

namespace paradet::isa {
namespace {

/// All opcodes, for parameterized sweeps.
std::vector<Opcode> all_opcodes() {
  std::vector<Opcode> ops;
  for (unsigned v = 0; v < 256; ++v) {
    const auto op = static_cast<Opcode>(v);
    if (mnemonic(op) != "<bad>") ops.push_back(op);
  }
  return ops;
}

class AllOpcodes : public ::testing::TestWithParam<Opcode> {};

INSTANTIATE_TEST_SUITE_P(Sweep, AllOpcodes, ::testing::ValuesIn(all_opcodes()),
                         [](const auto& info) {
                           std::string name{mnemonic(info.param)};
                           for (auto& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

TEST_P(AllOpcodes, MnemonicRoundTrip) {
  const Opcode op = GetParam();
  Opcode back;
  ASSERT_TRUE(opcode_from_mnemonic(mnemonic(op), back));
  EXPECT_EQ(back, op);
}

TEST_P(AllOpcodes, EncodeDecodeRoundTrip) {
  const Opcode op = GetParam();
  Inst inst;
  inst.op = op;
  // Fill fields appropriate for the format; decode must reproduce exactly.
  switch (format_of(op)) {
    case Format::kR:
      inst.rd = 3;
      inst.rs1 = 17;
      inst.rs2 = 29;
      break;
    case Format::kR1:
      inst.rd = 31;
      inst.rs1 = 1;
      break;
    case Format::kR4:
      inst.rd = 4;
      inst.rs1 = 8;
      inst.rs2 = 15;
      inst.rs3 = 23;
      break;
    case Format::kI:
    case Format::kS:
      inst.rd = 9;
      inst.rs1 = 12;
      inst.imm = -1234;
      break;
    case Format::kB:
      inst.rs1 = 6;
      inst.rs2 = 7;
      inst.imm = -4096;
      break;
    case Format::kJ:
    case Format::kU:
      inst.rd = 14;
      inst.imm = -100000;
      break;
    case Format::kSys:
      inst.rd = op == Opcode::kRdcycle ? 5 : 0;
      break;
  }
  const auto decoded = decode(encode(inst));
  ASSERT_TRUE(decoded.has_value()) << mnemonic(op);
  EXPECT_EQ(*decoded, inst) << mnemonic(op);
}

TEST_P(AllOpcodes, ClassificationIsConsistent) {
  const Opcode op = GetParam();
  // Loads and stores are disjoint and exactly the mem ops.
  EXPECT_FALSE(is_load(op) && is_store(op));
  EXPECT_EQ(is_mem(op), is_load(op) || is_store(op));
  // Macro-ops have two memory micro-ops, other mem ops one, the rest zero.
  if (is_macro(op)) {
    EXPECT_EQ(mem_uop_count(op), 2u);
  } else if (is_mem(op)) {
    EXPECT_EQ(mem_uop_count(op), 1u);
  } else {
    EXPECT_EQ(mem_uop_count(op), 0u);
  }
  // An op never writes both register files.
  EXPECT_FALSE(writes_int_reg(op) && writes_fp_reg(op));
  // Control ops write no fp registers.
  if (is_control(op)) {
    EXPECT_FALSE(writes_fp_reg(op));
  }
  // Latency is at least one cycle and unpipelined classes are the slow ones.
  const ExecClass cls = exec_class(op);
  EXPECT_GE(exec_latency(cls), 1u);
  if (exec_unpipelined(cls)) {
    EXPECT_GT(exec_latency(cls), 4u);
  }
}

TEST_P(AllOpcodes, DisassemblyMentionsMnemonic) {
  Inst inst;
  inst.op = GetParam();
  const std::string text = disassemble(inst);
  EXPECT_EQ(text.find(std::string(mnemonic(inst.op))), 0u) << text;
}

TEST(Encoding, ImmediateLimits) {
  Inst inst;
  inst.op = Opcode::kAddi;
  inst.imm = kImm14Max;
  EXPECT_TRUE(immediate_fits(inst));
  inst.imm = kImm14Max + 1;
  EXPECT_FALSE(immediate_fits(inst));
  inst.imm = kImm14Min;
  EXPECT_TRUE(immediate_fits(inst));
  inst.imm = kImm14Min - 1;
  EXPECT_FALSE(immediate_fits(inst));

  inst.op = Opcode::kJal;
  inst.imm = kImm19Max;
  EXPECT_TRUE(immediate_fits(inst));
  inst.imm = kImm19Min - 1;
  EXPECT_FALSE(immediate_fits(inst));
}

TEST(Encoding, RejectsUnknownOpcodeByte) {
  EXPECT_FALSE(decode(0xFFu << 24).has_value());
  EXPECT_FALSE(decode(0x21u << 24).has_value());  // hole in the opcode map.
}

TEST(Crack, SimpleInstIsSingleUop) {
  Inst add;
  add.op = Opcode::kAdd;
  const CrackedInst cracked = crack(add);
  ASSERT_EQ(cracked.count, 1u);
  EXPECT_TRUE(cracked.uops[0].first());
  EXPECT_TRUE(cracked.uops[0].last());
  EXPECT_EQ(cracked.uops[0].inst, add);
}

TEST(Crack, LdpSplitsIntoTwoLoads) {
  Inst ldp;
  ldp.op = Opcode::kLdp;
  ldp.rd = 10;
  ldp.rs1 = 2;
  ldp.imm = 32;
  const CrackedInst cracked = crack(ldp);
  ASSERT_EQ(cracked.count, 2u);
  EXPECT_EQ(cracked.uops[0].inst.op, Opcode::kLd);
  EXPECT_EQ(cracked.uops[0].inst.rd, 10);
  EXPECT_EQ(cracked.uops[0].inst.imm, 32);
  EXPECT_EQ(cracked.uops[1].inst.op, Opcode::kLd);
  EXPECT_EQ(cracked.uops[1].inst.rd, 11);
  EXPECT_EQ(cracked.uops[1].inst.imm, 40);
  EXPECT_TRUE(cracked.uops[0].first());
  EXPECT_TRUE(cracked.uops[1].last());
}

TEST(Crack, StpSplitsIntoTwoStores) {
  Inst stp;
  stp.op = Opcode::kStp;
  stp.rd = 20;
  stp.rs1 = 5;
  stp.imm = -16;
  const CrackedInst cracked = crack(stp);
  ASSERT_EQ(cracked.count, 2u);
  EXPECT_EQ(cracked.uops[0].inst.op, Opcode::kSd);
  EXPECT_EQ(cracked.uops[0].inst.rd, 20);
  EXPECT_EQ(cracked.uops[1].inst.rd, 21);
  EXPECT_EQ(cracked.uops[1].inst.imm, -8);
}

TEST(UopRegs, StoreReadsBaseAndData) {
  Inst sd;
  sd.op = Opcode::kSd;
  sd.rd = 7;   // data
  sd.rs1 = 2;  // base
  const sim::UopRegs regs = sim::uop_regs(sd);
  EXPECT_EQ(regs.n_srcs, 2u);
  EXPECT_EQ(regs.srcs[0], 2u);
  EXPECT_EQ(regs.srcs[1], 7u);
  EXPECT_EQ(regs.dest, -1);
}

TEST(UopRegs, FpStoreDataIsFpRegister) {
  Inst fsd;
  fsd.op = Opcode::kFsd;
  fsd.rd = 7;
  fsd.rs1 = 2;
  const sim::UopRegs regs = sim::uop_regs(fsd);
  EXPECT_EQ(regs.n_srcs, 2u);
  EXPECT_EQ(regs.srcs[1], kNumIntRegs + 7u);
}

TEST(UopRegs, X0IsNeverADependency) {
  Inst add;
  add.op = Opcode::kAdd;
  add.rd = 0;
  add.rs1 = 0;
  add.rs2 = 0;
  const sim::UopRegs regs = sim::uop_regs(add);
  EXPECT_EQ(regs.n_srcs, 0u);
  EXPECT_EQ(regs.dest, -1);
}

TEST(UopRegs, Fmadd3Sources) {
  Inst fmadd;
  fmadd.op = Opcode::kFmadd;
  fmadd.rd = 1;
  fmadd.rs1 = 2;
  fmadd.rs2 = 3;
  fmadd.rs3 = 4;
  const sim::UopRegs regs = sim::uop_regs(fmadd);
  EXPECT_EQ(regs.n_srcs, 3u);
  EXPECT_EQ(regs.dest, static_cast<int>(kNumIntRegs + 1));
}

TEST(UopRegs, BranchesHaveNoDest) {
  Inst beq;
  beq.op = Opcode::kBeq;
  beq.rs1 = 3;
  beq.rs2 = 4;
  const sim::UopRegs regs = sim::uop_regs(beq);
  EXPECT_EQ(regs.n_srcs, 2u);
  EXPECT_EQ(regs.dest, -1);
}

TEST(Classification, FpOpsReadFpSources) {
  EXPECT_TRUE(reads_fp_rs1(Opcode::kFadd));
  EXPECT_TRUE(reads_fp_rs2(Opcode::kFadd));
  EXPECT_FALSE(reads_fp_rs1(Opcode::kFcvtDL));  // int -> fp conversion.
  EXPECT_TRUE(reads_fp_rs1(Opcode::kFcvtLD));
  EXPECT_TRUE(writes_int_reg(Opcode::kFcvtLD));
  EXPECT_TRUE(writes_fp_reg(Opcode::kFcvtDL));
  EXPECT_TRUE(writes_int_reg(Opcode::kFeq));
  EXPECT_TRUE(store_data_is_fp(Opcode::kFsd));
  EXPECT_FALSE(store_data_is_fp(Opcode::kSd));
}

TEST(Classification, MemAccessSizes) {
  EXPECT_EQ(mem_access_bytes(Opcode::kLb), 1u);
  EXPECT_EQ(mem_access_bytes(Opcode::kLhu), 2u);
  EXPECT_EQ(mem_access_bytes(Opcode::kSw), 4u);
  EXPECT_EQ(mem_access_bytes(Opcode::kLd), 8u);
  EXPECT_EQ(mem_access_bytes(Opcode::kFld), 8u);
  EXPECT_EQ(mem_access_bytes(Opcode::kLdp), 8u);  // per micro-op.
  EXPECT_EQ(mem_access_bytes(Opcode::kAdd), 0u);
}

TEST(Classification, SignedLoads) {
  EXPECT_TRUE(load_is_signed(Opcode::kLb));
  EXPECT_FALSE(load_is_signed(Opcode::kLbu));
  EXPECT_TRUE(load_is_signed(Opcode::kLw));
  EXPECT_FALSE(load_is_signed(Opcode::kLwu));
}

}  // namespace
}  // namespace paradet::isa
