#include "isa/disasm.h"

#include <string>

namespace paradet::isa {
namespace {

// Each helper appends one operand in place. Building with += instead of
// chaining `const char* + std::string` temporaries also keeps gcc 12's
// -Wrestrict false positive (inlined char_traits::copy) out of -O3 builds.
void reg(std::string& out, RegIndex r, bool fp) {
  out += fp ? 'f' : 'x';
  out += std::to_string(static_cast<unsigned>(r));
}

void rel(std::string& out, std::int64_t imm) {
  out += imm >= 0 ? ".+" : ".-";
  out += std::to_string(imm >= 0 ? imm : -imm);
}

void mem(std::string& out, std::int64_t imm, RegIndex base) {
  out += std::to_string(imm);
  out += '(';
  reg(out, base, false);
  out += ')';
}

}  // namespace

std::string disassemble(const Inst& inst) {
  const Opcode op = inst.op;
  const bool fp_rd = writes_fp_reg(op) || store_data_is_fp(op);
  std::string out{mnemonic(op)};
  // Separator before each operand: a space after the mnemonic, then ", ".
  bool first = true;
  const auto next = [&out, &first]() -> std::string& {
    out += first ? " " : ", ";
    first = false;
    return out;
  };
  switch (format_of(op)) {
    case Format::kR:
      reg(next(), inst.rd, fp_rd);
      reg(next(), inst.rs1, reads_fp_rs1(op));
      reg(next(), inst.rs2, reads_fp_rs2(op));
      break;
    case Format::kR1:
      reg(next(), inst.rd, fp_rd);
      reg(next(), inst.rs1, reads_fp_rs1(op));
      break;
    case Format::kR4:
      reg(next(), inst.rd, fp_rd);
      reg(next(), inst.rs1, true);
      reg(next(), inst.rs2, true);
      reg(next(), inst.rs3, true);
      break;
    case Format::kI:
      if (is_load(op)) {
        reg(next(), inst.rd, fp_rd);
        mem(next(), inst.imm, inst.rs1);
        break;
      }
      reg(next(), inst.rd, false);
      reg(next(), inst.rs1, false);
      next() += std::to_string(inst.imm);
      break;
    case Format::kS:
      reg(next(), inst.rd, fp_rd);
      mem(next(), inst.imm, inst.rs1);
      break;
    case Format::kB:
      reg(next(), inst.rs1, false);
      reg(next(), inst.rs2, false);
      rel(next(), inst.imm);
      break;
    case Format::kJ:
      reg(next(), inst.rd, false);
      rel(next(), inst.imm);
      break;
    case Format::kU:
      reg(next(), inst.rd, false);
      next() += std::to_string(inst.imm);
      break;
    case Format::kSys:
      if (op == Opcode::kRdcycle) reg(next(), inst.rd, false);
      break;
  }
  return out;
}

}  // namespace paradet::isa
