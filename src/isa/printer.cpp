#include "isa/printer.h"

#include <cstdio>

#include "isa/target.h"
#include "support/strings.h"

namespace r2r::isa {

namespace {

std::string imm_to_string(std::int64_t value) {
  if (value >= -255 && value <= 255) return std::to_string(value);
  if (value < 0) {
    // Negate in unsigned space: well-defined for INT64_MIN, which prints
    // as its own two's-complement magnitude.
    return "-" + support::hex_string(0ULL - static_cast<std::uint64_t>(value));
  }
  return support::hex_string(static_cast<std::uint64_t>(value));
}

std::string_view size_prefix(Width width) {
  switch (width) {
    case Width::b8: return "byte ptr ";
    case Width::b16: return "word ptr ";
    case Width::b32: return "dword ptr ";
    case Width::b64: return "qword ptr ";
  }
  return "";
}

std::string mem_to_string(const MemOperand& mem, const Target& target) {
  std::string out = "[";
  bool first = true;
  const auto plus = [&out, &first] {
    if (!first) out += "+";
    first = false;
  };
  if (mem.rip_relative) {
    plus();
    out += target.pc_token();
    if (!mem.label.empty()) {
      out += "+";
      out += mem.label;
    } else {
      // disp holds the absolute target after decode/resolution.
      out += "+";
      out += imm_to_string(mem.disp);
    }
    out += "]";
    return out;
  }
  // Address registers print at the machine's natural width.
  const Width address_width = target.natural_width();
  if (mem.base) {
    plus();
    out += target.reg_name(*mem.base, address_width);
  }
  if (mem.index) {
    plus();
    out += target.reg_name(*mem.index, address_width);
    if (mem.scale != 1) {
      out += "*";
      out += std::to_string(mem.scale);
    }
  }
  if (!mem.label.empty()) {
    plus();
    out += mem.label;
  } else if (mem.disp != 0 || first) {
    if (mem.disp < 0) {
      out += "-";
      out += imm_to_string(-mem.disp);
      first = false;
    } else {
      plus();
      out += imm_to_string(mem.disp);
    }
  }
  out += "]";
  return out;
}

std::string print_operand_for(const Target& target, const Operand& op, Width width,
                              bool with_size_prefix, bool byte_memory) {
  if (is_reg(op)) return std::string(target.reg_name(std::get<Reg>(op), width));
  if (is_imm(op)) {
    const auto& imm = std::get<ImmOperand>(op);
    if (!imm.label.empty()) return "offset " + imm.label;
    return imm_to_string(imm.value);
  }
  if (is_label(op)) return std::get<LabelOperand>(op).name;
  const auto& mem = std::get<MemOperand>(op);
  std::string out;
  if (with_size_prefix) out += size_prefix(byte_memory ? Width::b8 : width);
  out += mem_to_string(mem, target);
  return out;
}

}  // namespace

std::string Target::print(const Instruction& instr) const {
  std::string out{mnemonic_name(instr.mnemonic)};
  if (instr.cond != Cond::none) out += cond_suffix(instr.cond);

  const bool byte_memory =
      instr.mnemonic == Mnemonic::kMovzx || instr.mnemonic == Mnemonic::kMovsx;
  const bool size_prefix_needed = instr.mnemonic != Mnemonic::kLea;

  for (std::size_t i = 0; i < instr.arity(); ++i) {
    out += (i == 0) ? " " : ", ";
    // The source of movzx/movsx is 8-bit even though the op width is the
    // destination width; registers there must print with 8-bit names.
    Width operand_width = instr.width;
    if (byte_memory && i == 1) operand_width = Width::b8;
    if ((instr.mnemonic == Mnemonic::kPush || instr.mnemonic == Mnemonic::kPop ||
         instr.mnemonic == Mnemonic::kJmpReg || instr.mnemonic == Mnemonic::kCallReg) &&
        is_reg(instr.op(i))) {
      operand_width = natural_width();
    }
    // Shift-by-cl prints the count register as cl.
    if ((instr.mnemonic == Mnemonic::kShl || instr.mnemonic == Mnemonic::kShr ||
         instr.mnemonic == Mnemonic::kSar) &&
        i == 1 && is_reg(instr.op(i))) {
      operand_width = Width::b8;
    }
    out += print_operand_for(*this, instr.op(i), operand_width, size_prefix_needed,
                             byte_memory && i == 1);
  }
  return out;
}

std::string print(const Instruction& instr) {
  return detail::x64_target().print(instr);
}

}  // namespace r2r::isa
