#include "isa/decoder.h"

#include <string>

namespace r2r::isa {

namespace {

struct RexBits {
  bool present = false;
  bool w = false, r = false, x = false, b = false;
};

/// Cursor over one instruction's bytes. It records the decode's first
/// failure (an underrun or a rejected field) and hands back zeros after
/// it, so every check runs as a plain statement in source order and the
/// first one to fail is the one reported. It also tracks a pending
/// RIP-relative fix-up, because the absolute target needs the final
/// instruction length.
class Cursor {
 public:
  Cursor(std::span<const std::uint8_t> bytes, std::uint64_t address)
      : bytes_(bytes), address_(address) {}

  std::uint8_t u8() noexcept {
    if (offset_ == bytes_.size()) [[unlikely]] {
      fail("byte reader underrun");
      return 0;
    }
    return bytes_[offset_++];
  }
  std::uint32_t u32() noexcept {
    std::uint32_t value = 0;
    for (unsigned shift = 0; shift < 32; shift += 8) value |= std::uint32_t{u8()} << shift;
    return value;
  }
  std::uint64_t u64() noexcept {
    const std::uint64_t low = u32();
    return low | (std::uint64_t{u32()} << 32);
  }
  std::int64_t i8() noexcept { return static_cast<std::int8_t>(u8()); }
  std::int64_t i32() noexcept { return static_cast<std::int32_t>(u32()); }

  /// Records `reason` unless an earlier check already failed.
  void fail(const char* reason) noexcept {
    if (failure_ == nullptr) failure_ = reason;
  }
  [[nodiscard]] const char* failure() const noexcept { return failure_; }

  [[nodiscard]] std::size_t consumed() const noexcept { return offset_; }
  [[nodiscard]] std::uint64_t address() const noexcept { return address_; }

  void note_rip_relative(std::int64_t disp32) noexcept {
    rip_pending_ = true;
    rip_disp_ = disp32;
  }

  /// Converts a pending RIP-relative displacement to an absolute address.
  /// The displacement is relative to the end of the whole instruction, so
  /// this runs after every byte has been consumed.
  void finalize(Instruction& instr) {
    if (!rip_pending_) return;
    const std::uint64_t next = address_ + consumed();
    for (Operand& op : instr.operands) {
      if (auto* mem = std::get_if<MemOperand>(&op); mem != nullptr && mem->rip_relative) {
        mem->disp = static_cast<std::int64_t>(next) + rip_disp_;
      }
    }
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
  std::uint64_t address_;
  const char* failure_ = nullptr;
  bool rip_pending_ = false;
  std::int64_t rip_disp_ = 0;
};

/// Decoded ModRM: either a register or a memory operand, plus the selector.
struct ModRm {
  unsigned reg_field = 0;
  Operand rm;
};

ModRm read_modrm(Cursor& cur, const RexBits& rex) {
  const std::uint8_t modrm = cur.u8();
  const unsigned mod = modrm >> 6;
  ModRm result;
  result.reg_field = ((modrm >> 3) & 7) | (rex.r ? 8U : 0U);
  const unsigned rm_low = modrm & 7;

  if (mod == 0b11) {
    result.rm = reg_from_number(rm_low | (rex.b ? 8U : 0U));
    return result;
  }

  MemOperand mem;
  bool rip_pending = false;
  std::int64_t rip_disp = 0;

  if (rm_low == 0b100) {
    // SIB byte follows.
    const std::uint8_t sib = cur.u8();
    const unsigned scale_bits = sib >> 6;
    const unsigned index_bits = ((sib >> 3) & 7) | (rex.x ? 8U : 0U);
    const unsigned base_bits = (sib & 7) | (rex.b ? 8U : 0U);
    if (index_bits != 0b100) {  // index=rsp means "no index"
      mem.index = reg_from_number(index_bits);
      mem.scale = static_cast<std::uint8_t>(1U << scale_bits);
    }  // without an index the scale bits are meaningless: normalize to 1
    if ((sib & 7) == 0b101 && mod == 0b00) {
      // no base, disp32 follows
    } else {
      mem.base = reg_from_number(base_bits);
    }
  } else if (rm_low == 0b101 && mod == 0b00) {
    // RIP-relative in 64-bit mode.
    mem.rip_relative = true;
    rip_pending = true;
  } else {
    mem.base = reg_from_number(rm_low | (rex.b ? 8U : 0U));
  }

  if (mod == 0b01) {
    mem.disp = cur.i8();
  } else if (mod == 0b10 || (mod == 0b00 && rm_low == 0b100 && !mem.base) ||
             (mod == 0b00 && mem.rip_relative)) {
    const std::int64_t disp = cur.i32();
    if (rip_pending) {
      rip_disp = disp;
    } else {
      mem.disp = disp;
    }
  }

  result.rm = mem;
  if (rip_pending) cur.note_rip_relative(rip_disp);
  return result;
}

Width width_from_rex(const RexBits& rex) noexcept {
  return rex.w ? Width::b64 : Width::b32;
}

Instruction alu_mr(Mnemonic m, Cursor& cur, const RexBits& rex, Width w) {
  const ModRm modrm = read_modrm(cur, rex);
  return make2(m, modrm.rm, reg_from_number(modrm.reg_field), w);
}

Instruction alu_rm(Mnemonic m, Cursor& cur, const RexBits& rex, Width w) {
  const ModRm modrm = read_modrm(cur, rex);
  return make2(m, reg_from_number(modrm.reg_field), modrm.rm, w);
}

Mnemonic group1_mnemonic(unsigned ext, Cursor& cur) noexcept {
  switch (ext) {
    case 0: return Mnemonic::kAdd;
    case 1: return Mnemonic::kOr;
    case 4: return Mnemonic::kAnd;
    case 5: return Mnemonic::kSub;
    case 6: return Mnemonic::kXor;
    case 7: return Mnemonic::kCmp;
    default:
      cur.fail("unsupported group-1 extension (adc/sbb)");
      return Mnemonic::kAdd;
  }
}

Mnemonic group2_mnemonic(unsigned ext, Cursor& cur) noexcept {
  switch (ext) {
    case 4: return Mnemonic::kShl;
    case 5: return Mnemonic::kShr;
    case 7: return Mnemonic::kSar;
    default:
      cur.fail("unsupported shift-group extension");
      return Mnemonic::kShl;
  }
}

}  // namespace

[[gnu::cold]] support::Error decode_error(const DecodeStatus& status) {
  std::string message;
  switch (status.form) {
    case DecodeStatus::Form::kWord:
      message = std::string(status.reason) + " (word " + std::to_string(status.value) + ")";
      break;
    case DecodeStatus::Form::kRegister:
      message = "register x" + std::to_string(status.value) + " is not in the " +
                status.reason + " register file";
      break;
    case DecodeStatus::Form::kOk:
    case DecodeStatus::Form::kReason:
      message = status.reason;
      break;
  }
  return support::Error(support::ErrorKind::kDecode, message);
}

Decoded decode(std::span<const std::uint8_t> bytes, std::uint64_t address) {
  Decoded out;
  const DecodeStatus status = try_decode(bytes, address, out);
  if (!status.ok()) [[unlikely]] throw decode_error(status);
  return out;
}

DecodeStatus try_decode(std::span<const std::uint8_t> bytes, std::uint64_t address,
                        Decoded& out) {
  if (bytes.empty()) return {DecodeStatus::Form::kReason, "empty byte stream"};
  if (bytes.size() > kMaxInstructionLength) bytes = bytes.first(kMaxInstructionLength);
  Cursor cur(bytes, address);

  RexBits rex;
  std::uint8_t opcode = cur.u8();
  // Hardware ignores a REX that is not immediately before the opcode; the
  // last one wins. Legacy prefixes (66/67/F0/F2/F3, segment overrides) are
  // outside the subset and rejected.
  while (opcode >= 0x40 && opcode <= 0x4F) {
    rex.present = true;
    rex.w = (opcode & 8) != 0;
    rex.r = (opcode & 4) != 0;
    rex.x = (opcode & 2) != 0;
    rex.b = (opcode & 1) != 0;
    opcode = cur.u8();
  }

  Instruction instr;
  const Width w = width_from_rex(rex);

  const auto rel_branch = [&cur](Mnemonic m, Cond cond, std::int64_t rel) {
    Instruction branch = make1(m, ImmOperand{0, {}});
    branch.cond = cond;
    // Target = end of instruction + rel; consumed() is final here because
    // rel is the last field of every branch encoding.
    const std::uint64_t target =
        cur.address() + cur.consumed() + static_cast<std::uint64_t>(rel);
    branch.operands[0] = ImmOperand{static_cast<std::int64_t>(target), {}};
    return branch;
  };

  switch (opcode) {
    // --- ALU MR/RM forms ----------------------------------------------------
    case 0x00: instr = alu_mr(Mnemonic::kAdd, cur, rex, Width::b8); break;
    case 0x01: instr = alu_mr(Mnemonic::kAdd, cur, rex, w); break;
    case 0x02: instr = alu_rm(Mnemonic::kAdd, cur, rex, Width::b8); break;
    case 0x03: instr = alu_rm(Mnemonic::kAdd, cur, rex, w); break;
    case 0x08: instr = alu_mr(Mnemonic::kOr, cur, rex, Width::b8); break;
    case 0x09: instr = alu_mr(Mnemonic::kOr, cur, rex, w); break;
    case 0x0A: instr = alu_rm(Mnemonic::kOr, cur, rex, Width::b8); break;
    case 0x0B: instr = alu_rm(Mnemonic::kOr, cur, rex, w); break;
    case 0x20: instr = alu_mr(Mnemonic::kAnd, cur, rex, Width::b8); break;
    case 0x21: instr = alu_mr(Mnemonic::kAnd, cur, rex, w); break;
    case 0x22: instr = alu_rm(Mnemonic::kAnd, cur, rex, Width::b8); break;
    case 0x23: instr = alu_rm(Mnemonic::kAnd, cur, rex, w); break;
    case 0x28: instr = alu_mr(Mnemonic::kSub, cur, rex, Width::b8); break;
    case 0x29: instr = alu_mr(Mnemonic::kSub, cur, rex, w); break;
    case 0x2A: instr = alu_rm(Mnemonic::kSub, cur, rex, Width::b8); break;
    case 0x2B: instr = alu_rm(Mnemonic::kSub, cur, rex, w); break;
    case 0x30: instr = alu_mr(Mnemonic::kXor, cur, rex, Width::b8); break;
    case 0x31: instr = alu_mr(Mnemonic::kXor, cur, rex, w); break;
    case 0x32: instr = alu_rm(Mnemonic::kXor, cur, rex, Width::b8); break;
    case 0x33: instr = alu_rm(Mnemonic::kXor, cur, rex, w); break;
    case 0x38: instr = alu_mr(Mnemonic::kCmp, cur, rex, Width::b8); break;
    case 0x39: instr = alu_mr(Mnemonic::kCmp, cur, rex, w); break;
    case 0x3A: instr = alu_rm(Mnemonic::kCmp, cur, rex, Width::b8); break;
    case 0x3B: instr = alu_rm(Mnemonic::kCmp, cur, rex, w); break;

    // --- push/pop -----------------------------------------------------------
    case 0x50: case 0x51: case 0x52: case 0x53:
    case 0x54: case 0x55: case 0x56: case 0x57:
      instr = make1(Mnemonic::kPush,
                    reg_from_number((opcode - 0x50U) | (rex.b ? 8U : 0U)));
      break;
    case 0x58: case 0x59: case 0x5A: case 0x5B:
    case 0x5C: case 0x5D: case 0x5E: case 0x5F:
      instr = make1(Mnemonic::kPop,
                    reg_from_number((opcode - 0x58U) | (rex.b ? 8U : 0U)));
      break;
    case 0x68: instr = make1(Mnemonic::kPush, ImmOperand{cur.i32(), {}}); break;
    case 0x6A: instr = make1(Mnemonic::kPush, ImmOperand{cur.i8(), {}}); break;

    // --- short conditional branches ------------------------------------------
    case 0x70: case 0x71: case 0x72: case 0x73:
    case 0x74: case 0x75: case 0x76: case 0x77:
    case 0x78: case 0x79: case 0x7A: case 0x7B:
    case 0x7C: case 0x7D: case 0x7E: case 0x7F: {
      const std::int64_t rel = cur.i8();
      instr = rel_branch(Mnemonic::kJcc, static_cast<Cond>(opcode - 0x70), rel);
      break;
    }

    // --- group 1: ALU r/m, imm ----------------------------------------------
    case 0x80: {
      const ModRm modrm = read_modrm(cur, rex);
      const Mnemonic m = group1_mnemonic(modrm.reg_field & 7, cur);
      instr = make2(m, modrm.rm, ImmOperand{cur.i8(), {}}, Width::b8);
      break;
    }
    case 0x81: {
      const ModRm modrm = read_modrm(cur, rex);
      const Mnemonic m = group1_mnemonic(modrm.reg_field & 7, cur);
      instr = make2(m, modrm.rm, ImmOperand{cur.i32(), {}}, w);
      break;
    }
    case 0x83: {
      const ModRm modrm = read_modrm(cur, rex);
      const Mnemonic m = group1_mnemonic(modrm.reg_field & 7, cur);
      instr = make2(m, modrm.rm, ImmOperand{cur.i8(), {}}, w);
      break;
    }

    case 0x84: instr = alu_mr(Mnemonic::kTest, cur, rex, Width::b8); break;
    case 0x85: instr = alu_mr(Mnemonic::kTest, cur, rex, w); break;

    case 0x88: instr = alu_mr(Mnemonic::kMov, cur, rex, Width::b8); break;
    case 0x89: instr = alu_mr(Mnemonic::kMov, cur, rex, w); break;
    case 0x8A: instr = alu_rm(Mnemonic::kMov, cur, rex, Width::b8); break;
    case 0x8B: instr = alu_rm(Mnemonic::kMov, cur, rex, w); break;

    case 0x8D: {
      const ModRm modrm = read_modrm(cur, rex);
      if (!is_mem(modrm.rm)) cur.fail("lea requires memory operand");
      instr = make2(Mnemonic::kLea, reg_from_number(modrm.reg_field), modrm.rm, w);
      break;
    }

    case 0x90:
      instr = make0(Mnemonic::kNop);
      break;
    case 0x9C: instr = make0(Mnemonic::kPushfq); break;
    case 0x9D: instr = make0(Mnemonic::kPopfq); break;

    // --- mov reg, imm --------------------------------------------------------
    case 0xB0: case 0xB1: case 0xB2: case 0xB3:
    case 0xB4: case 0xB5: case 0xB6: case 0xB7:
      instr = make2(Mnemonic::kMov,
                    reg_from_number((opcode - 0xB0U) | (rex.b ? 8U : 0U)),
                    ImmOperand{cur.i8(), {}}, Width::b8);
      break;
    case 0xB8: case 0xB9: case 0xBA: case 0xBB:
    case 0xBC: case 0xBD: case 0xBE: case 0xBF: {
      const Reg reg = reg_from_number((opcode - 0xB8U) | (rex.b ? 8U : 0U));
      if (rex.w) {
        instr = make2(Mnemonic::kMov, reg,
                      ImmOperand{static_cast<std::int64_t>(cur.u64()), {}}, Width::b64);
      } else {
        instr = make2(Mnemonic::kMov, reg,
                      ImmOperand{cur.i32(), {}}, Width::b32);
      }
      break;
    }

    // --- shift groups ----------------------------------------------------------
    case 0xC0: {
      const ModRm modrm = read_modrm(cur, rex);
      const Mnemonic m = group2_mnemonic(modrm.reg_field & 7, cur);
      const auto count = static_cast<std::int64_t>(cur.u8());
      instr = make2(m, modrm.rm, ImmOperand{count, {}}, Width::b8);
      break;
    }
    case 0xC1: {
      const ModRm modrm = read_modrm(cur, rex);
      const Mnemonic m = group2_mnemonic(modrm.reg_field & 7, cur);
      const auto count = static_cast<std::int64_t>(cur.u8());
      instr = make2(m, modrm.rm, ImmOperand{count, {}}, w);
      break;
    }
    case 0xD0: {
      const ModRm modrm = read_modrm(cur, rex);
      instr = make2(group2_mnemonic(modrm.reg_field & 7, cur), modrm.rm, ImmOperand{1, {}},
                    Width::b8);
      break;
    }
    case 0xD1: {
      const ModRm modrm = read_modrm(cur, rex);
      instr = make2(group2_mnemonic(modrm.reg_field & 7, cur), modrm.rm, ImmOperand{1, {}}, w);
      break;
    }
    case 0xD2: {
      const ModRm modrm = read_modrm(cur, rex);
      instr = make2(group2_mnemonic(modrm.reg_field & 7, cur), modrm.rm, Reg::rcx, Width::b8);
      break;
    }
    case 0xD3: {
      const ModRm modrm = read_modrm(cur, rex);
      instr = make2(group2_mnemonic(modrm.reg_field & 7, cur), modrm.rm, Reg::rcx, w);
      break;
    }

    case 0xC3: instr = make0(Mnemonic::kRet); break;

    case 0xC6: {
      const ModRm modrm = read_modrm(cur, rex);
      if ((modrm.reg_field & 7) != 0) cur.fail("bad C6 extension");
      instr = make2(Mnemonic::kMov, modrm.rm,
                    ImmOperand{cur.i8(), {}}, Width::b8);
      break;
    }
    case 0xC7: {
      const ModRm modrm = read_modrm(cur, rex);
      if ((modrm.reg_field & 7) != 0) cur.fail("bad C7 extension");
      // Canonical immediate form: sign-extended at the operand width, the
      // same convention as the group-1 ALU immediates. (The mov reg,imm and
      // imm8 encoder paths also accept the zero-extended alias byte-for-byte.)
      instr = make2(Mnemonic::kMov, modrm.rm, ImmOperand{cur.i32(), {}}, w);
      break;
    }

    case 0xCC: instr = make0(Mnemonic::kInt3); break;

    case 0xE8: {
      const std::int64_t rel = cur.i32();
      instr = rel_branch(Mnemonic::kCall, Cond::none, rel);
      break;
    }
    case 0xE9: {
      const std::int64_t rel = cur.i32();
      instr = rel_branch(Mnemonic::kJmp, Cond::none, rel);
      break;
    }
    case 0xEB: {
      const std::int64_t rel = cur.i8();
      instr = rel_branch(Mnemonic::kJmp, Cond::none, rel);
      break;
    }

    case 0xF4: instr = make0(Mnemonic::kHlt); break;

    case 0xF6: {
      const ModRm modrm = read_modrm(cur, rex);
      switch (modrm.reg_field & 7) {
        case 0:
          instr = make2(Mnemonic::kTest, modrm.rm,
                        ImmOperand{cur.i8(), {}}, Width::b8);
          break;
        case 2: instr = make1(Mnemonic::kNot, modrm.rm, Width::b8); break;
        case 3: instr = make1(Mnemonic::kNeg, modrm.rm, Width::b8); break;
        default: cur.fail("unsupported F6 extension"); break;
      }
      break;
    }
    case 0xF7: {
      const ModRm modrm = read_modrm(cur, rex);
      switch (modrm.reg_field & 7) {
        case 0:
          instr = make2(Mnemonic::kTest, modrm.rm, ImmOperand{cur.i32(), {}}, w);
          break;
        case 2: instr = make1(Mnemonic::kNot, modrm.rm, w); break;
        case 3: instr = make1(Mnemonic::kNeg, modrm.rm, w); break;
        default: cur.fail("unsupported F7 extension"); break;
      }
      break;
    }

    case 0xFE: {
      const ModRm modrm = read_modrm(cur, rex);
      switch (modrm.reg_field & 7) {
        case 0: instr = make1(Mnemonic::kInc, modrm.rm, Width::b8); break;
        case 1: instr = make1(Mnemonic::kDec, modrm.rm, Width::b8); break;
        default: cur.fail("unsupported FE extension"); break;
      }
      break;
    }
    case 0xFF: {
      const ModRm modrm = read_modrm(cur, rex);
      switch (modrm.reg_field & 7) {
        case 0: instr = make1(Mnemonic::kInc, modrm.rm, w); break;
        case 1: instr = make1(Mnemonic::kDec, modrm.rm, w); break;
        case 2: instr = make1(Mnemonic::kCallReg, modrm.rm); break;
        case 4: instr = make1(Mnemonic::kJmpReg, modrm.rm); break;
        case 6: instr = make1(Mnemonic::kPush, modrm.rm); break;
        default: cur.fail("unsupported FF extension"); break;
      }
      break;
    }

    // --- 0F escape ------------------------------------------------------------
    case 0x0F: {
      const std::uint8_t opcode2 = cur.u8();
      if (opcode2 == 0x05) {
        instr = make0(Mnemonic::kSyscall);
        break;
      }
      if (opcode2 == 0x0B) {
        instr = make0(Mnemonic::kUd2);
        break;
      }
      if (opcode2 >= 0x40 && opcode2 <= 0x4F) {  // cmovcc
        const ModRm modrm = read_modrm(cur, rex);
        instr = make2(Mnemonic::kCmovcc, reg_from_number(modrm.reg_field), modrm.rm, w);
        instr.cond = static_cast<Cond>(opcode2 - 0x40);
        break;
      }
      if (opcode2 >= 0x80 && opcode2 <= 0x8F) {  // jcc rel32
        const std::int64_t rel = cur.i32();
        instr = rel_branch(Mnemonic::kJcc, static_cast<Cond>(opcode2 - 0x80), rel);
        break;
      }
      if (opcode2 >= 0x90 && opcode2 <= 0x9F) {  // setcc
        const ModRm modrm = read_modrm(cur, rex);
        instr = make1(Mnemonic::kSetcc, modrm.rm, Width::b8);
        instr.cond = static_cast<Cond>(opcode2 - 0x90);
        break;
      }
      if (opcode2 == 0xAF) {
        const ModRm modrm = read_modrm(cur, rex);
        instr = make2(Mnemonic::kImul, reg_from_number(modrm.reg_field), modrm.rm, w);
        break;
      }
      if (opcode2 == 0xB6 || opcode2 == 0xBE) {
        const ModRm modrm = read_modrm(cur, rex);
        const Mnemonic m = opcode2 == 0xB6 ? Mnemonic::kMovzx : Mnemonic::kMovsx;
        instr = make2(m, reg_from_number(modrm.reg_field), modrm.rm, w);
        break;
      }
      cur.fail("unsupported 0F opcode");
      break;
    }

    default:
      cur.fail("unsupported opcode");
      break;
  }

  if (cur.failure() != nullptr) return {DecodeStatus::Form::kReason, cur.failure()};
  cur.finalize(instr);
  out.instr = std::move(instr);
  out.length = static_cast<std::uint8_t>(cur.consumed());
  return {};
}

}  // namespace r2r::isa
