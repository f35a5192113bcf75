#include "isa/encoder.h"

#include <cstdlib>
#include <span>

#include "support/bits.h"
#include "support/error.h"
#include "support/strings.h"

namespace r2r::isa {

namespace {

using support::check;
using support::ErrorKind;
using support::fits_int32;
using support::fits_int8;

/// An imm8 field accepts the sign-extended value or its zero-extended
/// alias; both denote the same byte.
constexpr bool fits_imm8(std::int64_t value) noexcept {
  return fits_int8(value) || (value >= 0 && value <= 0xFF);
}

/// Incremental emitter with deferred PC-relative fix-ups. x86 PC-relative
/// fields (rel32 of branches, disp32 of RIP-relative operands) are relative
/// to the *end* of the instruction, which is only known once every byte has
/// been appended; fix-ups record where the field lives and patch it last.
/// Bytes and fix-ups live in fixed arrays, so emitting allocates nothing.
class Emitter {
 public:
  explicit Emitter(std::uint64_t address) : address_(address) {}

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  /// Reserves a rel32 field that will hold `target - end_of_instruction`.
  void rel32_to(std::uint64_t target) {
    check(fixup_count_ < fixups_.size(), ErrorKind::kEncode,
          "more than two pc-relative fields");
    fixups_[fixup_count_++] = Fixup{bytes_.size(), target};
    u32(0);
  }

  Encoding finish() {
    for (const Fixup& fixup : std::span(fixups_).first(fixup_count_)) {
      const std::uint64_t next = address_ + bytes_.size();
      const std::int64_t rel =
          static_cast<std::int64_t>(fixup.target) - static_cast<std::int64_t>(next);
      check(fits_int32(rel), ErrorKind::kEncode, "pc-relative target out of rel32 range");
      const auto value = static_cast<std::uint32_t>(static_cast<std::int32_t>(rel));
      for (int i = 0; i < 4; ++i)
        bytes_.data()[fixup.offset + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(value >> (8 * i));
    }
    check(bytes_.size() <= 15, ErrorKind::kEncode, "instruction exceeds 15 bytes");
    return bytes_;
  }

 private:
  struct Fixup {
    std::size_t offset;
    std::uint64_t target;
  };
  std::uint64_t address_;
  Encoding bytes_;
  std::array<Fixup, 2> fixups_{};
  std::size_t fixup_count_ = 0;
};

struct Rex {
  bool w = false, r = false, x = false, b = false;
  bool force = false;  ///< emit 0x40 even with no bits (spl/bpl/sil/dil)

  [[nodiscard]] bool needed() const noexcept { return w || r || x || b || force; }
  [[nodiscard]] std::uint8_t byte() const noexcept {
    return static_cast<std::uint8_t>(0x40 | (w << 3) | (r << 2) | (x << 1) |
                                     static_cast<int>(b));
  }
};

/// An 8-bit reference to spl/bpl/sil/dil (numbers 4..7) requires a REX
/// prefix to select the low byte instead of ah..bh.
bool needs_rex_for_byte_reg(Reg reg, Width width) noexcept {
  const unsigned n = reg_number(reg);
  return width == Width::b8 && n >= 4 && n <= 7;
}

std::uint8_t modrm_byte(unsigned mod, unsigned reg, unsigned rm) noexcept {
  return static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7));
}

std::uint8_t sib_byte(unsigned scale_log2, unsigned index, unsigned base) noexcept {
  return static_cast<std::uint8_t>((scale_log2 << 6) | ((index & 7) << 3) | (base & 7));
}

unsigned scale_log2(std::uint8_t scale) {
  switch (scale) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    case 8: return 3;
    default: support::fail(ErrorKind::kEncode, "invalid SIB scale");
  }
}

/// Everything needed to emit opcode + ModRM for one instruction form.
struct RmEncoding {
  Rex rex;
  Encoding modrm_tail;  ///< modrm, optional sib, optional disp
  bool rip_fixup = false;
  std::uint64_t rip_target = 0;
};

/// Builds ModRM(+SIB+disp) with `reg_field` against a register rm.
RmEncoding rm_reg(unsigned reg_field, Reg rm, Width width) {
  RmEncoding enc;
  enc.rex.r = reg_field >= 8;
  enc.rex.b = reg_number(rm) >= 8;
  enc.rex.force = needs_rex_for_byte_reg(rm, width);
  enc.modrm_tail.push_back(modrm_byte(0b11, reg_field, reg_number(rm)));
  return enc;
}

/// Builds ModRM(+SIB+disp) with `reg_field` against a memory rm.
RmEncoding rm_mem(unsigned reg_field, const MemOperand& mem) {
  RmEncoding enc;
  enc.rex.r = reg_field >= 8;

  if (mem.rip_relative) {
    enc.modrm_tail.push_back(modrm_byte(0b00, reg_field, 0b101));
    enc.rip_fixup = true;
    enc.rip_target = static_cast<std::uint64_t>(mem.disp);
    return enc;
  }

  check(fits_int32(mem.disp), ErrorKind::kEncode, "memory displacement out of range");
  const auto disp32 = static_cast<std::int32_t>(mem.disp);

  const auto append_disp8 = [&enc](std::int32_t d) {
    enc.modrm_tail.push_back(static_cast<std::uint8_t>(static_cast<std::int8_t>(d)));
  };
  const auto append_disp32 = [&enc](std::int32_t d) {
    const auto u = static_cast<std::uint32_t>(d);
    for (int i = 0; i < 4; ++i)
      enc.modrm_tail.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
  };

  if (!mem.base && !mem.index) {
    // Absolute 32-bit address: ModRM rm=100 + SIB base=101 index=none.
    enc.modrm_tail.push_back(modrm_byte(0b00, reg_field, 0b100));
    enc.modrm_tail.push_back(sib_byte(0, 0b100, 0b101));
    append_disp32(disp32);
    return enc;
  }

  const bool has_index = mem.index.has_value();
  if (has_index) {
    check(*mem.index != Reg::rsp, ErrorKind::kEncode, "rsp cannot be an index register");
    enc.rex.x = reg_number(*mem.index) >= 8;
  }

  if (!mem.base) {
    // Index without base: SIB with base=101, mod=00, disp32 mandatory.
    check(has_index, ErrorKind::kEncode, "memory operand without base or index");
    enc.modrm_tail.push_back(modrm_byte(0b00, reg_field, 0b100));
    enc.modrm_tail.push_back(
        sib_byte(scale_log2(mem.scale), reg_number(*mem.index), 0b101));
    append_disp32(disp32);
    return enc;
  }

  const Reg base = *mem.base;
  enc.rex.b = reg_number(base) >= 8;
  const unsigned base_low = reg_number(base) & 7;

  // mod=00 with base rbp/r13 means disp32-only, so those bases need disp8=0.
  unsigned mod;
  if (disp32 == 0 && base_low != 0b101) {
    mod = 0b00;
  } else if (fits_int8(disp32)) {
    mod = 0b01;
  } else {
    mod = 0b10;
  }

  const bool needs_sib = has_index || base_low == 0b100;  // rsp/r12 base forces SIB
  if (needs_sib) {
    enc.modrm_tail.push_back(modrm_byte(mod, reg_field, 0b100));
    const unsigned index_bits = has_index ? reg_number(*mem.index) : 0b100;
    enc.modrm_tail.push_back(
        sib_byte(has_index ? scale_log2(mem.scale) : 0, index_bits, base_low));
  } else {
    enc.modrm_tail.push_back(modrm_byte(mod, reg_field, base_low));
  }
  if (mod == 0b01) append_disp8(disp32);
  if (mod == 0b10) append_disp32(disp32);
  return enc;
}

RmEncoding rm_operand(unsigned reg_field, const Operand& op, Width width) {
  if (is_reg(op)) return rm_reg(reg_field, std::get<Reg>(op), width);
  if (is_mem(op)) return rm_mem(reg_field, std::get<MemOperand>(op));
  support::fail(ErrorKind::kEncode, "operand is not register or memory");
}

/// Emits [REX] opcode(s) ModRM... for a full instruction form.
void emit_form(Emitter& out, Width width, RmEncoding enc,
               std::initializer_list<std::uint8_t> opcode, Reg maybe_reg_operand,
               bool reg_operand_present) {
  enc.rex.w = (width == Width::b64);
  if (reg_operand_present) enc.rex.force |= needs_rex_for_byte_reg(maybe_reg_operand, width);
  if (enc.rex.needed()) out.u8(enc.rex.byte());
  for (std::uint8_t b : opcode) out.u8(b);
  for (std::uint8_t b : enc.modrm_tail) out.u8(b);
  if (enc.rip_fixup) {
    // The disp32 placeholder was not appended by rm_mem; append as fix-up.
    out.rel32_to(enc.rip_target);
  }
}

struct AluOpcodes {
  std::uint8_t mr;         ///< opcode for r/m, r  (width form; 8-bit is mr-1)
  std::uint8_t rm;         ///< opcode for r, r/m
  std::uint8_t imm_ext;    ///< ModRM reg extension for the 0x80/0x81/0x83 group
};

AluOpcodes alu_opcodes(Mnemonic m) {
  switch (m) {
    case Mnemonic::kAdd: return {0x01, 0x03, 0};
    case Mnemonic::kOr: return {0x09, 0x0B, 1};
    case Mnemonic::kAnd: return {0x21, 0x23, 4};
    case Mnemonic::kSub: return {0x29, 0x2B, 5};
    case Mnemonic::kXor: return {0x31, 0x33, 6};
    case Mnemonic::kCmp: return {0x39, 0x3B, 7};
    default: support::fail(ErrorKind::kInternal, "not an ALU mnemonic");
  }
}

std::int64_t imm_value(const Operand& op) {
  return std::get<ImmOperand>(op).value;
}

std::uint64_t branch_target(const Instruction& instr) {
  check(instr.arity() == 1, ErrorKind::kEncode, "branch needs one operand");
  check(is_imm(instr.op(0)), ErrorKind::kEncode,
        "branch target is an unresolved label; run layout first");
  return static_cast<std::uint64_t>(imm_value(instr.op(0)));
}

void check_width_supported(Width width) {
  check(width != Width::b16, ErrorKind::kEncode, "16-bit operations are outside the subset");
}

}  // namespace

Encoding encode(const Instruction& instr, std::uint64_t address) {
  Emitter out(address);
  const Width w = instr.width;
  check_width_supported(w);
  const bool byte_op = (w == Width::b8);

  const auto binary_ops = [&](const AluOpcodes& opc) {
    const Operand& dst = instr.op(0);
    const Operand& src = instr.op(1);
    if (is_imm(src)) {
      const std::int64_t value = imm_value(src);
      RmEncoding enc = rm_operand(opc.imm_ext, dst, w);
      if (byte_op) {
        check(fits_imm8(value), ErrorKind::kEncode,
              "8-bit immediate out of range");
        emit_form(out, w, enc, {0x80}, Reg::rax, false);
        out.u8(static_cast<std::uint8_t>(value));
      } else if (fits_int8(value)) {
        emit_form(out, w, enc, {0x83}, Reg::rax, false);
        out.i8(static_cast<std::int8_t>(value));
      } else {
        check(fits_int32(value), ErrorKind::kEncode, "ALU immediate out of int32 range");
        emit_form(out, w, enc, {0x81}, Reg::rax, false);
        out.u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(value)));
      }
      return;
    }
    if (is_reg(src)) {
      const Reg src_reg = std::get<Reg>(src);
      RmEncoding enc = rm_operand(reg_number(src_reg), dst, w);
      emit_form(out, w, enc,
                {static_cast<std::uint8_t>(byte_op ? opc.mr - 1 : opc.mr)}, src_reg, true);
      return;
    }
    // dst must be a register, src memory.
    check(is_reg(dst) && is_mem(src), ErrorKind::kEncode, "unsupported ALU operand form");
    const Reg dst_reg = std::get<Reg>(dst);
    RmEncoding enc = rm_operand(reg_number(dst_reg), src, w);
    emit_form(out, w, enc,
              {static_cast<std::uint8_t>(byte_op ? opc.rm - 1 : opc.rm)}, dst_reg, true);
  };

  switch (instr.mnemonic) {
    case Mnemonic::kMov: {
      const Operand& dst = instr.op(0);
      const Operand& src = instr.op(1);
      if (is_imm(src)) {
        const std::int64_t value = imm_value(src);
        const bool has_label = !std::get<ImmOperand>(src).label.empty();
        if (is_reg(dst)) {
          const Reg dst_reg = std::get<Reg>(dst);
          if (byte_op) {
            check(fits_imm8(value), ErrorKind::kEncode,
                  "8-bit immediate out of range");
            Rex rex;
            rex.b = reg_number(dst_reg) >= 8;
            rex.force = needs_rex_for_byte_reg(dst_reg, w);
            if (rex.needed()) out.u8(rex.byte());
            out.u8(static_cast<std::uint8_t>(0xB0 + (reg_number(dst_reg) & 7)));
            out.u8(static_cast<std::uint8_t>(value));
          } else if (w == Width::b64 && (has_label || !fits_int32(value))) {
            // movabs r64, imm64 — also used for all symbol addresses so
            // instruction sizes stay independent of symbol placement.
            Rex rex;
            rex.w = true;
            rex.b = reg_number(dst_reg) >= 8;
            out.u8(rex.byte());
            out.u8(static_cast<std::uint8_t>(0xB8 + (reg_number(dst_reg) & 7)));
            out.u64(static_cast<std::uint64_t>(value));
          } else if (w == Width::b64) {
            RmEncoding enc = rm_reg(0, dst_reg, w);
            emit_form(out, w, enc, {0xC7}, Reg::rax, false);
            out.u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(value)));
          } else {  // b32: mov r32, imm32 zero-extends
            check(value >= 0 ? value <= 0xFFFFFFFFLL : fits_int32(value),
                  ErrorKind::kEncode, "32-bit immediate out of range");
            Rex rex;
            rex.b = reg_number(dst_reg) >= 8;
            if (rex.needed()) out.u8(rex.byte());
            out.u8(static_cast<std::uint8_t>(0xB8 + (reg_number(dst_reg) & 7)));
            out.u32(static_cast<std::uint32_t>(value));
          }
        } else {
          check(is_mem(dst), ErrorKind::kEncode, "mov immediate needs reg or mem dst");
          RmEncoding enc = rm_operand(0, dst, w);
          if (byte_op) {
            check(fits_imm8(value), ErrorKind::kEncode,
                  "8-bit immediate out of range");
            emit_form(out, w, enc, {0xC6}, Reg::rax, false);
            out.u8(static_cast<std::uint8_t>(value));
          } else {
            check(fits_int32(value), ErrorKind::kEncode, "mov m, imm out of int32 range");
            emit_form(out, w, enc, {0xC7}, Reg::rax, false);
            out.u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(value)));
          }
        }
        break;
      }
      if (is_reg(src)) {
        const Reg src_reg = std::get<Reg>(src);
        RmEncoding enc = rm_operand(reg_number(src_reg), dst, w);
        emit_form(out, w, enc,
                  {static_cast<std::uint8_t>(byte_op ? 0x88 : 0x89)}, src_reg, true);
        break;
      }
      check(is_reg(dst) && is_mem(src), ErrorKind::kEncode, "unsupported mov operand form");
      {
        const Reg dst_reg = std::get<Reg>(dst);
        RmEncoding enc = rm_operand(reg_number(dst_reg), src, w);
        emit_form(out, w, enc,
                  {static_cast<std::uint8_t>(byte_op ? 0x8A : 0x8B)}, dst_reg, true);
      }
      break;
    }

    case Mnemonic::kMovzx:
    case Mnemonic::kMovsx: {
      check(instr.arity() == 2 && is_reg(instr.op(0)), ErrorKind::kEncode,
            "movzx/movsx destination must be a register");
      check(w == Width::b64 || w == Width::b32, ErrorKind::kEncode,
            "movzx/movsx destination must be 32/64-bit");
      const Reg dst_reg = std::get<Reg>(instr.op(0));
      const std::uint8_t opcode2 = instr.mnemonic == Mnemonic::kMovzx ? 0xB6 : 0xBE;
      RmEncoding enc = rm_operand(reg_number(dst_reg), instr.op(1), Width::b8);
      emit_form(out, w, enc, {0x0F, opcode2}, dst_reg, true);
      break;
    }

    case Mnemonic::kLea: {
      check(instr.arity() == 2 && is_reg(instr.op(0)) && is_mem(instr.op(1)),
            ErrorKind::kEncode, "lea needs reg, mem");
      const Reg dst_reg = std::get<Reg>(instr.op(0));
      RmEncoding enc = rm_operand(reg_number(dst_reg), instr.op(1), w);
      emit_form(out, w, enc, {0x8D}, dst_reg, true);
      break;
    }

    case Mnemonic::kAdd:
    case Mnemonic::kSub:
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
    case Mnemonic::kXor:
    case Mnemonic::kCmp:
      check(instr.arity() == 2, ErrorKind::kEncode, "ALU op needs two operands");
      binary_ops(alu_opcodes(instr.mnemonic));
      break;

    case Mnemonic::kTest: {
      check(instr.arity() == 2, ErrorKind::kEncode, "test needs two operands");
      const Operand& dst = instr.op(0);
      const Operand& src = instr.op(1);
      if (is_imm(src)) {
        const std::int64_t value = imm_value(src);
        RmEncoding enc = rm_operand(0, dst, w);
        if (byte_op) {
          check(fits_imm8(value), ErrorKind::kEncode,
                "8-bit immediate out of range");
          emit_form(out, w, enc, {0xF6}, Reg::rax, false);
          out.u8(static_cast<std::uint8_t>(value));
        } else {
          check(fits_int32(value), ErrorKind::kEncode, "test immediate out of range");
          emit_form(out, w, enc, {0xF7}, Reg::rax, false);
          out.u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(value)));
        }
      } else {
        check(is_reg(src), ErrorKind::kEncode, "test source must be reg or imm");
        const Reg src_reg = std::get<Reg>(src);
        RmEncoding enc = rm_operand(reg_number(src_reg), dst, w);
        emit_form(out, w, enc,
                  {static_cast<std::uint8_t>(byte_op ? 0x84 : 0x85)}, src_reg, true);
      }
      break;
    }

    case Mnemonic::kNot:
    case Mnemonic::kNeg: {
      check(instr.arity() == 1, ErrorKind::kEncode, "unary op needs one operand");
      const unsigned ext = instr.mnemonic == Mnemonic::kNot ? 2 : 3;
      RmEncoding enc = rm_operand(ext, instr.op(0), w);
      emit_form(out, w, enc,
                {static_cast<std::uint8_t>(byte_op ? 0xF6 : 0xF7)}, Reg::rax, false);
      break;
    }

    case Mnemonic::kInc:
    case Mnemonic::kDec: {
      check(instr.arity() == 1, ErrorKind::kEncode, "inc/dec needs one operand");
      const unsigned ext = instr.mnemonic == Mnemonic::kInc ? 0 : 1;
      RmEncoding enc = rm_operand(ext, instr.op(0), w);
      emit_form(out, w, enc,
                {static_cast<std::uint8_t>(byte_op ? 0xFE : 0xFF)}, Reg::rax, false);
      break;
    }

    case Mnemonic::kImul: {
      check(instr.arity() == 2 && is_reg(instr.op(0)), ErrorKind::kEncode,
            "imul needs reg destination");
      check(!byte_op, ErrorKind::kEncode, "8-bit imul is outside the subset");
      const Reg dst_reg = std::get<Reg>(instr.op(0));
      RmEncoding enc = rm_operand(reg_number(dst_reg), instr.op(1), w);
      emit_form(out, w, enc, {0x0F, 0xAF}, dst_reg, true);
      break;
    }

    case Mnemonic::kShl:
    case Mnemonic::kShr:
    case Mnemonic::kSar: {
      check(instr.arity() == 2, ErrorKind::kEncode, "shift needs two operands");
      unsigned ext = 0;
      switch (instr.mnemonic) {
        case Mnemonic::kShl: ext = 4; break;
        case Mnemonic::kShr: ext = 5; break;
        default: ext = 7; break;
      }
      const Operand& count = instr.op(1);
      RmEncoding enc = rm_operand(ext, instr.op(0), w);
      if (is_imm(count)) {
        emit_form(out, w, enc,
                  {static_cast<std::uint8_t>(byte_op ? 0xC0 : 0xC1)}, Reg::rax, false);
        out.u8(static_cast<std::uint8_t>(imm_value(count)));
      } else {
        check(is_reg(count) && std::get<Reg>(count) == Reg::rcx, ErrorKind::kEncode,
              "shift count must be an immediate or cl");
        emit_form(out, w, enc,
                  {static_cast<std::uint8_t>(byte_op ? 0xD2 : 0xD3)}, Reg::rax, false);
      }
      break;
    }

    case Mnemonic::kPush: {
      check(instr.arity() == 1, ErrorKind::kEncode, "push needs one operand");
      const Operand& src = instr.op(0);
      if (is_reg(src)) {
        const Reg reg = std::get<Reg>(src);
        Rex rex;
        rex.b = reg_number(reg) >= 8;
        if (rex.needed()) out.u8(rex.byte());
        out.u8(static_cast<std::uint8_t>(0x50 + (reg_number(reg) & 7)));
      } else if (is_imm(src)) {
        const std::int64_t value = imm_value(src);
        if (fits_int8(value)) {
          out.u8(0x6A);
          out.i8(static_cast<std::int8_t>(value));
        } else {
          check(fits_int32(value), ErrorKind::kEncode, "push immediate out of range");
          out.u8(0x68);
          out.u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(value)));
        }
      } else {
        RmEncoding enc = rm_operand(6, src, Width::b64);
        enc.rex.w = false;  // push defaults to 64-bit
        if (enc.rex.needed()) out.u8(enc.rex.byte());
        out.u8(0xFF);
        for (std::uint8_t b : enc.modrm_tail) out.u8(b);
        if (enc.rip_fixup) out.rel32_to(enc.rip_target);
      }
      break;
    }

    case Mnemonic::kPop: {
      check(instr.arity() == 1 && is_reg(instr.op(0)), ErrorKind::kEncode,
            "pop needs a register operand");
      const Reg reg = std::get<Reg>(instr.op(0));
      Rex rex;
      rex.b = reg_number(reg) >= 8;
      if (rex.needed()) out.u8(rex.byte());
      out.u8(static_cast<std::uint8_t>(0x58 + (reg_number(reg) & 7)));
      break;
    }

    case Mnemonic::kPushfq: out.u8(0x9C); break;
    case Mnemonic::kPopfq: out.u8(0x9D); break;

    case Mnemonic::kJmp:
      out.u8(0xE9);
      out.rel32_to(branch_target(instr));
      break;

    case Mnemonic::kJcc:
      check(instr.cond != Cond::none, ErrorKind::kEncode, "jcc without condition");
      out.u8(0x0F);
      out.u8(static_cast<std::uint8_t>(0x80 + static_cast<std::uint8_t>(instr.cond)));
      out.rel32_to(branch_target(instr));
      break;

    case Mnemonic::kCall:
      out.u8(0xE8);
      out.rel32_to(branch_target(instr));
      break;

    case Mnemonic::kJmpReg:
    case Mnemonic::kCallReg: {
      check(instr.arity() == 1, ErrorKind::kEncode, "indirect branch needs one operand");
      const unsigned ext = instr.mnemonic == Mnemonic::kJmpReg ? 4 : 2;
      RmEncoding enc = rm_operand(ext, instr.op(0), Width::b64);
      enc.rex.w = false;  // default 64-bit
      if (enc.rex.needed()) out.u8(enc.rex.byte());
      out.u8(0xFF);
      for (std::uint8_t b : enc.modrm_tail) out.u8(b);
      if (enc.rip_fixup) out.rel32_to(enc.rip_target);
      break;
    }

    case Mnemonic::kRet: out.u8(0xC3); break;

    case Mnemonic::kSetcc: {
      check(instr.cond != Cond::none, ErrorKind::kEncode, "setcc without condition");
      check(instr.arity() == 1, ErrorKind::kEncode, "setcc needs one operand");
      RmEncoding enc = rm_operand(0, instr.op(0), Width::b8);
      enc.rex.w = false;
      if (enc.rex.needed()) out.u8(enc.rex.byte());
      out.u8(0x0F);
      out.u8(static_cast<std::uint8_t>(0x90 + static_cast<std::uint8_t>(instr.cond)));
      for (std::uint8_t b : enc.modrm_tail) out.u8(b);
      if (enc.rip_fixup) out.rel32_to(enc.rip_target);
      break;
    }

    case Mnemonic::kCmovcc: {
      check(instr.cond != Cond::none, ErrorKind::kEncode, "cmovcc without condition");
      check(instr.arity() == 2 && is_reg(instr.op(0)), ErrorKind::kEncode,
            "cmovcc needs reg destination");
      check(!byte_op, ErrorKind::kEncode, "8-bit cmov does not exist");
      const Reg dst_reg = std::get<Reg>(instr.op(0));
      RmEncoding enc = rm_operand(reg_number(dst_reg), instr.op(1), w);
      emit_form(out, w, enc,
                {0x0F, static_cast<std::uint8_t>(0x40 + static_cast<std::uint8_t>(instr.cond))},
                dst_reg, true);
      break;
    }

    case Mnemonic::kSyscall:
      out.u8(0x0F);
      out.u8(0x05);
      break;
    case Mnemonic::kNop: out.u8(0x90); break;
    case Mnemonic::kHlt: out.u8(0xF4); break;
    case Mnemonic::kInt3: out.u8(0xCC); break;
    case Mnemonic::kUd2:
      out.u8(0x0F);
      out.u8(0x0B);
      break;

    case Mnemonic::kReadFlags:
    case Mnemonic::kWriteFlags:
      // x86-64 spells these pushfq/popfq; the direct register forms only
      // exist on targets without a stack-resident flags image.
      support::fail(ErrorKind::kEncode, "mvflags/wrflags are not x86-64 instructions");
  }

  return out.finish();
}

Encoding encode_short_branch(const Instruction& instr, std::uint64_t address) {
  Encoding out;
  if (instr.mnemonic == Mnemonic::kJcc && instr.cond != Cond::none) {
    out.push_back(static_cast<std::uint8_t>(0x70 + static_cast<std::uint8_t>(instr.cond)));
  } else {
    check(instr.mnemonic == Mnemonic::kJmp, ErrorKind::kEncode,
          "only jmp and jcc have a rel8 form");
    out.push_back(0xEB);
  }
  const std::int64_t rel = static_cast<std::int64_t>(branch_target(instr)) -
                           static_cast<std::int64_t>(address + kShortBranchLength);
  check(fits_int8(rel), ErrorKind::kEncode, "pc-relative target out of rel8 range");
  out.push_back(static_cast<std::uint8_t>(static_cast<std::int8_t>(rel)));
  return out;
}

}  // namespace r2r::isa
