// The RISC-V RV32I target.
//
// Encodings are standard RV32I formats (R/I/S/J/U, fixed 4-byte little-endian
// words). The abstract isa::Instruction is the pipeline IR, so this codec is a
// *container* format: each abstract instruction maps to one canonical RISC-V
// word (or, for wide immediates, a fused lui+addi pair), and execution
// semantics stay the per-mnemonic ones the emulator already implements.
//
// The flags model (cmp/test/setcc/jcc and mvflags/wrflags) has no RV32I
// equivalent, so those map onto the custom-0 (0x0B) and custom-1 (0x2B)
// opcode spaces reserved by the RISC-V spec for vendor extensions, and
// direct jmp/call use a "checked jal" in custom-2 (0x5B) instead of the
// standard jal word.
//
// Canonicalization: try_decode() accepts exactly the forms encode() emits
// (field constraints are checked; junk is reported as a DecodeStatus, which
// decode() throws as Error{kDecode}), so bit-flip fault campaigns behave
// like they do on x64 — a flip either yields a different valid instruction
// or an invalid-opcode crash. The custom words additionally
// carry an even-parity bit (see the encoding-parity section below): without
// it, the fixed-width aligned encoding lets a single flipped offset bit
// retarget a branch or call at another *valid* instruction — the one fault
// class x86-64's variable-length encoding deflects for free — and no local
// software pattern can protect the pattern code itself against that.
#include <array>
#include <bit>
#include <cstdint>

#include "isa/target.h"
#include "support/error.h"

namespace r2r::isa {

namespace {

using support::ErrorKind;
using support::fail;

// ---- register map ----------------------------------------------------------
// Abstract Reg index -> hardware x-register number. sp/fp land on their ABI
// homes; ra backs the abstract link register (Reg::r12); the rest use
// argument/temporary registers so nothing collides with x0.
constexpr std::array<std::uint8_t, kRegCount> kHwNumber = {
    10,  // rax -> a0
    11,  // rcx -> a1
    12,  // rdx -> a2
    13,  // rbx -> a3
    2,   // rsp -> sp
    8,   // rbp -> s0
    14,  // rsi -> a4
    15,  // rdi -> a5
    16,  // r8  -> a6
    17,  // r9  -> a7
    28,  // r10 -> t3
    29,  // r11 -> t4
    1,   // r12 -> ra   (link register)
    5,   // r13 -> t0
    6,   // r14 -> t1
    7,   // r15 -> t2
};

constexpr std::array<std::string_view, kRegCount> kNames32 = {
    "a0", "a1", "a2", "a3", "sp", "s0", "a4", "a5",
    "a6", "a7", "t3", "t4", "ra", "t0", "t1", "t2",
};

// Byte-width aliases: plain name + "b" ("a0b"). RV32I has no subregister
// files; the suffix only marks the abstract operation width.
constexpr std::array<std::string_view, kRegCount> kNames8 = {
    "a0b", "a1b", "a2b", "a3b", "spb", "s0b", "a4b", "a5b",
    "a6b", "a7b", "t3b", "t4b", "rab", "t0b", "t1b", "t2b",
};

constexpr std::array<std::int8_t, 32> make_inverse_map() {
  std::array<std::int8_t, 32> inverse{};
  for (auto& entry : inverse) entry = -1;
  for (unsigned i = 0; i < kRegCount; ++i) inverse[kHwNumber[i]] = static_cast<std::int8_t>(i);
  return inverse;
}
constexpr std::array<std::int8_t, 32> kAbstractFromHw = make_inverse_map();

unsigned hw(Reg reg) noexcept { return kHwNumber[reg_number(reg)]; }

// ---- opcodes / field packing -----------------------------------------------

constexpr std::uint32_t kOpLoad = 0x03;
constexpr std::uint32_t kOpCustom0 = 0x0B;  // cmp/test/setcc/mvflags/... extension
constexpr std::uint32_t kOpImm = 0x13;
constexpr std::uint32_t kOpStore = 0x23;
constexpr std::uint32_t kOpCustom1 = 0x2B;  // jcc extension
constexpr std::uint32_t kOpCustom2 = 0x5B;  // checked jal (direct jmp/call)
constexpr std::uint32_t kOp = 0x33;
constexpr std::uint32_t kOpLui = 0x37;
constexpr std::uint32_t kOpJalr = 0x67;
constexpr std::uint32_t kOpJal = 0x6F;
constexpr std::uint32_t kOpSystem = 0x73;

constexpr std::uint32_t kWordNop = 0x00000013;      // addi x0, x0, 0
constexpr std::uint32_t kWordEcall = 0x00000073;
constexpr std::uint32_t kWordEbreak = 0x00100073;
constexpr std::uint32_t kWordWfi = 0x10500073;
constexpr std::uint32_t kWordUd = 0x00000000;       // defined illegal in RISC-V

constexpr bool fits_simm12(std::int64_t value) noexcept {
  return value >= -2048 && value <= 2047;
}

std::uint32_t r_type(std::uint32_t opcode, std::uint32_t f3, std::uint32_t f7,
                     std::uint32_t rd, std::uint32_t rs1, std::uint32_t rs2) {
  return opcode | (rd << 7) | (f3 << 12) | (rs1 << 15) | (rs2 << 20) | (f7 << 25);
}

std::uint32_t i_type(std::uint32_t opcode, std::uint32_t f3, std::uint32_t rd,
                     std::uint32_t rs1, std::int32_t imm12) {
  return opcode | (rd << 7) | (f3 << 12) | (rs1 << 15) |
         (static_cast<std::uint32_t>(imm12) << 20);
}

std::uint32_t s_type(std::uint32_t opcode, std::uint32_t f3, std::uint32_t rs1,
                     std::uint32_t rs2, std::int32_t imm12) {
  const auto imm = static_cast<std::uint32_t>(imm12) & 0xFFF;
  return opcode | ((imm & 0x1F) << 7) | (f3 << 12) | (rs1 << 15) | (rs2 << 20) |
         ((imm >> 5) << 25);
}

std::uint32_t j_type(std::uint32_t opcode, std::uint32_t rd, std::int32_t offset) {
  const auto imm = static_cast<std::uint32_t>(offset);
  return opcode | (rd << 7) | (imm & 0xFF000) | (((imm >> 11) & 1) << 20) |
         (((imm >> 1) & 0x3FF) << 21) | (((imm >> 20) & 1) << 31);
}

// ---- encoding parity -------------------------------------------------------
// Every custom-space word (except the byte load, whose fields are full)
// reserves one bit so the encoded word always has even popcount. Fixed-width
// aligned encodings would otherwise let a single flipped bit turn one valid
// word into another — retargeting a branch or redirecting a compare to a
// register that happens to hold the passing value — which is exactly the
// fault class x86-64's variable-length byte stream deflects for free by
// desynchronizing. With parity, every single-bit corruption of a custom word
// decodes as invalid and traps instead of silently succeeding.
//
// Parity-bit positions (chosen where the layout has slack):
//   custom-1 jcc, custom-2 checked jal, custom-0 cmp/test   rd bit 4 (word bit 11)
//   custom-0 reg-move / setcc / mvflags / wrflags           word bit 31

std::uint32_t with_parity(std::uint32_t word, unsigned bit) {
  return std::popcount(word) % 2 != 0 ? word | (1u << bit) : word;
}

bool parity_ok(std::uint32_t word) noexcept { return std::popcount(word) % 2 == 0; }

// ---- field extraction ------------------------------------------------------

struct Fields {
  std::uint32_t opcode, rd, f3, rs1, rs2, f7;
};

Fields fields_of(std::uint32_t word) noexcept {
  return {word & 0x7F,         (word >> 7) & 0x1F, (word >> 12) & 0x7,
          (word >> 15) & 0x1F, (word >> 20) & 0x1F, word >> 25};
}

std::int32_t i_imm(std::uint32_t word) noexcept {
  return static_cast<std::int32_t>(word) >> 20;
}

std::int32_t s_imm(std::uint32_t word) noexcept {
  return ((static_cast<std::int32_t>(word) >> 20) & ~0x1F) |
         static_cast<std::int32_t>((word >> 7) & 0x1F);
}

std::int32_t j_imm(std::uint32_t word) noexcept {
  const std::uint32_t imm = (((word >> 31) & 1) << 20) | (word & 0xFF000) |
                            (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3FF) << 1);
  return static_cast<std::int32_t>(imm << 11) >> 11;  // sign-extend 21 bits
}

/// State of one word's decode. Checks run as plain statements in source
/// order and the first failure is the one reported: reg() records a field
/// naming a register outside the file and hands back a placeholder so the
/// statement can finish, and one() and bad() report that earlier failure
/// in place of their own result.
class WordDecoder {
 public:
  WordDecoder(std::uint32_t word, Decoded& out) noexcept : word_(word), out_(out) {}

  /// The abstract register behind hardware register field `hw_number`.
  Reg reg(std::uint32_t hw_number) noexcept {
    const std::int8_t abstract = kAbstractFromHw[hw_number & 0x1F];
    if (abstract >= 0) return static_cast<Reg>(abstract);
    if (status_.ok()) status_ = {DecodeStatus::Form::kRegister, "rv32i", hw_number};
    return Reg::rax;
  }

  /// Decoded as `instr` (`length` bytes), unless an earlier check failed.
  DecodeStatus one(Instruction instr, std::uint8_t length = 4) {
    if (status_.ok()) out_ = Decoded{std::move(instr), length};
    return status_;
  }

  /// Rejected because `why`, unless an earlier check failed.
  DecodeStatus bad(const char* why) noexcept {
    if (status_.ok()) status_ = {DecodeStatus::Form::kWord, why, word_};
    return status_;
  }

 private:
  std::uint32_t word_;
  Decoded& out_;
  DecodeStatus status_;
};

// ---- encode ----------------------------------------------------------------

void push_word(std::vector<std::uint8_t>& out, std::uint32_t word) {
  out.push_back(static_cast<std::uint8_t>(word));
  out.push_back(static_cast<std::uint8_t>(word >> 8));
  out.push_back(static_cast<std::uint8_t>(word >> 16));
  out.push_back(static_cast<std::uint8_t>(word >> 24));
}

[[noreturn]] void reject(const std::string& message) { fail(ErrorKind::kEncode, message); }

Reg as_reg(const Operand& op, const char* what) {
  if (!is_reg(op)) reject(std::string(what) + " must be a register on rv32i");
  return std::get<Reg>(op);
}

void check_width32(const Instruction& instr) {
  if (instr.width != Width::b32)
    reject("rv32i supports only 32-bit operations here (got " +
           std::to_string(width_bits(instr.width)) + "-bit)");
}

void check_width(const Instruction& instr) {
  if (instr.width != Width::b32 && instr.width != Width::b8)
    reject("rv32i supports only 8/32-bit operation widths");
}

/// Validates an rv32i-legal memory operand: [base + simm12], nothing else.
const MemOperand& legal_mem(const Operand& op) {
  const auto& mem = std::get<MemOperand>(op);
  if (mem.rip_relative) reject("rv32i has no pc-relative addressing");
  if (!mem.base) reject("rv32i memory operands need a base register");
  if (mem.index) reject("rv32i has no indexed addressing");
  if (!fits_simm12(mem.disp))
    reject("rv32i memory displacement out of simm12 range");
  return mem;
}

std::int32_t alu_imm(const ImmOperand& imm) {
  if (!fits_simm12(imm.value)) reject("rv32i ALU immediate out of simm12 range");
  return static_cast<std::int32_t>(imm.value);
}

/// lui+addi pair materializing `value` (any u32) into rd. Always 8 bytes so
/// symbol-address movs keep a placement-independent size (the movabs analog).
void encode_fused_mov(std::vector<std::uint8_t>& out, unsigned rd, std::uint32_t value) {
  const std::uint32_t hi20 = (value + 0x800) >> 12;
  const auto lo12 = static_cast<std::int32_t>(value - (hi20 << 12));
  push_word(out, (hi20 << 12) | (rd << 7) | kOpLui);
  push_word(out, i_type(kOpImm, 0, rd, rd, lo12));
}

void encode_mov(std::vector<std::uint8_t>& out, const Instruction& instr) {
  check_width(instr);
  const Operand& dst = instr.op(0);
  const Operand& src = instr.op(1);
  if (is_reg(dst) && is_reg(src)) {
    const unsigned rd = hw(std::get<Reg>(dst));
    const unsigned rs = hw(std::get<Reg>(src));
    if (instr.width == Width::b8) {
      push_word(out, with_parity(r_type(kOpCustom0, 4, 0, rd, 0, rs), 31));
      return;
    }
    if (rd == rs) reject("rv32i cannot encode mov rd, rd (drop it instead)");
    push_word(out, i_type(kOpImm, 0, rd, rs, 0));  // mv
    return;
  }
  if (is_reg(dst) && is_imm(src)) {
    check_width32(instr);  // no byte-width reg<-imm encoding exists
    const auto& imm = std::get<ImmOperand>(src);
    const unsigned rd = hw(std::get<Reg>(dst));
    if (imm.label.empty() && fits_simm12(imm.value)) {
      push_word(out, i_type(kOpImm, 0, rd, 0, static_cast<std::int32_t>(imm.value)));
      return;
    }
    // Wide or symbolic: fixed-size fused form. Values must be u32-clean;
    // negative wide constants are the lowering stage's job to mask.
    if (imm.value != static_cast<std::int64_t>(static_cast<std::uint32_t>(imm.value)) &&
        !fits_simm12(imm.value))
      reject("rv32i mov immediate does not fit in 32 bits");
    encode_fused_mov(out, rd, static_cast<std::uint32_t>(imm.value));
    return;
  }
  if (is_reg(dst) && is_mem(src)) {
    const auto& mem = legal_mem(src);
    const unsigned rd = hw(std::get<Reg>(dst));
    const unsigned base = hw(*mem.base);
    const auto disp = static_cast<std::int32_t>(mem.disp);
    if (instr.width == Width::b8) {
      // x86 byte loads merge into the low byte; lb/lbu extend, so the byte
      // load lives in custom-0 to keep the abstract semantics.
      push_word(out, i_type(kOpCustom0, 3, rd, base, disp));
    } else {
      push_word(out, i_type(kOpLoad, 2, rd, base, disp));  // lw
    }
    return;
  }
  if (is_mem(dst) && is_reg(src)) {
    const auto& mem = legal_mem(dst);
    const unsigned base = hw(*mem.base);
    const unsigned rs = hw(std::get<Reg>(src));
    const auto disp = static_cast<std::int32_t>(mem.disp);
    push_word(out, s_type(kOpStore, instr.width == Width::b8 ? 0u : 2u, base, rs, disp));
    return;
  }
  reject("rv32i cannot encode this mov form (no store-immediate)");
}

void encode_alu(std::vector<std::uint8_t>& out, const Instruction& instr) {
  check_width32(instr);
  const Reg dst = as_reg(instr.op(0), "ALU destination");
  const unsigned rd = hw(dst);
  const Operand& src = instr.op(1);

  struct AluSpec {
    std::uint32_t f3, f7;
    bool has_imm_form;
  };
  AluSpec spec{};
  switch (instr.mnemonic) {
    case Mnemonic::kAdd: spec = {0, 0x00, true}; break;
    case Mnemonic::kSub: spec = {0, 0x20, false}; break;  // no subi: use add -imm
    case Mnemonic::kXor: spec = {4, 0x00, true}; break;
    case Mnemonic::kOr: spec = {6, 0x00, true}; break;
    case Mnemonic::kAnd: spec = {7, 0x00, true}; break;
    default: reject("unsupported ALU mnemonic on rv32i");
  }
  if (is_reg(src)) {
    push_word(out, r_type(kOp, spec.f3, spec.f7, rd, rd, hw(std::get<Reg>(src))));
    return;
  }
  if (is_imm(src)) {
    if (!spec.has_imm_form) reject("rv32i has no subtract-immediate (add the negation)");
    const auto& imm = std::get<ImmOperand>(src);
    if (instr.mnemonic == Mnemonic::kXor && imm.value == -1)
      reject("rv32i spells xor -1 as not");
    push_word(out, i_type(kOpImm, spec.f3, rd, rd, alu_imm(imm)));
    return;
  }
  reject("rv32i ALU operations cannot take memory operands");
}

void encode_shift(std::vector<std::uint8_t>& out, const Instruction& instr) {
  check_width32(instr);
  const unsigned rd = hw(as_reg(instr.op(0), "shift destination"));
  std::uint32_t f3 = 0, f7 = 0;
  switch (instr.mnemonic) {
    case Mnemonic::kShl: f3 = 1; break;
    case Mnemonic::kShr: f3 = 5; break;
    case Mnemonic::kSar: f3 = 5; f7 = 0x20; break;
    default: break;
  }
  const Operand& count = instr.op(1);
  if (is_imm(count)) {
    const std::int64_t shamt = std::get<ImmOperand>(count).value;
    if (shamt < 0 || shamt > 31) reject("rv32i shift amount must be 0..31");
    // slli/srli/srai: R-type field layout under the OP-IMM opcode.
    push_word(out, r_type(kOpImm, f3, f7, rd, rd, static_cast<std::uint32_t>(shamt)));
    return;
  }
  if (is_reg(count)) {
    push_word(out, r_type(kOp, f3, f7, rd, rd, hw(std::get<Reg>(count))));
    return;
  }
  reject("rv32i shift count must be an immediate or register");
}

void encode_cmp_test(std::vector<std::uint8_t>& out, const Instruction& instr) {
  check_width(instr);
  // The width bit rides in rd bit 0 (rd is otherwise unused: compares only
  // write flags).
  const std::uint32_t width_bit = instr.width == Width::b8 ? 1 : 0;
  const Reg a = as_reg(instr.op(0), "compare operand");
  const Operand& b = instr.op(1);
  if (instr.mnemonic == Mnemonic::kTest) {
    const Reg rb = as_reg(b, "test operand");
    push_word(out, with_parity(r_type(kOpCustom0, 2, 0, width_bit, hw(a), hw(rb)), 11));
    return;
  }
  if (is_reg(b)) {
    push_word(out,
              with_parity(r_type(kOpCustom0, 0, 0, width_bit, hw(a), hw(std::get<Reg>(b))), 11));
    return;
  }
  if (is_imm(b)) {
    push_word(out, with_parity(
                       i_type(kOpCustom0, 1, width_bit, hw(a), alu_imm(std::get<ImmOperand>(b))),
                       11));
    return;
  }
  reject("rv32i compare cannot take a memory operand");
}

std::int32_t branch_offset(const Instruction& instr, std::uint64_t address,
                           std::size_t operand_index) {
  const Operand& target = instr.op(operand_index);
  if (is_label(target)) reject("unresolved label reaches the rv32i encoder");
  if (!is_imm(target)) reject("rv32i branch target must be an address");
  const auto& imm = std::get<ImmOperand>(target);
  const std::int64_t offset =
      imm.value - static_cast<std::int64_t>(address);
  if (offset < -(1LL << 20) || offset >= (1LL << 20) || (offset & 1) != 0)
    reject("rv32i branch offset out of jal range");
  return static_cast<std::int32_t>(offset);
}

}  // namespace

namespace {

class Rv32iTarget final : public Target {
 public:
  [[nodiscard]] Arch arch() const noexcept override { return Arch::kRv32i; }
  [[nodiscard]] std::string_view name() const noexcept override { return "rv32i"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "RISC-V RV32I + r2r flag extension (fixed 4-byte words, link-register calls)";
  }

  [[nodiscard]] std::size_t max_instruction_length() const noexcept override {
    return 8;  // fused lui+addi mov
  }

  [[nodiscard]] DecodeStatus try_decode(std::span<const std::uint8_t> bytes,
                                        std::uint64_t address,
                                        Decoded& out) const override;

  [[nodiscard]] std::vector<std::uint8_t> encode(const Instruction& instr,
                                                 std::uint64_t address) const override;

  [[nodiscard]] std::string_view reg_name(Reg reg, Width width) const noexcept override {
    if (width == Width::b8) return kNames8[reg_number(reg)];
    return kNames32[reg_number(reg)];
  }

  [[nodiscard]] std::optional<std::pair<Reg, Width>> parse_reg(
      std::string_view name) const noexcept override {
    for (unsigned i = 0; i < kRegCount; ++i) {
      if (name == kNames32[i]) return std::pair{static_cast<Reg>(i), Width::b32};
      if (name == kNames8[i]) return std::pair{static_cast<Reg>(i), Width::b8};
    }
    return std::nullopt;
  }

  [[nodiscard]] std::string_view pc_token() const noexcept override { return ""; }

  [[nodiscard]] Width natural_width() const noexcept override { return Width::b32; }

  [[nodiscard]] std::uint64_t stack_base() const noexcept override {
    return 0x7FF0'0000;  // below 2^32 so stack addresses fit the register file
  }

  [[nodiscard]] bool link_register_calls() const noexcept override { return true; }

  [[nodiscard]] const LowerCaps& lower_caps() const noexcept override {
    static const LowerCaps kCaps = [] {
      LowerCaps caps;
      caps.natural_width = Width::b32;
      caps.has_cmov = false;
      caps.store_immediate = false;
      caps.absolute_addressing = false;
      caps.sub_immediate = false;
      caps.has_mul = false;
      caps.min_alu_imm = -2048;
      caps.max_alu_imm = 2047;
      return caps;
    }();
    return kCaps;
  }

  [[nodiscard]] const PatternTraits& pattern_traits() const noexcept override {
    static const PatternTraits kTraits = [] {
      PatternTraits traits;
      traits.flag_save = PatternTraits::FlagSave::kRegister;
      traits.flag_scratch = Reg::r13;
      traits.value_scratch_a = Reg::r14;
      traits.value_scratch_b = Reg::r15;
      return traits;
    }();
    return kTraits;
  }
};

std::vector<std::uint8_t> Rv32iTarget::encode(const Instruction& instr,
                                              std::uint64_t address) const {
  std::vector<std::uint8_t> out;
  switch (instr.mnemonic) {
    case Mnemonic::kMov:
      encode_mov(out, instr);
      break;
    case Mnemonic::kMovzx:
    case Mnemonic::kMovsx: {
      check_width32(instr);
      const unsigned rd = hw(as_reg(instr.op(0), "extend destination"));
      const bool sign = instr.mnemonic == Mnemonic::kMovsx;
      const Operand& src = instr.op(1);
      if (is_reg(src)) {
        push_word(out, with_parity(
                           r_type(kOpCustom0, 4, sign ? 2u : 1u, rd, 0, hw(std::get<Reg>(src))),
                           31));
      } else if (is_mem(src)) {
        const auto& mem = legal_mem(src);
        push_word(out, i_type(kOpLoad, sign ? 0u : 4u, rd, hw(*mem.base),
                              static_cast<std::int32_t>(mem.disp)));  // lb / lbu
      } else {
        reject("rv32i movzx/movsx source must be a register or memory");
      }
      break;
    }
    case Mnemonic::kLea: {
      check_width32(instr);
      const unsigned rd = hw(as_reg(instr.op(0), "lea destination"));
      const auto& mem = legal_mem(instr.op(1));
      if (mem.disp == 0 || hw(*mem.base) == rd)
        reject("rv32i lea needs a nonzero displacement and distinct base (use mov/add)");
      push_word(out, i_type(kOpImm, 0, rd, hw(*mem.base),
                            static_cast<std::int32_t>(mem.disp)));
      break;
    }
    case Mnemonic::kAdd:
    case Mnemonic::kSub:
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
    case Mnemonic::kXor:
      encode_alu(out, instr);
      break;
    case Mnemonic::kCmp:
    case Mnemonic::kTest:
      encode_cmp_test(out, instr);
      break;
    case Mnemonic::kNot: {
      check_width32(instr);
      const unsigned rd = hw(as_reg(instr.op(0), "not operand"));
      push_word(out, i_type(kOpImm, 4, rd, rd, -1));  // xori rd, rd, -1
      break;
    }
    case Mnemonic::kNeg: {
      check_width32(instr);
      const unsigned rd = hw(as_reg(instr.op(0), "neg operand"));
      push_word(out, r_type(kOp, 0, 0x20, rd, 0, rd));  // sub rd, x0, rd
      break;
    }
    case Mnemonic::kShl:
    case Mnemonic::kShr:
    case Mnemonic::kSar:
      encode_shift(out, instr);
      break;
    // Direct jumps and calls use the checked-jal extension word (standard
    // jal layout under custom-2 plus the parity bit): a flipped offset bit
    // must not silently retarget a call at a different — valid — function.
    case Mnemonic::kJmp:
      push_word(out, with_parity(j_type(kOpCustom2, 0, branch_offset(instr, address, 0)), 11));
      break;
    case Mnemonic::kCall:
      push_word(out, with_parity(j_type(kOpCustom2, 1, branch_offset(instr, address, 0)), 11));
      break;
    case Mnemonic::kJcc: {
      if (instr.cond == Cond::none) reject("jcc needs a condition");
      const auto cc = static_cast<std::uint32_t>(instr.cond) & 0xF;
      push_word(out, with_parity(j_type(kOpCustom1, cc, branch_offset(instr, address, 0)), 11));
      break;
    }
    case Mnemonic::kJmpReg: {
      const Reg target = as_reg(instr.op(0), "indirect jump target");
      if (target == link_register())
        reject("rv32i indirect jump through the link register is ret");
      push_word(out, i_type(kOpJalr, 0, 0, hw(target), 0));
      break;
    }
    case Mnemonic::kCallReg:
      push_word(out, i_type(kOpJalr, 0, 1, hw(as_reg(instr.op(0), "indirect call target")), 0));
      break;
    case Mnemonic::kRet:
      push_word(out, i_type(kOpJalr, 0, 0, 1, 0));  // jalr x0, ra, 0
      break;
    case Mnemonic::kSetcc: {
      if (instr.cond == Cond::none) reject("setcc needs a condition");
      const unsigned rd = hw(as_reg(instr.op(0), "setcc destination"));
      push_word(out,
                with_parity(i_type(kOpCustom0, 5, rd, 0,
                                   static_cast<std::int32_t>(
                                       static_cast<std::uint8_t>(instr.cond) & 0xF)),
                            31));
      break;
    }
    case Mnemonic::kReadFlags: {
      check_width32(instr);
      push_word(out, with_parity(r_type(kOpCustom0, 6, 0,
                                        hw(as_reg(instr.op(0), "mvflags destination")), 0, 0),
                                 31));
      break;
    }
    case Mnemonic::kWriteFlags: {
      check_width32(instr);
      push_word(out, with_parity(r_type(kOpCustom0, 7, 0, 0,
                                        hw(as_reg(instr.op(0), "wrflags source")), 0),
                                 31));
      break;
    }
    case Mnemonic::kSyscall:
      push_word(out, kWordEcall);
      break;
    case Mnemonic::kNop:
      push_word(out, kWordNop);
      break;
    case Mnemonic::kHlt:
      push_word(out, kWordWfi);
      break;
    case Mnemonic::kInt3:
      push_word(out, kWordEbreak);
      break;
    case Mnemonic::kUd2:
      push_word(out, kWordUd);
      break;
    case Mnemonic::kInc:
    case Mnemonic::kDec:
      reject("rv32i has no inc/dec (use add)");
    case Mnemonic::kImul:
      reject("rv32i (no M extension) has no multiply");
    case Mnemonic::kPush:
    case Mnemonic::kPop:
    case Mnemonic::kPushfq:
    case Mnemonic::kPopfq:
      reject("rv32i has no push/pop (address the stack explicitly)");
    case Mnemonic::kCmovcc:
      reject("rv32i has no conditional move");
  }
  return out;
}

DecodeStatus Rv32iTarget::try_decode(std::span<const std::uint8_t> bytes,
                                     std::uint64_t address, Decoded& out) const {
  if (bytes.size() < 4) return {DecodeStatus::Form::kReason, "truncated rv32i instruction"};
  const auto word = static_cast<std::uint32_t>(bytes[0]) |
                    (static_cast<std::uint32_t>(bytes[1]) << 8) |
                    (static_cast<std::uint32_t>(bytes[2]) << 16) |
                    (static_cast<std::uint32_t>(bytes[3]) << 24);
  WordDecoder d(word, out);

  if (word == kWordUd) return d.one(make0(Mnemonic::kUd2));
  if (word == kWordNop) return d.one(nop());
  if (word == kWordEcall) return d.one(syscall_());
  if (word == kWordEbreak) return d.one(make0(Mnemonic::kInt3));
  if (word == kWordWfi) return d.one(hlt());

  const Fields f = fields_of(word);
  switch (f.opcode) {
    case kOpImm: {
      const std::int32_t imm12 = i_imm(word);
      if (f.f3 == 1 || f.f3 == 5) {  // slli / srli / srai
        const std::uint32_t shamt_f7 = f.f7;
        if (f.f3 == 1 && shamt_f7 != 0) return d.bad("bad slli funct7");
        if (f.f3 == 5 && shamt_f7 != 0 && shamt_f7 != 0x20) return d.bad("bad srli/srai funct7");
        const Reg rd = d.reg(f.rd);
        if (f.rs1 != f.rd) return d.bad("shift-immediate source must equal destination");
        const Mnemonic m = f.f3 == 1 ? Mnemonic::kShl
                                     : (shamt_f7 == 0x20 ? Mnemonic::kSar : Mnemonic::kShr);
        return d.one(make2(m, rd, imm(static_cast<std::int64_t>(f.rs2)), Width::b32));
      }
      if (f.f3 == 0) {  // addi: nop / li / add / mv / lea
        if (f.rd == 0) return d.bad("addi to x0 is not canonical");
        const Reg rd = d.reg(f.rd);
        if (f.rs1 == 0) return d.one(mov(rd, imm(imm12), Width::b32));
        const Reg rs1 = d.reg(f.rs1);
        if (f.rs1 == f.rd) return d.one(add(rd, imm(imm12), Width::b32));
        if (imm12 == 0) return d.one(mov(rd, rs1, Width::b32));
        return d.one(lea(rd, mem(rs1, imm12), Width::b32));
      }
      if (f.f3 == 4 || f.f3 == 6 || f.f3 == 7) {  // xori / ori / andi
        if (f.rd == 0 || f.rs1 != f.rd) return d.bad("ALU-immediate source must equal destination");
        const Reg rd = d.reg(f.rd);
        if (f.f3 == 4 && imm12 == -1) return d.one(make1(Mnemonic::kNot, rd, Width::b32));
        const Mnemonic m = f.f3 == 4 ? Mnemonic::kXor : (f.f3 == 6 ? Mnemonic::kOr : Mnemonic::kAnd);
        return d.one(make2(m, rd, imm(imm12), Width::b32));
      }
      return d.bad("unsupported OP-IMM funct3");
    }
    case kOp: {
      if (f.f7 != 0 && f.f7 != 0x20) return d.bad("bad OP funct7");
      if (f.f7 == 0x20 && f.f3 != 0 && f.f3 != 5) return d.bad("bad OP funct7/funct3 pair");
      const Reg rd = d.reg(f.rd);
      if (f.f3 == 0 && f.f7 == 0x20 && f.rs1 == 0) {  // neg
        if (f.rs2 != f.rd) return d.bad("neg operand fields disagree");
        return d.one(make1(Mnemonic::kNeg, rd, Width::b32));
      }
      if (f.rs1 != f.rd) return d.bad("two-operand ALU source must equal destination");
      const Reg rs2 = d.reg(f.rs2);
      Mnemonic m{};
      switch (f.f3) {
        case 0: m = f.f7 == 0x20 ? Mnemonic::kSub : Mnemonic::kAdd; break;
        case 1: m = Mnemonic::kShl; break;
        case 4: m = Mnemonic::kXor; break;
        case 5: m = f.f7 == 0x20 ? Mnemonic::kSar : Mnemonic::kShr; break;
        case 6: m = Mnemonic::kOr; break;
        case 7: m = Mnemonic::kAnd; break;
        default: return d.bad("unsupported OP funct3");
      }
      return d.one(make2(m, rd, rs2, Width::b32));
    }
    case kOpLui: {
      // Only the canonical fused mov uses lui; require the addi half.
      if (bytes.size() < 8) return {DecodeStatus::Form::kReason, "truncated fused rv32i mov"};
      const auto word2 = static_cast<std::uint32_t>(bytes[4]) |
                         (static_cast<std::uint32_t>(bytes[5]) << 8) |
                         (static_cast<std::uint32_t>(bytes[6]) << 16) |
                         (static_cast<std::uint32_t>(bytes[7]) << 24);
      const Fields f2 = fields_of(word2);
      if (f2.opcode != kOpImm || f2.f3 != 0 || f2.rd != f.rd || f2.rs1 != f.rd)
        return d.bad("lui without matching addi half");
      const Reg rd = d.reg(f.rd);
      const std::uint32_t value =
          (word & 0xFFFF'F000) + static_cast<std::uint32_t>(i_imm(word2));
      return d.one(mov(rd, imm(static_cast<std::int64_t>(value)), Width::b32), 8);
    }
    case kOpLoad: {
      const Reg rd = d.reg(f.rd);
      const Reg base = d.reg(f.rs1);
      const Operand src = mem(base, i_imm(word));
      switch (f.f3) {
        case 0: return d.one(make2(Mnemonic::kMovsx, rd, src, Width::b32));  // lb
        case 2: return d.one(mov(rd, src, Width::b32));                      // lw
        case 4: return d.one(movzx(rd, src, Width::b32));                    // lbu
        default: return d.bad("unsupported load width");
      }
    }
    case kOpStore: {
      const Reg base = d.reg(f.rs1);
      const Reg value = d.reg(f.rs2);
      const Operand dst = mem(base, s_imm(word));
      if (f.f3 == 0) return d.one(mov(dst, value, Width::b8));   // sb
      if (f.f3 == 2) return d.one(mov(dst, value, Width::b32));  // sw
      return d.bad("unsupported store width");
    }
    case kOpJal:
      // Never emitted: direct jmp/call are the parity-checked custom-2 words,
      // and accepting plain jal would reopen the retargeted-branch fault hole.
      return d.bad("rv32i direct jumps use the checked-jal extension word");
    case kOpCustom2: {  // checked jal (direct jmp/call)
      if (!parity_ok(word)) return d.bad("checked-jal parity check failed");
      if ((f.rd & 0xE) != 0) return d.bad("bad checked-jal link field");
      const std::int64_t target = static_cast<std::int64_t>(address) + j_imm(word);
      return d.one(make1((f.rd & 1) != 0 ? Mnemonic::kCall : Mnemonic::kJmp, imm(target),
                       Width::b32));
    }
    case kOpJalr: {
      if (f.f3 != 0 || i_imm(word) != 0) return d.bad("non-canonical jalr");
      if (f.rd == 0 && f.rs1 == 1) return d.one(ret());
      if (f.rd == 0)
        return d.one(make1(Mnemonic::kJmpReg, d.reg(f.rs1), Width::b32));
      if (f.rd == 1)
        return d.one(make1(Mnemonic::kCallReg, d.reg(f.rs1), Width::b32));
      return d.bad("jalr may only link through ra");
    }
    case kOpCustom1: {  // jcc
      // rd bit 4 carries encoding parity (see the encoder): a word with odd
      // popcount is a corrupted fetch, never a retargeted branch.
      if (!parity_ok(word)) return d.bad("jcc parity check failed");
      Instruction instr = make1(Mnemonic::kJcc,
                                imm(static_cast<std::int64_t>(address) + j_imm(word)),
                                Width::b32);
      instr.cond = static_cast<Cond>(f.rd & 0xF);
      return d.one(std::move(instr));
    }
    case kOpCustom0: {
      const Width width = (f.rd & 1) != 0 ? Width::b8 : Width::b32;
      // Every form but the byte load (whose rd/rs1/imm fields are all live)
      // carries the encoding parity bit.
      if (f.f3 != 3 && !parity_ok(word)) return d.bad("custom-0 parity check failed");
      switch (f.f3) {
        case 0: {  // cmp reg, reg
          if ((f.rd & 0xE) != 0 || f.f7 != 0) return d.bad("bad cmp fields");
          const Reg a = d.reg(f.rs1);
          const Reg b = d.reg(f.rs2);
          return d.one(cmp(a, b, width));
        }
        case 1:  // cmp reg, imm
          if ((f.rd & 0xE) != 0) return d.bad("bad cmp-immediate fields");
          return d.one(cmp(d.reg(f.rs1), imm(i_imm(word)), width));
        case 2: {  // test reg, reg
          if ((f.rd & 0xE) != 0 || f.f7 != 0) return d.bad("bad test fields");
          const Reg a = d.reg(f.rs1);
          const Reg b = d.reg(f.rs2);
          return d.one(test(a, b, width));
        }
        case 3: {  // byte load with x86 merge semantics
          const Reg rd = d.reg(f.rd);
          const Reg base = d.reg(f.rs1);
          return d.one(mov(rd, mem(base, i_imm(word)), Width::b8));
        }
        case 4: {  // reg-reg byte mov / movzx / movsx (parity in f7 bit 6)
          if (f.rs1 != 0) return d.bad("bad register-move fields");
          const Reg rd = d.reg(f.rd);
          const Reg rs2 = d.reg(f.rs2);
          const std::uint32_t form = f.f7 & 0x3F;
          if (form == 0) return d.one(mov(rd, rs2, Width::b8));
          if (form == 1) return d.one(movzx(rd, rs2, Width::b32));
          if (form == 2) return d.one(make2(Mnemonic::kMovsx, rd, rs2, Width::b32));
          return d.bad("bad register-move funct7");
        }
        case 5: {  // setcc (parity in imm bit 11)
          const std::uint32_t cc = (word >> 20) & 0x7FF;
          if (f.rs1 != 0 || cc > 0xF) return d.bad("bad setcc fields");
          return d.one(setcc(static_cast<Cond>(cc), d.reg(f.rd)));
        }
        case 6: {  // mvflags (parity in f7 bit 6)
          if (f.rs1 != 0 || f.rs2 != 0 || (f.f7 & 0x3F) != 0) return d.bad("bad mvflags fields");
          return d.one(read_flags(d.reg(f.rd), Width::b32));
        }
        case 7: {  // wrflags (parity in f7 bit 6)
          if (f.rd != 0 || f.rs2 != 0 || (f.f7 & 0x3F) != 0) return d.bad("bad wrflags fields");
          return d.one(write_flags(d.reg(f.rs1), Width::b32));
        }
        default: return d.bad("unsupported custom-0 funct3");
      }
    }
    default:
      return d.bad("unsupported rv32i opcode");
  }
}

}  // namespace

namespace detail {

const Target& rv32i_target() noexcept {
  static const Rv32iTarget kTarget;
  return kTarget;
}

}  // namespace detail

}  // namespace r2r::isa
