// r2r::isa — the instruction model of the x86-64 subset.
//
// An Instruction is a value type: mnemonic + condition + width + operands.
// Operands may carry unresolved symbolic labels (MemOperand::label,
// ImmOperand::label, LabelOperand); the reassembler resolves them to
// concrete displacements/addresses before encoding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "isa/condition.h"
#include "isa/registers.h"

namespace r2r::isa {

enum class Mnemonic : std::uint8_t {
  kMov,
  kMovzx,  ///< zero-extend 8-bit source into wider destination
  kMovsx,  ///< sign-extend 8-bit source into wider destination
  kLea,
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kCmp,
  kTest,
  kNot,
  kNeg,
  kInc,
  kDec,
  kImul,  ///< two-operand form only
  kShl,
  kShr,
  kSar,
  kPush,
  kPop,
  kPushfq,
  kPopfq,
  kJmp,
  kJcc,    ///< condition in Instruction::cond
  kCall,
  kJmpReg,   ///< indirect jump through r/m64
  kCallReg,  ///< indirect call through r/m64
  kRet,
  kSetcc,
  kCmovcc,
  kSyscall,
  kNop,
  kHlt,
  kInt3,
  kUd2,
  kReadFlags,   ///< copy the packed flags word into a register ("mvflags")
  kWriteFlags,  ///< restore the packed flags word from a register ("wrflags")
};

/// Mnemonic spelling without condition suffix ("mov", "j", "set", ...).
std::string_view mnemonic_name(Mnemonic mnemonic) noexcept;

/// Memory operand: [base + index*scale + disp] or [rip + disp]/[rip + label].
struct MemOperand {
  std::optional<Reg> base;
  std::optional<Reg> index;
  std::uint8_t scale = 1;  ///< 1, 2, 4 or 8
  std::int64_t disp = 0;
  bool rip_relative = false;
  std::string label;  ///< if non-empty, disp is filled from this symbol

  friend bool operator==(const MemOperand&, const MemOperand&) = default;
};

/// Immediate operand; when `label` is non-empty the value is the address of
/// that symbol (resolved at assembly time).
struct ImmOperand {
  std::int64_t value = 0;
  std::string label;

  friend bool operator==(const ImmOperand&, const ImmOperand&) = default;
};

/// Branch/call target before resolution. After resolution branch targets
/// become ImmOperand holding the absolute destination address.
struct LabelOperand {
  std::string name;

  friend bool operator==(const LabelOperand&, const LabelOperand&) = default;
};

using Operand = std::variant<Reg, ImmOperand, MemOperand, LabelOperand>;

inline bool is_reg(const Operand& op) noexcept { return std::holds_alternative<Reg>(op); }
inline bool is_imm(const Operand& op) noexcept { return std::holds_alternative<ImmOperand>(op); }
inline bool is_mem(const Operand& op) noexcept { return std::holds_alternative<MemOperand>(op); }
inline bool is_label(const Operand& op) noexcept {
  return std::holds_alternative<LabelOperand>(op);
}

struct Instruction {
  Mnemonic mnemonic = Mnemonic::kNop;
  Cond cond = Cond::none;
  Width width = Width::b64;
  std::vector<Operand> operands;

  [[nodiscard]] const Operand& op(std::size_t i) const { return operands.at(i); }
  [[nodiscard]] std::size_t arity() const noexcept { return operands.size(); }

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

// ---- Factory helpers -------------------------------------------------------
// These keep protection patterns and tests close to the paper's assembly.

inline Operand imm(std::int64_t value) { return ImmOperand{value, {}}; }
inline Operand mem(Reg base, std::int64_t disp = 0) {
  return MemOperand{base, std::nullopt, 1, disp, false, {}};
}
inline Operand mem_index(Reg base, Reg index, std::uint8_t scale, std::int64_t disp = 0) {
  return MemOperand{base, index, scale, disp, false, {}};
}
inline Operand mem_abs(std::int64_t address) {
  return MemOperand{std::nullopt, std::nullopt, 1, address, false, {}};
}

/// Overwrites `instr` with mnemonic `m`, no condition, width `w` and the
/// operands `ops`. The operand list is cleared and refilled, so once it
/// has room for them this allocates nothing: the decoders fill a caller's
/// Decoded this way.
template <typename... Ops>
void refill(Instruction& instr, Mnemonic m, Width w, Ops&&... ops) {
  instr.mnemonic = m;
  instr.cond = Cond::none;
  instr.width = w;
  instr.operands.clear();
  instr.operands.reserve(sizeof...(Ops));
  (instr.operands.emplace_back(std::forward<Ops>(ops)), ...);
}

Instruction make0(Mnemonic m);
Instruction make1(Mnemonic m, Operand a, Width w = Width::b64);
Instruction make2(Mnemonic m, Operand a, Operand b, Width w = Width::b64);

inline Instruction mov(Operand dst, Operand src, Width w = Width::b64) {
  return make2(Mnemonic::kMov, std::move(dst), std::move(src), w);
}
inline Instruction movzx(Operand dst, Operand src, Width w = Width::b64) {
  return make2(Mnemonic::kMovzx, std::move(dst), std::move(src), w);
}
inline Instruction lea(Reg dst, Operand src, Width w = Width::b64) {
  return make2(Mnemonic::kLea, dst, std::move(src), w);
}
inline Instruction add(Operand dst, Operand src, Width w = Width::b64) {
  return make2(Mnemonic::kAdd, std::move(dst), std::move(src), w);
}
inline Instruction sub(Operand dst, Operand src, Width w = Width::b64) {
  return make2(Mnemonic::kSub, std::move(dst), std::move(src), w);
}
inline Instruction and_(Operand dst, Operand src, Width w = Width::b64) {
  return make2(Mnemonic::kAnd, std::move(dst), std::move(src), w);
}
inline Instruction or_(Operand dst, Operand src, Width w = Width::b64) {
  return make2(Mnemonic::kOr, std::move(dst), std::move(src), w);
}
inline Instruction xor_(Operand dst, Operand src, Width w = Width::b64) {
  return make2(Mnemonic::kXor, std::move(dst), std::move(src), w);
}
inline Instruction cmp(Operand a, Operand b, Width w = Width::b64) {
  return make2(Mnemonic::kCmp, std::move(a), std::move(b), w);
}
inline Instruction test(Operand a, Operand b, Width w = Width::b64) {
  return make2(Mnemonic::kTest, std::move(a), std::move(b), w);
}
inline Instruction push(Operand v) { return make1(Mnemonic::kPush, std::move(v)); }
inline Instruction pop(Reg r) { return make1(Mnemonic::kPop, r); }
inline Instruction pushfq() { return make0(Mnemonic::kPushfq); }
inline Instruction popfq() { return make0(Mnemonic::kPopfq); }
inline Instruction jmp(std::string label) {
  return make1(Mnemonic::kJmp, LabelOperand{std::move(label)});
}
inline Instruction jcc(Cond cond, std::string label) {
  Instruction instr = make1(Mnemonic::kJcc, LabelOperand{std::move(label)});
  instr.cond = cond;
  return instr;
}
inline Instruction call(std::string label) {
  return make1(Mnemonic::kCall, LabelOperand{std::move(label)});
}
inline Instruction ret() { return make0(Mnemonic::kRet); }
inline Instruction setcc(Cond cond, Reg dst8) {
  Instruction instr = make1(Mnemonic::kSetcc, dst8, Width::b8);
  instr.cond = cond;
  return instr;
}
inline Instruction syscall_() { return make0(Mnemonic::kSyscall); }
inline Instruction nop() { return make0(Mnemonic::kNop); }
inline Instruction hlt() { return make0(Mnemonic::kHlt); }
inline Instruction read_flags(Reg dst, Width w) {
  return make1(Mnemonic::kReadFlags, dst, w);
}
inline Instruction write_flags(Reg src, Width w) {
  return make1(Mnemonic::kWriteFlags, src, w);
}

}  // namespace r2r::isa
