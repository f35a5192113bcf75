// r2r::isa — what one instruction does to machine state.
//
// effects() is the one per-mnemonic table of register, flag and control
// effects. It states facts, exactly as emu::Machine executes each
// instruction, implicit operands included. Policy (a callee may write rax,
// flags are dead across a call) stays with the caller that assumes it.
#pragma once

#include <cstdint>

#include "isa/instruction.h"

namespace r2r::isa {

class Target;

/// Registers as a bit set: bit reg_number(r) stands for r.
using RegSet = std::uint16_t;
static_assert(kRegCount <= 16, "RegSet holds one bit per register");

constexpr RegSet reg_bit(Reg reg) noexcept { return static_cast<RegSet>(1U << reg_number(reg)); }

/// The arithmetic flags as a bit set, numbered as the flag-flip fault
/// numbers them: CF, PF, AF, ZF, SF, OF.
using FlagSet = std::uint8_t;
inline constexpr FlagSet kCF = 1U << 0;
inline constexpr FlagSet kPF = 1U << 1;
inline constexpr FlagSet kAF = 1U << 2;
inline constexpr FlagSet kZF = 1U << 3;
inline constexpr FlagSet kSF = 1U << 4;
inline constexpr FlagSet kOF = 1U << 5;
inline constexpr FlagSet kAllFlags = kCF | kPF | kAF | kZF | kSF | kOF;

/// How control leaves an instruction.
enum class Flow : std::uint8_t {
  kNext,          ///< to the next one (syscall too: exit(2) ends the run, not the flow)
  kJump,          ///< jmp to its operand
  kBranch,        ///< jcc: to its operand or the next instruction
  kCall,          ///< call to its operand
  kIndirectJump,  ///< jmp through a register or memory
  kIndirectCall,  ///< call through a register or memory
  kReturn,        ///< ret
  kTrap,          ///< hlt, ud2, int3: the run ends
};

/// True when control may go on at the next instruction.
constexpr bool falls_through(Flow flow) noexcept {
  return flow == Flow::kNext || flow == Flow::kBranch || flow == Flow::kCall ||
         flow == Flow::kIndirectCall;
}

struct Effects {
  RegSet reads = 0;   ///< registers whose value may reach what the instruction writes
  RegSet writes = 0;  ///< registers it may change
  /// Flags whose value may reach what it writes (a jcc, setcc or cmov
  /// reads its condition's), and flags it may change. A flag it passes
  /// through is neither: inc and dec write all but CF. A shift whose count
  /// may mask to 0 passes every flag through then, so it reads them all.
  FlagSet reads_flags = 0;
  FlagSet writes_flags = 0;
  Flow flow = Flow::kNext;

  [[nodiscard]] bool reads_reg(Reg reg) const noexcept { return (reads & reg_bit(reg)) != 0; }
  [[nodiscard]] bool writes_reg(Reg reg) const noexcept { return (writes & reg_bit(reg)) != 0; }
};

/// The effects of `instr` on `target`. Memory operands read their base
/// and index (rip-relative ones read none); an 8- or 16-bit write also
/// reads the register it merges into; `xor r, r` reads nothing. push, pop,
/// pushfq and popfq use rsp; call and ret use rsp or the link register;
/// syscall reads rax, rdi, rsi, rdx and the flags, and writes rax, rcx, r11.
Effects effects(const Instruction& instr, const Target& target) noexcept;

}  // namespace r2r::isa
