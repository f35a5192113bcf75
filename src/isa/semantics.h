// r2r::isa — static classification of instructions.
//
// Used by structural recovery (block boundaries), the patcher (pattern
// selection), and the lifter (flag materialization).
#pragma once

#include "isa/instruction.h"

namespace r2r::isa {

/// Ends a basic block with no fall-through: jmp, indirect jmp, ret, hlt,
/// ud2, int3.
bool is_terminator(const Instruction& instr) noexcept;

/// Any control transfer: branches, calls, ret.
bool is_control_flow(const Instruction& instr) noexcept;

/// Conditional branch (kJcc).
bool is_cond_branch(const Instruction& instr) noexcept;

/// Instruction writes (some) arithmetic flags.
bool writes_flags(const Instruction& instr) noexcept;

/// Instruction observes arithmetic flags (jcc/setcc/cmovcc/pushfq).
bool reads_flags(const Instruction& instr) noexcept;

}  // namespace r2r::isa
