// r2r::isa — machine-code encoder for the x86-64 subset.
//
// encode() produces genuine x86-64 bytes (REX / ModRM / SIB / disp / imm).
// The instruction must be fully resolved: branch targets and RIP-relative
// displacements are ImmOperand / MemOperand::disp holding *absolute*
// addresses; `address` is where the instruction will live so PC-relative
// fields can be computed.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/instruction.h"

namespace r2r::isa {

/// Encodes one instruction placed at `address`. Throws Error{kEncode} for
/// instructions outside the subset (e.g. 16-bit width, unresolved labels).
std::vector<std::uint8_t> encode(const Instruction& instr, std::uint64_t address);

}  // namespace r2r::isa
