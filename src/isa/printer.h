// r2r::isa — Intel-syntax instruction printer.
//
// Round-trips with the assembler parser: parse(print(instr)) == instr for
// every instruction in the subset (a property the test suite enforces).
#pragma once

#include <string>

#include "isa/instruction.h"

namespace r2r::isa {

/// Renders one instruction in Intel syntax, e.g.
/// "mov rax, qword ptr [rbx+4]", "jne 0x401020", "setg cl".
std::string print(const Instruction& instr);

}  // namespace r2r::isa
