// r2r::ir — structural and type verification.
#pragma once

#include "ir/ir.h"

namespace r2r::ir {

/// Verifies the module; throws Error{kIr} describing the first violation.
/// Checks: every block has exactly one terminator (at the end); operand
/// and result types match per opcode; branch targets belong to the same
/// function; switch case counts are consistent; calls match the callee
/// signature; instruction operands are defined within the same function
/// before use (straight-line dominance per block, definition-anywhere for
/// cross-block uses — full dominance is out of scope and documented).
/// Renumbers every function: the numbers are a mutable cache (see
/// Function::renumber), so this writes them through the const Module,
/// which no other thread may use meanwhile.
void verify(const Module& module);

}  // namespace r2r::ir
