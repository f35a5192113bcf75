// r2r::lower — IR -> subset-ISA code generation (the llc-equivalent step of
// the Hybrid approach, Section IV-C.3).
//
// Code generation model:
//  * every value-producing IR instruction owns an 8-byte frame slot;
//    definitions are stored through to their slot (the slot is always
//    current), and a per-block register cache avoids reloads;
//  * calls and syscalls invalidate the cache (caller-saved world);
//  * module globals live in a dedicated ".r2rstate" data section at a
//    fixed base, so state accesses lower to absolute addressing;
//  * guest data sections are re-emitted verbatim at their original bases,
//    preserving every concrete address the lifted code computes;
//  * every block-ending jmp is followed by a ud2 guard, except that a block
//    ending in `jmp L; ud2` where L is the next block falls through (a
//    skipped jmp lands in L anyway; no branch is ever inverted). A block
//    this empties passes its label on to the next block;
//  * on a 32-bit target an `and` whose constant has all low 32 bits set is
//    a register alias (the register holds the low word only);
//  * sext i32 -> i64 is the identity on a 32-bit target and shl 32; sar 32
//    on x64 (the subset has no movsxd);
//  * a constant or address in [0, 2^32) loads as mov r32, imm32 on x64,
//    which zero-extends (5 bytes against 7 for mov r64, imm32 and 10 for
//    movabs); other values keep the 64-bit forms;
//  * the lowered module asks for branch relaxation
//    (bir::Module::relax_branches): on x64, bir::assemble gives each
//    jmp/jcc rel8 where it reaches.
//
// Lowered intrinsics:
//   r2r.syscall(n, a0, a1, a2) -> mov rax/rdi/rsi/rdx + syscall; when n is
//                                 the constant 60 (exit), mov rax/rdi only
//   r2r.trap()                 -> exit(42)  (the fault response)
#pragma once

#include "bir/module.h"
#include "elf/image.h"
#include "ir/ir.h"

namespace r2r::lower {

struct LowerOptions {
  isa::Arch arch = isa::Arch::kX64;  ///< code-generation target
};

/// Lowers `module` into a relocatable binary module; `guest_data` sections
/// are appended unchanged. Global addresses are assigned as a side effect
/// (GlobalVariable::address).
bir::Module lower(const ir::Module& module, const std::vector<bir::DataSection>& guest_data,
                  const LowerOptions& options = {});

/// lower() + assemble() in one step.
elf::Image lower_to_image(const ir::Module& module,
                          const std::vector<bir::DataSection>& guest_data,
                          const LowerOptions& options = {});

}  // namespace r2r::lower
