// r2r::bir — layout + encoding: Module -> ELF image.
#pragma once

#include "bir/module.h"
#include "elf/image.h"

namespace r2r::bir {

/// Lays out .text at module.text_base, resolves every symbolic operand,
/// encodes, and produces a runnable ELF image. Assigned addresses are
/// written back into the module (CodeItem::address, DataBlock::address) so
/// later passes can map machine addresses to items.
///
/// Without Module::relax_branches, layout is single-pass-stable by
/// construction: every label-dependent encoding has a fixed size (branches
/// are always rel32, symbol immediates are always movabs imm64, data-symbol
/// displacements resolve before text sizing because data bases are fixed).
/// So each instruction is encoded once, in layout order, and only those
/// naming a text label defined later are encoded again, over their
/// placeholder bytes, once every label is.
///
/// With it, on a target with a short branch form (x86-64: EB / 70+cc
/// rel8), every jmp/jcc to a label starts short and grows to full width
/// only when its displacement does not fit; the layout is iterated to a
/// fix-point in which branches only grow. Each instruction is still
/// encoded once while sizing; the branches and the instructions whose
/// bytes move with the layout are encoded again at their final address.
/// rv32i has no short form, so its modules lay out as without the flag.
elf::Image assemble(Module& module);

}  // namespace r2r::bir
