// Baseline: full instruction duplication with result comparison.
//
// Section V-C argues the "go-to" protection — duplicating every instruction
// and comparing the two results — costs at least 300% in code size. This
// pass implements that baseline so the claim can be measured: every
// side-effect-free computational instruction is re-executed and the two
// results are compared; a mismatch reaches the fault response.
//
// Control flow: the comparison result feeds a conditional branch to a trap
// block; the block is split at each checked instruction.
#include <map>

#include "ir/builder.h"
#include "passes/pass.h"

namespace r2r::passes {

namespace {

using ir::BasicBlock;
using ir::Builder;
using ir::Instr;
using ir::Opcode;
using ir::Type;
using ir::Value;

bool is_duplicable(const Instr& instr) {
  switch (instr.opcode()) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kLShr:
    case Opcode::kAShr:
    case Opcode::kICmp:
    case Opcode::kZExt:
    case Opcode::kSExt:
    case Opcode::kTrunc:
    case Opcode::kSelect:
    case Opcode::kLoad:  // loads re-read memory between two stores: safe
      return true;
    default:
      return false;
  }
}

class InstructionDuplicationPass final : public Pass {
 public:
  bool run(ir::Module& module) override {
    bool changed = false;
    // duplicate_function adds the trap intrinsic to module.functions;
    // iterate by index over the original count so reallocation cannot
    // invalidate the cursor.
    const std::size_t original_count = module.functions.size();
    for (std::size_t i = 0; i < original_count; ++i) {
      if (module.functions[i]->is_intrinsic()) continue;
      changed |= duplicate_function(module, *module.functions[i]);
    }
    return changed;
  }

 private:
  static bool duplicate_function(ir::Module& module, ir::Function& fn) {
    ir::Function* trap = module.get_intrinsic(ir::kTrapIntrinsic, Type::kVoid, 0);
    Builder builder(module);
    bool changed = false;

    // Snapshot blocks; splitting appends new ones.
    std::vector<BasicBlock*> blocks;
    for (auto& block : fn.blocks) blocks.push_back(block.get());

    unsigned serial = 0;
    for (BasicBlock* block : blocks) {
      // Repeatedly find the first unprocessed duplicable instruction,
      // split after it, and insert the check in between.
      std::map<const Instr*, bool> processed;
      bool again = true;
      while (again) {
        again = false;
        for (std::size_t i = 0; i < block->instrs.size(); ++i) {
          Instr* instr = block->instrs[i].get();
          if (!is_duplicable(*instr) || processed[instr]) continue;
          processed[instr] = true;

          // Move the tail [i+1, end) into a continuation block.
          const std::string tag = std::to_string(serial++);
          BasicBlock* cont = fn.add_block(block->name() + ".dup" + tag);
          for (std::size_t k = i + 1; k < block->instrs.size(); ++k) {
            cont->instrs.push_back(std::move(block->instrs[k]));
          }
          block->instrs.resize(i + 1);

          BasicBlock* flt = fn.add_block(block->name() + ".dupflt" + tag);

          builder.set_insert_point(block);
          Instr* duplicate = builder.binary_clone(instr);
          Value* same = builder.icmp(ir::Pred::kEq, instr, duplicate);
          builder.cond_br(same, cont, flt);

          builder.set_insert_point(flt);
          builder.call(trap);
          builder.unreachable();

          // Continue scanning in the continuation block.
          block = cont;
          again = true;
          changed = true;
          break;
        }
      }
    }
    return changed;
  }
};

}  // namespace

std::unique_ptr<Pass> make_instruction_duplication() {
  return std::make_unique<InstructionDuplicationPass>();
}

}  // namespace r2r::passes
