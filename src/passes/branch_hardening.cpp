// The paper's conditional branch hardening (Section V-B).
//
// For every `br i1 %c, %T, %F` in block B with compile-time block UIDs:
//
//   constT = UID_T ^ UID_B            (Algorithm 1 line 1)
//   constF = UID_F ^ UID_B            (line 2)
//   ext    = zext %c to i64           (line 3)
//   mask   = ext - 1                  (line 4: all-ones iff %c is false)
//   D      = (~mask & constT) | (mask & constF)   (line 5)
//
// The checksum is evaluated twice (D1, D2 — Fig. 5), the branch condition
// is re-computed from a clone of its defining slice (C2), and each
// destination edge gets two nested validation blocks:
//
//   B:    ... D1, D2, C2; br C2, T1, F1
//   T1:   switch D1, flt [constT -> T2]
//   T2:   switch D2, flt [constT -> T]
//   F1:   switch D1, flt [constF -> F2]
//   F2:   switch D2, flt [constF -> F]
//   flt:  call @r2r.trap; unreachable
//
// An attacker must corrupt both comparison evaluations identically to slip
// through, exactly as the paper argues.
#include <map>

#include "ir/builder.h"
#include "passes/pass.h"
#include "support/error.h"

namespace r2r::passes {

namespace {

using ir::BasicBlock;
using ir::Builder;
using ir::Instr;
using ir::Opcode;
using ir::Type;
using ir::Value;

/// Compile-time UID per block: scrambled but kept below 2^31 so edge
/// checksums always fit a sign-extended imm32 when lowered.
std::uint64_t block_uid(std::size_t index) {
  return ((index + 1) * 2654435761ULL) & 0x7FFFFFFFULL;
}

class BranchHardeningPass final : public Pass {
 public:
  bool run(ir::Module& module) override {
    bool changed = false;
    // harden_function can add intrinsics to module.functions; iterate by
    // index over the original count so reallocation cannot invalidate the
    // cursor (intrinsics appended mid-loop never need hardening).
    const std::size_t original_count = module.functions.size();
    for (std::size_t i = 0; i < original_count; ++i) {
      if (module.functions[i]->is_intrinsic()) continue;
      changed |= harden_function(module, *module.functions[i]);
    }
    return changed;
  }

 private:
  /// True if re-executing `load_instr` at the end of `block` would observe
  /// different memory: any later store to the same global, any later store
  /// through a computed address, or any later call makes the re-load
  /// unsafe. (The classic hazard is a loop counter: `%c = load @g_rcx;
  /// %d = sub %c, 1; store %d, @g_rcx` — re-loading @g_rcx after the store
  /// would re-execute the decrement on the already-decremented value.)
  static bool reload_is_safe(const BasicBlock* block, const Instr* load_instr) {
    bool seen = false;
    for (const auto& instr : block->instrs) {
      if (instr.get() == load_instr) {
        seen = true;
        continue;
      }
      if (!seen) continue;
      if (instr->opcode() == Opcode::kCall) return false;
      if (instr->opcode() == Opcode::kStore) {
        const Value* address = instr->operands[1];
        if (address->kind() != Value::Kind::kGlobal) return false;  // unknown alias
        if (address == load_instr->operands[0]) return false;       // same slot
      }
    }
    return true;
  }

  /// Clones the condition's defining slice (instructions inside `block`)
  /// so the comparison is genuinely re-executed at run time. Loads are
  /// re-issued only when the location provably still holds the same value
  /// (see reload_is_safe); otherwise the originally loaded value is reused
  /// — the paper's requirement is re-executing the *comparison*, not the
  /// memory traffic feeding it. Calls are never cloned.
  static Value* clone_slice(Builder& builder, BasicBlock* block, Value* value,
                            std::map<Value*, Value*>& cloned, unsigned depth) {
    if (depth > 32 || value->kind() != Value::Kind::kInstr) return value;
    auto* instr = static_cast<Instr*>(value);
    if (instr->opcode() == Opcode::kCall) return value;
    bool in_block = false;
    for (const auto& candidate : block->instrs) {
      if (candidate.get() == instr) {
        in_block = true;
        break;
      }
    }
    if (!in_block) return value;
    if (instr->opcode() == Opcode::kLoad && !reload_is_safe(block, instr)) return value;
    if (const auto it = cloned.find(value); it != cloned.end()) return it->second;

    std::vector<Value*> new_operands;
    new_operands.reserve(instr->operands.size());
    for (Value* op : instr->operands) {
      new_operands.push_back(clone_slice(builder, block, op, cloned, depth + 1));
    }
    Instr* copy = nullptr;
    switch (instr->opcode()) {
      case Opcode::kICmp:
        copy = builder.icmp(instr->pred, new_operands[0], new_operands[1]);
        break;
      case Opcode::kLoad:
        copy = builder.load(instr->type(), new_operands[0]);
        break;
      case Opcode::kZExt:
        copy = builder.zext(new_operands[0], instr->type());
        break;
      case Opcode::kSExt:
        copy = builder.sext(new_operands[0], instr->type());
        break;
      case Opcode::kTrunc:
        copy = builder.trunc(new_operands[0], instr->type());
        break;
      case Opcode::kSelect:
        copy = builder.select(new_operands[0], new_operands[1], new_operands[2]);
        break;
      default:
        copy = builder.binary(instr->opcode(), new_operands[0], new_operands[1]);
        break;
    }
    cloned[value] = copy;
    return copy;
  }

  /// Emits one checksum evaluation (Algorithm 1) and returns D.
  static Value* emit_checksum(Builder& builder, Value* cond, std::uint64_t uid_src,
                              std::uint64_t uid_true, std::uint64_t uid_false) {
    // The edge constants are emitted as run-time xors of the UID constants,
    // mirroring the op counts the paper reports in Table IV (a folding pass
    // would legally turn them into immediates).
    Value* const_t = builder.xor_(builder.const_i64(uid_true), builder.const_i64(uid_src));
    Value* const_f =
        builder.xor_(builder.const_i64(uid_false), builder.const_i64(uid_src));
    Value* ext = builder.zext(cond, Type::kI64);
    Value* mask = builder.sub(ext, builder.const_i64(1));
    Value* not_mask = builder.not_(mask);
    Value* take_t = builder.and_(not_mask, const_t);
    Value* take_f = builder.and_(mask, const_f);
    return builder.or_(take_t, take_f);
  }

  static bool harden_function(ir::Module& module, ir::Function& fn) {
    // A block's UID follows its number, taken before any new blocks are
    // appended; appending keeps the numbers of the blocks before them.
    fn.renumber();
    const auto uid = [&fn](const BasicBlock* block) {
      support::check(fn.owns(block), support::ErrorKind::kIr,
                     "branch target outside function");
      return block_uid(block->number());
    };

    // Snapshot: hardening appends blocks, so collect targets first.
    std::vector<BasicBlock*> with_condbr;
    for (auto& block : fn.blocks) {
      const Instr* term = block->terminator();
      if (term != nullptr && term->opcode() == Opcode::kCondBr) {
        with_condbr.push_back(block.get());
      }
    }
    if (with_condbr.empty()) return false;

    ir::Function* trap =
        module.get_intrinsic(ir::kTrapIntrinsic, Type::kVoid, 0);
    Builder builder(module);
    unsigned serial = 0;

    for (BasicBlock* block : with_condbr) {
      // Detach the original conditional branch.
      auto term_holder = std::move(block->instrs.back());
      block->instrs.pop_back();
      Instr& term = *term_holder;
      Value* cond = term.operands[0];
      BasicBlock* t_dest = term.targets[0];
      BasicBlock* f_dest = term.targets[1];

      const std::uint64_t uid_src = uid(block);
      const std::uint64_t uid_t = uid(t_dest);
      const std::uint64_t uid_f = uid(f_dest);
      const std::uint64_t const_t = uid_t ^ uid_src;
      const std::uint64_t const_f = uid_f ^ uid_src;

      builder.set_insert_point(block);
      Value* d1 = emit_checksum(builder, cond, uid_src, uid_t, uid_f);
      Value* d2 = emit_checksum(builder, cond, uid_src, uid_t, uid_f);
      std::map<Value*, Value*> cloned;
      Value* c2 = clone_slice(builder, block, cond, cloned, 0);

      const std::string tag = std::to_string(serial++);
      BasicBlock* flt = fn.add_block(block->name() + ".flt_resp" + tag);
      BasicBlock* t1 = fn.add_block(block->name() + ".t1_" + tag);
      BasicBlock* t2 = fn.add_block(block->name() + ".t2_" + tag);
      BasicBlock* f1 = fn.add_block(block->name() + ".f1_" + tag);
      BasicBlock* f2 = fn.add_block(block->name() + ".f2_" + tag);

      builder.cond_br(c2, t1, f1);

      builder.set_insert_point(t1);
      builder.switch_(d1, flt, {{const_t, t2}});
      builder.set_insert_point(t2);
      builder.switch_(d2, flt, {{const_t, t_dest}});
      builder.set_insert_point(f1);
      builder.switch_(d1, flt, {{const_f, f2}});
      builder.set_insert_point(f2);
      builder.switch_(d2, flt, {{const_f, f_dest}});

      builder.set_insert_point(flt);
      builder.call(trap);
      builder.unreachable();
    }
    return true;
  }
};

}  // namespace

std::unique_ptr<Pass> make_branch_hardening() {
  return std::make_unique<BranchHardeningPass>();
}

}  // namespace r2r::passes
