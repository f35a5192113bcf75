#include "ir/verifier.h"

#include <set>
#include <string_view>
#include <unordered_map>

#include "support/error.h"

namespace r2r::ir {

namespace {

using support::check;
using support::ErrorKind;

using FunctionsByName = std::unordered_map<std::string_view, const Function*>;

/// The block that defines each instruction of the function being verified.
/// Its owner check answers "is this operand ours?"; Function::owns answers
/// it for branch targets.
using DefiningBlocks = InstrTable<const BasicBlock*>;

void verify_function(const FunctionsByName& by_name, const Function& fn,
                     DefiningBlocks& defined_in) {
  if (fn.is_intrinsic()) {
    check(fn.blocks.empty(), ErrorKind::kIr, "function @", fn.name(),
          ": intrinsic with a body");
    return;
  }
  check(!fn.blocks.empty(), ErrorKind::kIr, "function @", fn.name(), ": no blocks");

  defined_in.reset(fn);
  for (const auto& block : fn.blocks) {
    for (const auto& instr : block->instrs) *defined_in.find(instr.get()) = block.get();
  }

  for (const auto& block : fn.blocks) {
    const auto check = [&fn, &block](bool condition, std::string_view message) {
      support::check(condition, ErrorKind::kIr, "function @", fn.name(), ": block %",
                     block->name(), ": ", message);
    };
    check(!block->instrs.empty(), "empty block");
    for (std::size_t i = 0; i < block->instrs.size(); ++i) {
      const Instr& instr = *block->instrs[i];
      const bool last = (i + 1 == block->instrs.size());
      check(instr.is_terminator() == last,
            last ? "missing terminator" : "terminator in the middle");

      for (const Value* op : instr.operands) {
        check(op != nullptr, "null operand");
        if (op->kind() == Value::Kind::kInstr) {
          check(defined_in.find(op) != nullptr, "operand defined in another function");
        }
      }
      for (const BasicBlock* target : instr.targets) {
        check(fn.owns(target), "branch target outside function");
      }

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
          check(instr.operands.size() == 2, "binary arity");
          check(instr.operands[0]->type() == instr.type() &&
                    instr.operands[1]->type() == instr.type(),
                "binary type mismatch");
          check(instr.type() != Type::kVoid, "void arithmetic");
          break;
        case Opcode::kICmp:
          check(instr.operands.size() == 2, "icmp arity");
          check(instr.type() == Type::kI1, "icmp must yield i1");
          check(instr.operands[0]->type() == instr.operands[1]->type(),
                "icmp operand mismatch");
          break;
        case Opcode::kZExt:
        case Opcode::kSExt:
          check(instr.operands.size() == 1, "ext arity");
          check(type_bits(instr.type()) > type_bits(instr.operands[0]->type()),
                "ext must widen");
          break;
        case Opcode::kTrunc:
          check(instr.operands.size() == 1, "trunc arity");
          check(type_bits(instr.type()) < type_bits(instr.operands[0]->type()),
                "trunc must narrow");
          break;
        case Opcode::kSelect:
          check(instr.operands.size() == 3, "select arity");
          check(instr.operands[0]->type() == Type::kI1, "select condition must be i1");
          check(instr.operands[1]->type() == instr.type() &&
                    instr.operands[2]->type() == instr.type(),
                "select type mismatch");
          break;
        case Opcode::kLoad:
          check(instr.operands.size() == 1, "load arity");
          check(instr.operands[0]->type() == Type::kI64, "load address must be i64");
          check(instr.type() == Type::kI8 || instr.type() == Type::kI32 ||
                    instr.type() == Type::kI64,
                "load type must be i8, i32 or i64");
          break;
        case Opcode::kStore:
          check(instr.operands.size() == 2, "store arity");
          check(instr.operands[1]->type() == Type::kI64, "store address must be i64");
          check(instr.operands[0]->type() == Type::kI8 ||
                    instr.operands[0]->type() == Type::kI32 ||
                    instr.operands[0]->type() == Type::kI64,
                "store value must be i8, i32 or i64");
          break;
        case Opcode::kBr:
          check(instr.targets.size() == 1, "br target count");
          break;
        case Opcode::kCondBr:
          check(instr.targets.size() == 2 && instr.operands.size() == 1, "condbr shape");
          check(instr.operands[0]->type() == Type::kI1, "condbr condition must be i1");
          break;
        case Opcode::kSwitch:
          check(instr.operands.size() == 1, "switch arity");
          check(instr.targets.size() == instr.case_values.size() + 1,
                "switch case/target mismatch");
          break;
        case Opcode::kRet:
          check(fn.return_type() == Type::kVoid, "non-void function return");
          break;
        case Opcode::kUnreachable:
          break;
        case Opcode::kCall: {
          check(instr.callee != nullptr, "call without callee");
          const auto named = by_name.find(instr.callee->name());
          check(named != by_name.end() && named->second == instr.callee,
                "callee not in module");
          check(instr.operands.size() == instr.callee->param_count(),
                "call argument count mismatch");
          check(instr.type() == instr.callee->return_type(), "call result type mismatch");
          break;
        }
      }
    }

    // Straight-line def-before-use inside the block: numbers follow the
    // layout, so a definition earlier in the block has a smaller number.
    for (const auto& instr : block->instrs) {
      for (const Value* op : instr->operands) {
        if (op->kind() != Value::Kind::kInstr) continue;
        check(*defined_in.find(op) != block.get() ||
                  static_cast<const Instr*>(op)->number() < instr->number(),
              "use before definition within block");
      }
    }
  }
}

}  // namespace

void verify(const Module& module) {
  // The first function of each name: a later namesake is a duplicate, and
  // a callee is in the module only if it is the function its name finds.
  FunctionsByName by_name;
  for (const auto& fn : module.functions) by_name.emplace(fn->name(), fn.get());
  DefiningBlocks defined_in;
  for (const auto& fn : module.functions) {
    check(by_name.at(fn->name()) == fn.get(), ErrorKind::kIr, "duplicate function @",
          fn->name());
    verify_function(by_name, *fn, defined_in);
  }
  std::set<std::string_view> global_names;
  for (const auto& global : module.globals) {
    check(global_names.insert(global->name()).second, ErrorKind::kIr, "duplicate global @",
          global->name());
    check(global->size() > 0, ErrorKind::kIr, "empty global @", global->name());
  }
}

}  // namespace r2r::ir
