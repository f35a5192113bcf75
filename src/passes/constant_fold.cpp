// Constant folding plus the exact identities the lifter's idioms leave
// behind. The pass runs in the Hybrid cleanup only, before the
// countermeasure, so branch hardening's unfolded `xor C1, C2` and its
// duplicated compares are never folded away (harden/hybrid.h).
//
// Identities (each holds bit for bit on canonical values):
//   x+0, 0+x, x-0, x|0, x^0, a shift by 0, and with all-ones   -> x
//   icmp ne (zext i1 c), 0                                   -> c
//   icmp eq|ne (sub a, b), 0                                 -> icmp eq|ne a, b
//   icmp ne (and (lshr x, bits-1), 1), 0                     -> icmp slt x, 0
//   xor (icmp p a, b), true                                  -> icmp !p a, b
//
// The inverted compare is a new instruction placed before the xor, so
// other uses of the old compare are untouched; DCE removes it when the
// xor was its only use.
#include "passes/pass.h"
#include "support/bits.h"

namespace r2r::passes {

namespace {

using ir::Instr;
using ir::Opcode;
using ir::Pred;
using ir::Type;
using ir::Value;
using support::sign_extend;
using support::truncate;

std::optional<std::uint64_t> fold(const ir::Instr& instr) {
  const auto const_of = [](const ir::Value* value) -> std::optional<std::uint64_t> {
    if (value->kind() != ir::Value::Kind::kConstant) return std::nullopt;
    return static_cast<const ir::Constant*>(value)->value();
  };

  const unsigned bits = ir::type_bits(instr.type());
  switch (instr.opcode()) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kLShr:
    case Opcode::kAShr: {
      const auto a = const_of(instr.operands[0]);
      const auto b = const_of(instr.operands[1]);
      if (!a || !b) return std::nullopt;
      switch (instr.opcode()) {
        case Opcode::kAdd: return truncate(*a + *b, bits);
        case Opcode::kSub: return truncate(*a - *b, bits);
        case Opcode::kMul: return truncate(*a * *b, bits);
        case Opcode::kAnd: return *a & *b;
        case Opcode::kOr: return *a | *b;
        case Opcode::kXor: return truncate(*a ^ *b, bits);
        case Opcode::kShl: return (*b & 63) >= bits ? 0 : truncate(*a << (*b & 63), bits);
        case Opcode::kLShr:
          return (*b & 63) >= bits ? 0 : truncate(*a, bits) >> (*b & 63);
        case Opcode::kAShr: {
          const std::int64_t sa = sign_extend(*a, bits);
          const unsigned count = static_cast<unsigned>(*b & 63);
          return truncate(static_cast<std::uint64_t>(sa >> (count >= bits ? bits - 1 : count)),
                          bits);
        }
        default: return std::nullopt;
      }
    }
    case Opcode::kICmp: {
      const auto a = const_of(instr.operands[0]);
      const auto b = const_of(instr.operands[1]);
      if (!a || !b) return std::nullopt;
      const unsigned opbits = ir::type_bits(instr.operands[0]->type());
      const std::uint64_t ua = truncate(*a, opbits);
      const std::uint64_t ub = truncate(*b, opbits);
      const std::int64_t sa = sign_extend(ua, opbits);
      const std::int64_t sb = sign_extend(ub, opbits);
      switch (instr.pred) {
        case ir::Pred::kEq: return ua == ub ? 1 : 0;
        case ir::Pred::kNe: return ua != ub ? 1 : 0;
        case ir::Pred::kUlt: return ua < ub ? 1 : 0;
        case ir::Pred::kUle: return ua <= ub ? 1 : 0;
        case ir::Pred::kUgt: return ua > ub ? 1 : 0;
        case ir::Pred::kUge: return ua >= ub ? 1 : 0;
        case ir::Pred::kSlt: return sa < sb ? 1 : 0;
        case ir::Pred::kSle: return sa <= sb ? 1 : 0;
        case ir::Pred::kSgt: return sa > sb ? 1 : 0;
        case ir::Pred::kSge: return sa >= sb ? 1 : 0;
      }
      return std::nullopt;
    }
    case Opcode::kZExt:
    case Opcode::kTrunc: {
      const auto a = const_of(instr.operands[0]);
      if (!a) return std::nullopt;
      return truncate(*a, bits);
    }
    case Opcode::kSExt: {
      const auto a = const_of(instr.operands[0]);
      if (!a) return std::nullopt;
      return truncate(static_cast<std::uint64_t>(
                          sign_extend(*a, ir::type_bits(instr.operands[0]->type()))),
                      bits);
    }
    case Opcode::kSelect: {
      const auto cond = const_of(instr.operands[0]);
      if (!cond) return std::nullopt;
      const auto chosen = const_of(instr.operands[*cond != 0 ? 1 : 2]);
      if (!chosen) return std::nullopt;
      return *chosen;
    }
    default:
      return std::nullopt;
  }
}

bool is_constant(const Value* value, std::uint64_t expected) {
  return value->kind() == Value::Kind::kConstant &&
         static_cast<const ir::Constant*>(value)->value() == expected;
}

/// The defining instruction of `value` when it has opcode `opcode`.
Instr* def_of(Value* value, Opcode opcode) {
  if (value->kind() != Value::Kind::kInstr) return nullptr;
  auto* instr = static_cast<Instr*>(value);
  return instr->opcode() == opcode ? instr : nullptr;
}

Pred inverse(Pred pred) {
  switch (pred) {
    case Pred::kEq: return Pred::kNe;
    case Pred::kNe: return Pred::kEq;
    case Pred::kUlt: return Pred::kUge;
    case Pred::kUle: return Pred::kUgt;
    case Pred::kUgt: return Pred::kUle;
    case Pred::kUge: return Pred::kUlt;
    case Pred::kSlt: return Pred::kSge;
    case Pred::kSle: return Pred::kSgt;
    case Pred::kSgt: return Pred::kSle;
    case Pred::kSge: return Pred::kSlt;
  }
  return pred;
}

class ConstantFoldPass final : public Pass {
 public:
  bool run(ir::Module& module) override {
    bool changed = false;
    for (auto& fn : module.functions) {
      if (fn->is_intrinsic()) continue;
      changed |= run_function(module, *fn);
    }
    return changed;
  }

 private:
  bool run_function(ir::Module& module, ir::Function& fn) {
    // What each instruction was replaced with (null: kept). The inverted
    // compares this pass creates have no entry, nor do values of other
    // functions: both resolve to themselves.
    replaced_.reset(fn);
    bool any_replaced = false;
    const auto resolve = [this](Value* value) {
      for (Value** with = replaced_.find(value); with != nullptr && *with != nullptr;
           with = replaced_.find(value)) {
        value = *with;
      }
      return value;
    };

    bool changed = false;
    for (auto& block : fn.blocks) {
      auto& instrs = block->instrs;
      for (std::size_t i = 0; i < instrs.size(); ++i) {
        Instr& instr = *instrs[i];
        for (Value*& op : instr.operands) op = resolve(op);
        Value* with = nullptr;
        if (const auto folded = fold(instr)) {
          with = module.get_constant(instr.type(), *folded);
        } else if (auto inverted = invert_compare(instr)) {
          with = inverted.get();
          instrs.insert(instrs.begin() + static_cast<std::ptrdiff_t>(i), std::move(inverted));
          ++i;  // back on the xor
        } else {
          with = simplify(module, instr, changed);
        }
        if (with != nullptr) {
          *replaced_.find(&instr) = with;
          any_replaced = true;
          changed = true;
        }
      }
    }
    // Second sweep: uses that appear before their definition was replaced
    // (cross-block uses in earlier blocks).
    if (any_replaced) {
      for (auto& block : fn.blocks) {
        for (auto& instr : block->instrs) {
          for (Value*& op : instr->operands) op = resolve(op);
        }
      }
    }
    return changed;
  }

  /// The value `instr` equals by an identity, or nullptr. Rewrites a
  /// compare in place (setting `changed`) when that drops an operation.
  static Value* simplify(ir::Module& module, Instr& instr, bool& changed) {
    if (instr.operands.size() != 2) return nullptr;
    Value* a = instr.operands[0];
    Value* b = instr.operands[1];
    switch (instr.opcode()) {
      case Opcode::kAdd:
      case Opcode::kOr:
      case Opcode::kXor:
        if (is_constant(b, 0)) return a;
        if (is_constant(a, 0)) return b;
        return nullptr;
      case Opcode::kSub:
      case Opcode::kShl:
      case Opcode::kLShr:
      case Opcode::kAShr:
        return is_constant(b, 0) ? a : nullptr;
      case Opcode::kAnd: {
        const std::uint64_t ones = truncate(~std::uint64_t{0}, ir::type_bits(instr.type()));
        if (is_constant(b, ones)) return a;
        if (is_constant(a, ones)) return b;
        return nullptr;
      }
      case Opcode::kICmp:
        return simplify_compare(module, instr, changed);
      default:
        return nullptr;
    }
  }

  /// For xor i1 (icmp p x, y), true: a new icmp !p x, y to stand in for
  /// the xor. Only xor negates; `or` with true is true.
  static std::unique_ptr<Instr> invert_compare(const Instr& instr) {
    if (instr.opcode() != Opcode::kXor || instr.type() != Type::kI1) return nullptr;
    Value* a = instr.operands[0];
    Value* b = instr.operands[1];
    Value* other = is_constant(b, 1) ? a : is_constant(a, 1) ? b : nullptr;
    const Instr* compare = other != nullptr ? def_of(other, Opcode::kICmp) : nullptr;
    if (compare == nullptr) return nullptr;
    auto inverted = std::make_unique<Instr>(Opcode::kICmp, Type::kI1);
    inverted->pred = inverse(compare->pred);
    inverted->operands = compare->operands;
    return inverted;
  }

  static Value* simplify_compare(ir::Module& module, Instr& instr, bool& changed) {
    const bool eq_or_ne = instr.pred == Pred::kEq || instr.pred == Pred::kNe;
    if (!eq_or_ne || !is_constant(instr.operands[1], 0)) return nullptr;
    Value* tested = instr.operands[0];
    if (const Instr* ext = def_of(tested, Opcode::kZExt)) {
      const bool is_bool = ext->operands[0]->type() == Type::kI1;
      return is_bool && instr.pred == Pred::kNe ? ext->operands[0] : nullptr;
    }
    const auto rewrite = [&](Pred pred, Value* x, Value* y) {
      instr.pred = pred;
      instr.operands = {x, y};
      changed = true;
      return nullptr;
    };
    if (const Instr* diff = def_of(tested, Opcode::kSub)) {
      return rewrite(instr.pred, diff->operands[0], diff->operands[1]);
    }
    // The lifter's sign bit: (x >> (bits - 1)) & 1 != 0.
    const Instr* low_bit = def_of(tested, Opcode::kAnd);
    if (instr.pred != Pred::kNe || low_bit == nullptr || !is_constant(low_bit->operands[1], 1)) {
      return nullptr;
    }
    const Instr* shift = def_of(low_bit->operands[0], Opcode::kLShr);
    if (shift == nullptr) return nullptr;
    Value* x = shift->operands[0];
    if (!is_constant(shift->operands[1], ir::type_bits(x->type()) - 1)) return nullptr;
    return rewrite(Pred::kSlt, x, module.get_constant(x->type(), 0));
  }

  ir::InstrTable<Value*> replaced_;  ///< kept across functions and rounds
};

}  // namespace

std::unique_ptr<Pass> make_constant_fold() {
  return std::make_unique<ConstantFoldPass>();
}

}  // namespace r2r::passes
