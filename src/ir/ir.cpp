#include "ir/ir.h"

namespace r2r::ir {

std::string_view to_string(Type type) noexcept {
  switch (type) {
    case Type::kVoid: return "void";
    case Type::kI1: return "i1";
    case Type::kI8: return "i8";
    case Type::kI32: return "i32";
    case Type::kI64: return "i64";
  }
  return "?";
}

unsigned type_bits(Type type) noexcept {
  switch (type) {
    case Type::kVoid: return 0;
    case Type::kI1: return 1;
    case Type::kI8: return 8;
    case Type::kI32: return 32;
    case Type::kI64: return 64;
  }
  return 0;
}

std::string_view to_string(Opcode opcode) noexcept {
  switch (opcode) {
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kShl: return "shl";
    case Opcode::kLShr: return "lshr";
    case Opcode::kAShr: return "ashr";
    case Opcode::kICmp: return "icmp";
    case Opcode::kZExt: return "zext";
    case Opcode::kSExt: return "sext";
    case Opcode::kTrunc: return "trunc";
    case Opcode::kSelect: return "select";
    case Opcode::kLoad: return "load";
    case Opcode::kStore: return "store";
    case Opcode::kBr: return "br";
    case Opcode::kCondBr: return "br";
    case Opcode::kSwitch: return "switch";
    case Opcode::kRet: return "ret";
    case Opcode::kUnreachable: return "unreachable";
    case Opcode::kCall: return "call";
  }
  return "?";
}

std::string_view to_string(Pred pred) noexcept {
  switch (pred) {
    case Pred::kEq: return "eq";
    case Pred::kNe: return "ne";
    case Pred::kUlt: return "ult";
    case Pred::kUle: return "ule";
    case Pred::kUgt: return "ugt";
    case Pred::kUge: return "uge";
    case Pred::kSlt: return "slt";
    case Pred::kSle: return "sle";
    case Pred::kSgt: return "sgt";
    case Pred::kSge: return "sge";
  }
  return "?";
}

Constant* Module::get_constant(Type type, std::uint64_t value) {
  // Normalize the stored payload to the type's width so interning works.
  const unsigned bits = type_bits(type);
  if (bits != 0 && bits < 64) value &= (std::uint64_t{1} << bits) - 1;
  for (const auto& constant : constants_) {
    if (constant->type() == type && constant->value() == value) return constant.get();
  }
  constants_.push_back(std::make_unique<Constant>(type, value));
  return constants_.back().get();
}

std::size_t Function::renumber() const noexcept {
  std::uint32_t next = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    blocks[b]->number_ = static_cast<std::uint32_t>(b);
    for (const auto& instr : blocks[b]->instrs) instr->number_ = next++;
  }
  return next;
}

std::size_t Module::renumber() const noexcept {
  for (std::size_t i = 0; i < functions.size(); ++i) {
    functions[i]->number_ = static_cast<std::uint32_t>(i);
  }
  return functions.size();
}

Function* Module::get_intrinsic(std::string_view name, Type return_type,
                                unsigned params) {
  if (Function* existing = find_function(name)) return existing;
  return add_function(std::string(name), return_type, params, /*is_intrinsic=*/true);
}

}  // namespace r2r::ir
