// r2r::ir — a compact SSA compiler IR ("mini-LLVM").
//
// The Hybrid approach (Section IV-C) lifts the binary into this IR, runs
// countermeasure passes, and lowers back to the subset ISA. The IR mirrors
// the LLVM properties the paper relies on: SSA values, the
// module/function/basic-block/instruction hierarchy, globals, typed
// integer operations, and a switch terminator (used by the duplicated
// checksum validation of Fig. 5).
//
// Ownership: Module owns Functions and GlobalVariables; Function owns
// BasicBlocks; BasicBlock owns Instrs. Operands are non-owning Value*.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.h"

namespace r2r::ir {

enum class Type : std::uint8_t { kVoid, kI1, kI8, kI32, kI64 };

std::string_view to_string(Type type) noexcept;
unsigned type_bits(Type type) noexcept;

enum class Opcode : std::uint8_t {
  // arithmetic / bitwise (i64 or i8)
  kAdd, kSub, kMul, kAnd, kOr, kXor, kShl, kLShr, kAShr,
  // comparisons / conversions
  kICmp,   // predicate in Instr::pred, result i1
  kZExt,   // to wider type
  kSExt,
  kTrunc,  // to narrower type
  kSelect, // (i1, a, b)
  // memory
  kLoad,   // (address i64) -> value; access size from result type
  kStore,  // (value, address i64)
  // control flow (terminators)
  kBr,      // unconditional; targets[0]
  kCondBr,  // (cond i1); targets[0]=true, targets[1]=false
  kSwitch,  // (value i64); targets[0]=default, case_values[i] -> targets[i+1]
  kRet,     // void return
  kUnreachable,
  // calls
  kCall,  // callee + arg operands; result type = callee return type
};

std::string_view to_string(Opcode opcode) noexcept;

enum class Pred : std::uint8_t { kEq, kNe, kUlt, kUle, kUgt, kUge, kSlt, kSle, kSgt, kSge };

std::string_view to_string(Pred pred) noexcept;

class BasicBlock;
class Function;
class Module;

/// Base of everything that can be an operand.
class Value {
 public:
  enum class Kind : std::uint8_t { kInstr, kConstant, kGlobal };

  Value(Kind kind, Type type) : kind_(kind), type_(type) {}
  virtual ~Value() = default;
  Value(const Value&) = delete;
  Value& operator=(const Value&) = delete;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] Type type() const noexcept { return type_; }

 private:
  Kind kind_;
  Type type_;
};

/// Integer constant (also used for i1 true/false).
class Constant final : public Value {
 public:
  Constant(Type type, std::uint64_t value)
      : Value(Kind::kConstant, type), value_(value) {}
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_;
};

/// A module-level mutable slot with a fixed size; used for the lifted CPU
/// state (registers/flags) and the guest stack. As in LLVM, using a global
/// as an operand yields its *address* (type i64).
class GlobalVariable final : public Value {
 public:
  GlobalVariable(std::string name, std::uint64_t size, std::vector<std::uint8_t> init)
      : Value(Kind::kGlobal, Type::kI64),
        name_(std::move(name)),
        size_(size),
        init_(std::move(init)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::vector<std::uint8_t>& init() const noexcept { return init_; }

  /// Assigned by lowering (and by the interpreter when mapping state).
  std::uint64_t address = 0;

 private:
  std::string name_;
  std::uint64_t size_;
  std::vector<std::uint8_t> init_;
};

class Instr final : public Value {
 public:
  Instr(Opcode opcode, Type type) : Value(Kind::kInstr, type), opcode_(opcode) {}

  [[nodiscard]] Opcode opcode() const noexcept { return opcode_; }

  std::vector<Value*> operands;
  std::vector<BasicBlock*> targets;          ///< br/condbr/switch
  std::vector<std::uint64_t> case_values;    ///< switch case constants
  Pred pred = Pred::kEq;                     ///< icmp
  Function* callee = nullptr;                ///< call

  [[nodiscard]] bool is_terminator() const noexcept {
    switch (opcode_) {
      case Opcode::kBr:
      case Opcode::kCondBr:
      case Opcode::kSwitch:
      case Opcode::kRet:
      case Opcode::kUnreachable:
        return true;
      default:
        return false;
    }
  }
  [[nodiscard]] bool has_side_effects() const noexcept {
    switch (opcode_) {
      case Opcode::kStore:
      case Opcode::kCall:
        return true;
      default:
        return is_terminator();
    }
  }

 private:
  Opcode opcode_;
};

class BasicBlock {
 public:
  explicit BasicBlock(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  std::vector<std::unique_ptr<Instr>> instrs;

  [[nodiscard]] Instr* terminator() const noexcept {
    if (instrs.empty()) return nullptr;
    Instr* last = instrs.back().get();
    return last->is_terminator() ? last : nullptr;
  }

 private:
  std::string name_;
};

class Function {
 public:
  Function(std::string name, Type return_type, unsigned param_count,
           bool is_intrinsic)
      : name_(std::move(name)),
        return_type_(return_type),
        param_count_(param_count),
        intrinsic_(is_intrinsic) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Type return_type() const noexcept { return return_type_; }
  [[nodiscard]] unsigned param_count() const noexcept { return param_count_; }
  [[nodiscard]] bool is_intrinsic() const noexcept { return intrinsic_; }
  [[nodiscard]] BasicBlock* entry() const noexcept {
    return blocks.empty() ? nullptr : blocks.front().get();
  }

  std::vector<std::unique_ptr<BasicBlock>> blocks;

  BasicBlock* add_block(std::string name) {
    blocks.push_back(std::make_unique<BasicBlock>(std::move(name)));
    return blocks.back().get();
  }

 private:
  std::string name_;
  Type return_type_;
  unsigned param_count_;
  bool intrinsic_;
};

class Module {
 public:
  std::vector<std::unique_ptr<Function>> functions;
  std::vector<std::unique_ptr<GlobalVariable>> globals;
  std::string entry_function = "_start";

  Function* add_function(std::string name, Type return_type = Type::kVoid,
                         unsigned param_count = 0, bool is_intrinsic = false) {
    functions.push_back(std::make_unique<Function>(std::move(name), return_type,
                                                   param_count, is_intrinsic));
    return functions.back().get();
  }

  GlobalVariable* add_global(std::string name, std::uint64_t size,
                             std::vector<std::uint8_t> init = {}) {
    globals.push_back(
        std::make_unique<GlobalVariable>(std::move(name), size, std::move(init)));
    return globals.back().get();
  }

  [[nodiscard]] Function* find_function(std::string_view name) const noexcept {
    for (const auto& fn : functions) {
      if (fn->name() == name) return fn.get();
    }
    return nullptr;
  }

  [[nodiscard]] GlobalVariable* find_global(std::string_view name) const noexcept {
    for (const auto& global : globals) {
      if (global->name() == name) return global.get();
    }
    return nullptr;
  }

  /// Interned constant (unique per type+value pair).
  Constant* get_constant(Type type, std::uint64_t value);

  /// Declares (or returns) an intrinsic function by name.
  Function* get_intrinsic(std::string_view name, Type return_type, unsigned params);

 private:
  std::vector<std::unique_ptr<Constant>> constants_;
};

/// Intrinsic names understood by the interpreter and the lowering:
///   r2r.syscall(rax, rdi, rsi, rdx) -> i64
///   r2r.trap()                      -> void  (fault response, never returns)
inline constexpr std::string_view kSyscallIntrinsic = "r2r.syscall";
inline constexpr std::string_view kTrapIntrinsic = "r2r.trap";

}  // namespace r2r::ir
