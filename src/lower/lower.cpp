#include "lower/lower.h"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "bir/assemble.h"
#include "isa/target.h"
#include "obs/trace.h"
#include "patch/detected_exit.h"
#include "support/bits.h"
#include "support/error.h"

namespace r2r::lower {

namespace {

using ir::Opcode;
using ir::Pred;
using ir::Type;
using ir::Value;
using isa::Cond;
using isa::Instruction;
using isa::Mnemonic;
using isa::Reg;
using isa::Width;
using support::check;
using support::ErrorKind;
using support::fits_int32;

Cond cond_for(Pred pred) {
  switch (pred) {
    case Pred::kEq: return Cond::e;
    case Pred::kNe: return Cond::ne;
    case Pred::kUlt: return Cond::b;
    case Pred::kUle: return Cond::be;
    case Pred::kUgt: return Cond::a;
    case Pred::kUge: return Cond::ae;
    case Pred::kSlt: return Cond::l;
    case Pred::kSle: return Cond::le;
    case Pred::kSgt: return Cond::g;
    case Pred::kSge: return Cond::ge;
  }
  return Cond::e;
}

Mnemonic mnemonic_for(Opcode opcode) {
  switch (opcode) {
    case Opcode::kAdd: return Mnemonic::kAdd;
    case Opcode::kSub: return Mnemonic::kSub;
    case Opcode::kMul: return Mnemonic::kImul;
    case Opcode::kAnd: return Mnemonic::kAnd;
    case Opcode::kOr: return Mnemonic::kOr;
    case Opcode::kXor: return Mnemonic::kXor;
    case Opcode::kShl: return Mnemonic::kShl;
    case Opcode::kLShr: return Mnemonic::kShr;
    case Opcode::kAShr: return Mnemonic::kSar;
    default: support::fail(ErrorKind::kLower, "not a binary opcode");
  }
}

/// Allocatable pool; r11 is a reserved scratch (wide case constants),
/// rbx/rbp/r12..r15 and rsp stay untouched.
constexpr Reg kPool[] = {Reg::rax, Reg::rcx, Reg::rdx, Reg::rsi,
                         Reg::rdi, Reg::r8,  Reg::r9,  Reg::r10};
constexpr Reg kScratch = Reg::r11;

/// Base of the ".r2rstate" section that holds the module globals.
constexpr std::uint64_t kStateBase = 0x90'0000;

/// What the lowering tracks per instruction of the function.
struct ValueState {
  const ir::BasicBlock* block = nullptr;  ///< defining block
  bool cross_block = false;               ///< used outside `block`
  unsigned remaining = 0;                 ///< uses left in the block being lowered
  std::int64_t slot = -1;                 ///< frame offset, -1 before one is needed
};

/// Indexed by instruction number. A value with no entry (another
/// function's instruction) has no slot: using it is an Error{kLower}.
using ValueStates = ir::InstrTable<ValueState>;

/// Code generator for one IR function.
///
/// Register model: block-local register cache over an on-demand spill
/// frame. Values used across blocks are stored to their frame slot at
/// definition; block-local values live in registers and only get a slot if
/// they must survive an eviction or a call. Dirty tracking keeps the store
/// traffic down to what is actually needed.
class FunctionLowerer {
 public:
  /// `values` is scratch space, reset for `fn`, so that one table serves
  /// every function of a module.
  FunctionLowerer(const ir::Function& fn, bir::Module& out, isa::Arch arch,
                  ValueStates& values)
      : fn_(fn), out_(out), caps_(isa::target(arch).lower_caps()), values_(values) {}

  void lower() {
    analyze_uses();

    // Lower all blocks first; the frame size is only known afterwards, so
    // prologue/epilogue immediates are patched at the end.
    std::vector<std::pair<std::string, std::vector<Instruction>>> lowered;
    for (const auto& block_ptr : fn_.blocks) {
      const ir::BasicBlock& block = *block_ptr;
      code_.clear();
      cache_reset();
      // Every use is consumed by the end of its block: the counts start at 0.
      for (const auto& instr : block.instrs) {
        for (const Value* op : instr->operands) {
          if (ValueState* state = values_.find(op)) ++state->remaining;
        }
      }
      for (std::size_t i = 0; i < block.instrs.size(); ++i) {
        const std::size_t fused = try_fuse_compare_branch(block, i);
        if (fused > 0) {
          for (std::size_t k = i; k < i + fused; ++k) {
            consume_operands(*block.instrs[k]);
          }
          i += fused - 1;
          continue;
        }
        lower_instr(*block.instrs[i]);
        consume_operands(*block.instrs[i]);
      }
      lowered.emplace_back(block_label(block), std::move(code_));
      code_.clear();
    }

    const std::int64_t frame =
        static_cast<std::int64_t>((next_slot_ + 15) & ~std::uint64_t{15});
    // Prologue block carries the function symbol; branches back to the
    // entry basic block use its internal label and skip the sub.
    std::vector<Instruction> prologue;
    if (frame > 0) {
      check(frame <= caps_.max_alu_imm, ErrorKind::kLower,
            "stack frame exceeds the target's immediate range");
      prologue.push_back(caps_.sub_immediate
                             ? isa::sub(Reg::rsp, isa::imm(frame), natural())
                             : isa::add(Reg::rsp, isa::imm(-frame), natural()));
    }
    if (prologue.empty()) prologue.push_back(isa::nop());
    out_.append_block(fn_.name(), std::move(prologue));
    std::vector<std::string> pending;  // labels of blocks emptied by elision
    for (std::size_t b = 0; b < lowered.size(); ++b) {
      auto& [label, instructions] = lowered[b];
      // Patch epilogue placeholders now that the frame size is known.
      for (Instruction& instr : instructions) {
        if (instr.mnemonic == Mnemonic::kAdd && instr.arity() == 2 &&
            isa::is_reg(instr.op(0)) && std::get<Reg>(instr.op(0)) == Reg::rsp &&
            isa::is_imm(instr.op(1)) &&
            std::get<isa::ImmOperand>(instr.op(1)).label == kEpilogueTag) {
          instr.operands[1] = isa::ImmOperand{frame, {}};
        }
      }
      if (frame == 0) {
        // Drop now-trivial `add rsp, 0` epilogues.
        std::erase_if(instructions, [](const Instruction& instr) {
          return instr.mnemonic == Mnemonic::kAdd && instr.arity() == 2 &&
                 isa::is_reg(instr.op(0)) && std::get<Reg>(instr.op(0)) == Reg::rsp &&
                 isa::is_imm(instr.op(1)) &&
                 std::get<isa::ImmOperand>(instr.op(1)).value == 0;
        });
      }
      if (b + 1 < lowered.size() && jumps_to(instructions, lowered[b + 1].first)) {
        instructions.resize(instructions.size() - 2);
      }
      if (instructions.empty()) {
        pending.push_back(std::move(label));
        continue;
      }
      const std::size_t first = out_.text.size();
      out_.append_block(label, std::move(instructions));
      for (std::string& moved : pending) out_.add_label(first, std::move(moved));
      pending.clear();
    }
  }

  [[nodiscard]] std::string block_label(const ir::BasicBlock& block) const {
    return fn_.name() + "." + block.name();
  }

 private:
  static constexpr const char* kEpilogueTag = ".r2r_frame";

  /// True if `code` ends in `jmp next; ud2`. Such a block falls through
  /// instead: a skipped jmp already landed in `next`, so dropping the pair
  /// changes no fault outcome, and no branch is ever inverted.
  static bool jumps_to(const std::vector<Instruction>& code, const std::string& next) {
    if (code.size() < 2 || code.back().mnemonic != Mnemonic::kUd2) return false;
    const Instruction& jump = code[code.size() - 2];
    return jump.mnemonic == Mnemonic::kJmp && isa::is_label(jump.op(0)) &&
           std::get<isa::LabelOperand>(jump.op(0)).name == next;
  }

  // ---- target legalization helpers -------------------------------------------

  [[nodiscard]] Width natural() const noexcept { return caps_.natural_width; }

  /// Machine operation width for a value of IR type `type`: sub-word types
  /// keep their size, full-word (i64) arithmetic runs at the register width.
  [[nodiscard]] Width width_for(Type type) const noexcept {
    if (type == Type::kI8 || type == Type::kI1) return Width::b8;
    if (type == Type::kI32) return Width::b32;
    return caps_.natural_width;
  }

  [[nodiscard]] bool fits_alu_imm(std::int64_t value) const noexcept {
    return value >= caps_.min_alu_imm && value <= caps_.max_alu_imm;
  }

  /// Canonicalizes a constant for materialization: 32-bit machines hold the
  /// low word only, so wide constants are pre-masked to their u32 image
  /// (small immediates stay signed so they pick the short encoding).
  [[nodiscard]] std::int64_t legal_constant(std::int64_t raw) const noexcept {
    if (caps_.natural_width == Width::b32 && !fits_alu_imm(raw)) {
      return static_cast<std::int64_t>(static_cast<std::uint32_t>(raw));
    }
    return raw;
  }

  /// Truncates `dst` (holding a full-width computation) to `type`. A no-op
  /// when the type already fills the machine word.
  void emit_mask(Reg dst, Type type) {
    const unsigned bits = ir::type_bits(type);
    if (bits >= isa::width_bits(natural())) return;
    const auto mask = static_cast<std::int64_t>((std::uint64_t{1} << bits) - 1);
    if (fits_alu_imm(mask)) {
      code_.push_back(isa::and_(dst, isa::imm(mask), natural()));
    } else {
      code_.push_back(isa::mov(kScratch, isa::imm(legal_constant(mask)), natural()));
      code_.push_back(isa::and_(dst, kScratch, natural()));
    }
  }

  // ---- use analysis -----------------------------------------------------------

  void analyze_uses() {
    values_.reset(fn_);
    for (const auto& block : fn_.blocks) {
      for (const auto& instr : block->instrs) {
        for (const Value* op : instr->operands) {
          // An operand not yet defined is defined in a later block.
          ValueState* state = values_.find(op);
          if (state != nullptr && state->block != block.get()) state->cross_block = true;
        }
        values_.find(instr.get())->block = block.get();
      }
    }
  }

  void consume_operands(const ir::Instr& instr) {
    for (const Value* op : instr.operands) {
      if (ValueState* state = values_.find(op)) --state->remaining;
    }
  }

  [[nodiscard]] unsigned remaining(const Value* value) const {
    const ValueState* state = values_.find(value);
    return state == nullptr ? 0 : state->remaining;
  }

  /// The frame slot of `value`, -1 when it has none (yet, or ever: a value
  /// of another function).
  [[nodiscard]] std::int64_t current_slot(const Value* value) const {
    const ValueState* state = values_.find(value);
    return state == nullptr ? -1 : state->slot;
  }

  [[nodiscard]] unsigned occurrences(const ir::Instr& instr, const Value* value) const {
    unsigned count = 0;
    for (const Value* op : instr.operands) {
      if (op == value) ++count;
    }
    return count;
  }

  // ---- frame slots ---------------------------------------------------------------

  std::int64_t slot_of(const Value* value) {
    ValueState* state = values_.find(value);
    check(state != nullptr, ErrorKind::kLower,
          "use of a value that was never defined or spilled");
    std::int64_t& slot = state->slot;
    if (slot < 0) {
      slot = static_cast<std::int64_t>(next_slot_);
      next_slot_ += 8;
    }
    return slot;
  }

  [[nodiscard]] isa::Operand slot_operand(const Value* value) {
    return isa::mem(Reg::rsp, slot_of(value));
  }

  // ---- register cache --------------------------------------------------------------

  /// The value a register holds; a null value marks a free register.
  struct CacheEntry {
    const Value* value = nullptr;
    bool dirty = false;
  };

  /// Registers one instruction's lowering must keep, a bit per register number.
  using Pinned = std::uint16_t;

  static Pinned bit(Reg reg) noexcept { return Pinned(1u << isa::reg_number(reg)); }

  CacheEntry& entry(Reg reg) { return cache_[isa::reg_number(reg)]; }

  void cache_reset() { cache_.fill({}); }

  /// The register holding `value`, if any.
  [[nodiscard]] std::optional<Reg> where(const Value* value) const {
    for (unsigned n = 0; n < cache_.size(); ++n) {
      if (cache_[n].value == value) return isa::reg_from_number(n);
    }
    return std::nullopt;
  }

  void bind(Reg reg, const Value* value, bool dirty) {
    if (const auto old = where(value)) entry(*old) = {};
    entry(reg) = CacheEntry{value, dirty};
  }

  /// Spills `reg` if its value may still be needed and is not backed by a
  /// current slot.
  void evict(Reg reg) {
    const CacheEntry held = std::exchange(entry(reg), {});
    if (held.dirty && remaining(held.value) > 0) {
      code_.push_back(isa::mov(slot_operand(held.value), reg, natural()));
    }
  }

  Reg alloc_reg(Pinned pinned) {
    for (const Reg reg : kPool) {
      if ((pinned & bit(reg)) == 0 && entry(reg).value == nullptr) return reg;
    }
    // Prefer evicting a clean or dead value.
    for (const Reg reg : kPool) {
      if ((pinned & bit(reg)) != 0) continue;
      if (!entry(reg).dirty || remaining(entry(reg).value) == 0) {
        evict(reg);
        return reg;
      }
    }
    for (const Reg reg : kPool) {
      if ((pinned & bit(reg)) == 0) {
        evict(reg);
        return reg;
      }
    }
    support::fail(ErrorKind::kLower, "register pool exhausted");
  }

  /// Flushes every dirty, still-needed value (before calls) and clears the
  /// cache, in register number order. "Still needed" means uses remain in
  /// this block or anywhere else (cross-block values are always stored at
  /// definition, so they are never dirty here).
  void flush_and_clear() {
    for (unsigned n = 0; n < cache_.size(); ++n) {
      const CacheEntry& held = cache_[n];
      if (held.dirty && remaining(held.value) > 0) {
        code_.push_back(
            isa::mov(slot_operand(held.value), isa::reg_from_number(n), natural()));
      }
    }
    cache_reset();
  }

  /// Ensures an instruction value can be reloaded after the cache is
  /// cleared (i.e. it has an up-to-date slot).
  void ensure_slot_current(const Value* value) {
    if (value->kind() != Value::Kind::kInstr) return;
    const auto reg = where(value);
    if (!reg) return;  // already only in its slot
    if (entry(*reg).dirty) {
      code_.push_back(isa::mov(slot_operand(value), *reg, natural()));
      entry(*reg).dirty = false;
    }
  }

  Reg value_to_reg(const Value* value, Pinned& pinned) {
    if (const auto held = where(value)) {
      pinned |= bit(*held);
      return *held;
    }
    const Reg reg = alloc_reg(pinned);
    switch (value->kind()) {
      case Value::Kind::kConstant: {
        const auto raw =
            static_cast<std::int64_t>(static_cast<const ir::Constant*>(value)->value());
        code_.push_back(isa::mov(reg, isa::imm(legal_constant(raw)), natural()));
        break;
      }
      case Value::Kind::kGlobal: {
        const auto* global = static_cast<const ir::GlobalVariable*>(value);
        code_.push_back(isa::mov(
            reg, isa::imm(static_cast<std::int64_t>(global->address)), natural()));
        break;
      }
      case Value::Kind::kInstr:
        check(current_slot(value) >= 0, ErrorKind::kLower,
              "use of a value that was never defined or spilled");
        code_.push_back(isa::mov(reg, slot_operand(value), natural()));
        break;
    }
    bind(reg, value, /*dirty=*/false);
    pinned |= bit(reg);
    return reg;
  }

  isa::Operand value_operand(const Value* value, Pinned& pinned) {
    if (value->kind() == Value::Kind::kConstant) {
      const auto raw =
          static_cast<std::int64_t>(static_cast<const ir::Constant*>(value)->value());
      if (fits_alu_imm(raw)) return isa::imm(raw);
    }
    return value_to_reg(value, pinned);
  }

  /// Records the definition of `instr` living in `reg`. Cross-block values
  /// are stored through immediately; block-local ones stay register-only
  /// until an eviction forces a spill.
  void define(const ir::Instr* instr, Reg reg) {
    const bool crosses = values_.find(instr)->cross_block;
    if (crosses) {
      code_.push_back(isa::mov(slot_operand(instr), reg, natural()));
    }
    bind(reg, instr, /*dirty=*/!crosses);
  }

  /// Picks the destination register for a computation consuming `a`:
  /// reuses a's register when this is its final use (saves the copy).
  Reg dest_for(const ir::Instr& instr, const Value* a, Reg a_reg, Pinned& pinned) {
    if (a->kind() == Value::Kind::kInstr && remaining(a) == occurrences(instr, a) &&
        occurrences(instr, a) == 1) {
      // a dies here; steal its register. Its slot (if any) stays valid.
      entry(a_reg) = {};
      pinned |= bit(a_reg);
      return a_reg;
    }
    return alloc_reg(pinned);
  }

  isa::Operand address_operand(const Value* value, Pinned& pinned) {
    if (caps_.absolute_addressing) {
      if (value->kind() == Value::Kind::kGlobal) {
        const auto* global = static_cast<const ir::GlobalVariable*>(value);
        return isa::mem_abs(static_cast<std::int64_t>(global->address));
      }
      if (value->kind() == Value::Kind::kConstant) {
        const auto raw =
            static_cast<std::int64_t>(static_cast<const ir::Constant*>(value)->value());
        if (fits_int32(raw)) return isa::mem_abs(raw);
      }
    }
    // No absolute forms: materialize the address into a pool register
    // (globals cache well — flag slots are hit on almost every instruction).
    return isa::mem(value_to_reg(value, pinned), 0);
  }

  // ---- compare/branch fusion -----------------------------------------------------

  /// Recognizes [icmp][condbr] and [icmp][xor cond,true][condbr] patterns
  /// at position `i` where the intermediate values have no other uses, and
  /// emits a native cmp + jcc pair. Returns the number of IR instructions
  /// consumed (0 = no fusion).
  std::size_t try_fuse_compare_branch(const ir::BasicBlock& block, std::size_t i) {
    const ir::Instr* icmp = block.instrs[i].get();
    if (icmp->opcode() != Opcode::kICmp) return 0;

    const auto single_use_here = [this](const ir::Instr* value) {
      return !values_.find(value)->cross_block && remaining(value) == 1;
    };

    // Direct: icmp; condbr.
    if (i + 1 < block.instrs.size()) {
      const ir::Instr* next = block.instrs[i + 1].get();
      if (next->opcode() == Opcode::kCondBr && next->operands[0] == icmp &&
          single_use_here(icmp)) {
        emit_fused(*icmp, /*inverted=*/false, *next);
        return 2;
      }
      // Inverted: icmp; xor icmp,true; condbr.
      if (i + 2 < block.instrs.size() && next->opcode() == Opcode::kXor &&
          next->type() == Type::kI1 && single_use_here(icmp) &&
          single_use_here(next)) {
        const bool wraps_icmp =
            (next->operands[0] == icmp &&
             next->operands[1]->kind() == Value::Kind::kConstant &&
             static_cast<const ir::Constant*>(next->operands[1])->value() == 1) ||
            (next->operands[1] == icmp &&
             next->operands[0]->kind() == Value::Kind::kConstant &&
             static_cast<const ir::Constant*>(next->operands[0])->value() == 1);
        const ir::Instr* branch = block.instrs[i + 2].get();
        if (wraps_icmp && branch->opcode() == Opcode::kCondBr &&
            branch->operands[0] == next) {
          emit_fused(*icmp, /*inverted=*/true, *branch);
          return 3;
        }
      }
    }
    return 0;
  }

  void emit_fused(const ir::Instr& icmp, bool inverted, const ir::Instr& branch) {
    Pinned pinned = 0;
    const Value* a = icmp.operands[0];
    const Value* b = icmp.operands[1];
    const Width width = width_for(a->type());
    const Reg a_reg = value_to_reg(a, pinned);
    const isa::Operand b_op = value_operand(b, pinned);
    code_.push_back(isa::cmp(a_reg, b_op, width));
    Cond cond = cond_for(icmp.pred);
    if (inverted) cond = isa::invert(cond);
    code_.push_back(isa::jcc(cond, target_label(branch.targets[0])));
    code_.push_back(isa::jmp(target_label(branch.targets[1])));
    emit_fallthrough_guard();
  }

  /// A ud2 after every block-terminating jump: a skip fault on the jump
  /// then traps instead of silently falling into the next block — which
  /// would take a control-flow edge that bypasses the checksum validation
  /// blocks the hardening pass inserted. lower() drops the pair when the
  /// jump's target is that next block (see jumps_to).
  void emit_fallthrough_guard() { code_.push_back(isa::make0(Mnemonic::kUd2)); }

  // ---- per-instruction lowering -------------------------------------------------

  void lower_instr(const ir::Instr& instr) {
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
        lower_binary(instr);
        return;
      case Opcode::kICmp:
        lower_icmp(instr);
        return;
      case Opcode::kZExt:
        // Values are kept zero-extended canonically; zext is a register
        // alias unless the source value is still needed.
        lower_alias(instr, instr.operands[0]);
        return;
      case Opcode::kTrunc: {
        Pinned pinned = 0;
        const Reg src = value_to_reg(instr.operands[0], pinned);
        const Reg dst = dest_for(instr, instr.operands[0], src, pinned);
        if (dst != src) code_.push_back(isa::mov(dst, src, natural()));
        emit_mask(dst, instr.type());
        define(&instr, dst);
        return;
      }
      case Opcode::kSExt: {
        Pinned pinned = 0;
        const Type src_type = instr.operands[0]->type();
        const Reg src = value_to_reg(instr.operands[0], pinned);
        const Reg dst = dest_for(instr, instr.operands[0], src, pinned);
        if (src_type == Type::kI8) {
          code_.push_back(isa::make2(Mnemonic::kMovsx, dst, src, natural()));
        } else if (src_type == Type::kI32 && natural() == Width::b32) {
          // The register already holds the 32-bit image; widening to the
          // machine word is the identity.
          if (dst != src) code_.push_back(isa::mov(dst, src, natural()));
        } else if (src_type == Type::kI32) {
          // The subset has no movsxd: move bit 31 to the top and back.
          if (dst != src) code_.push_back(isa::mov(dst, src, natural()));
          code_.push_back(isa::make2(Mnemonic::kShl, dst, isa::imm(32), natural()));
          code_.push_back(isa::make2(Mnemonic::kSar, dst, isa::imm(32), natural()));
        } else {
          support::fail(ErrorKind::kLower, "unsupported sext source type");
        }
        define(&instr, dst);
        return;
      }
      case Opcode::kSelect: {
        Pinned pinned = 0;
        const Reg cond = value_to_reg(instr.operands[0], pinned);
        const Reg if_true = value_to_reg(instr.operands[1], pinned);
        if (caps_.has_cmov) {
          const isa::Operand if_false = value_operand(instr.operands[2], pinned);
          const Reg dst = alloc_reg(pinned);
          code_.push_back(isa::mov(dst, if_false, natural()));
          code_.push_back(isa::test(cond, cond, natural()));
          Instruction cmov = isa::make2(Mnemonic::kCmovcc, dst, if_true, natural());
          cmov.cond = Cond::ne;
          code_.push_back(cmov);
          define(&instr, dst);
          return;
        }
        // Branch-free mask select: dst = ((t ^ f) & -cond) ^ f. cond is a
        // canonical i1 (0/1), so its negation is the all-ones/all-zeros mask.
        const Reg if_false = value_to_reg(instr.operands[2], pinned);
        const Reg dst = alloc_reg(pinned);
        code_.push_back(isa::mov(kScratch, if_true, natural()));
        code_.push_back(isa::xor_(kScratch, if_false, natural()));
        code_.push_back(isa::mov(dst, cond, natural()));
        code_.push_back(isa::make1(Mnemonic::kNeg, dst, natural()));
        code_.push_back(isa::and_(dst, kScratch, natural()));
        code_.push_back(isa::xor_(dst, if_false, natural()));
        define(&instr, dst);
        return;
      }
      case Opcode::kLoad: {
        Pinned pinned = 0;
        const isa::Operand address = address_operand(instr.operands[0], pinned);
        const Reg dst = alloc_reg(pinned);
        if (instr.type() == Type::kI8) {
          code_.push_back(isa::movzx(dst, address, natural()));
        } else {
          code_.push_back(isa::mov(dst, address, width_for(instr.type())));
        }
        define(&instr, dst);
        return;
      }
      case Opcode::kStore: {
        Pinned pinned = 0;
        const Value* value = instr.operands[0];
        const isa::Operand address = address_operand(instr.operands[1], pinned);
        const Width width = width_for(value->type());
        if (value->kind() == Value::Kind::kConstant && caps_.store_immediate) {
          const auto raw =
              static_cast<std::int64_t>(static_cast<const ir::Constant*>(value)->value());
          if (width == Width::b8 || fits_int32(raw)) {
            code_.push_back(isa::mov(address, isa::imm(raw), width));
            return;
          }
        }
        const Reg reg = value_to_reg(value, pinned);
        code_.push_back(isa::mov(address, reg, width));
        return;
      }
      case Opcode::kBr:
        flush_and_clear();
        code_.push_back(isa::jmp(target_label(instr.targets[0])));
        emit_fallthrough_guard();
        return;
      case Opcode::kCondBr: {
        Pinned pinned = 0;
        const Reg cond = value_to_reg(instr.operands[0], pinned);
        code_.push_back(isa::test(cond, cond, natural()));
        code_.push_back(isa::jcc(Cond::ne, target_label(instr.targets[0])));
        code_.push_back(isa::jmp(target_label(instr.targets[1])));
        emit_fallthrough_guard();
        return;
      }
      case Opcode::kSwitch: {
        Pinned pinned = 0;
        const Reg value = value_to_reg(instr.operands[0], pinned);
        for (std::size_t c = 0; c < instr.case_values.size(); ++c) {
          const auto case_value =
              legal_constant(static_cast<std::int64_t>(instr.case_values[c]));
          if (fits_alu_imm(case_value)) {
            code_.push_back(isa::cmp(value, isa::imm(case_value), natural()));
          } else {
            code_.push_back(isa::mov(kScratch, isa::imm(case_value), natural()));
            code_.push_back(isa::cmp(value, kScratch, natural()));
          }
          code_.push_back(isa::jcc(Cond::e, target_label(instr.targets[c + 1])));
        }
        code_.push_back(isa::jmp(target_label(instr.targets[0])));
        emit_fallthrough_guard();
        return;
      }
      case Opcode::kRet: {
        Instruction epilogue =
            isa::add(Reg::rsp, isa::ImmOperand{0, kEpilogueTag}, natural());
        code_.push_back(std::move(epilogue));
        code_.push_back(isa::ret());
        return;
      }
      case Opcode::kUnreachable:
        code_.push_back(isa::make0(Mnemonic::kUd2));
        return;
      case Opcode::kCall:
        lower_call(instr);
        return;
    }
  }

  /// Defines `instr` as a copy of `source`, reusing source's register when
  /// this is its last use.
  void lower_alias(const ir::Instr& instr, const Value* source) {
    Pinned pinned = 0;
    const Reg src = value_to_reg(source, pinned);
    const Reg dst = dest_for(instr, source, src, pinned);
    if (dst != src) code_.push_back(isa::mov(dst, src, natural()));
    define(&instr, dst);
  }

  /// The operand an `and` keeps whole on a 32-bit machine: the other one
  /// is a constant with all low 32 bits set. nullptr otherwise.
  [[nodiscard]] const Value* low_word_mask_source(const ir::Instr& instr) const {
    if (instr.opcode() != Opcode::kAnd || natural() != Width::b32) return nullptr;
    const auto is_mask = [](const Value* value) {
      return value->kind() == Value::Kind::kConstant &&
             (static_cast<const ir::Constant*>(value)->value() & 0xFFFF'FFFFULL) ==
                 0xFFFF'FFFFULL;
    };
    if (is_mask(instr.operands[1])) return instr.operands[0];
    if (is_mask(instr.operands[0])) return instr.operands[1];
    return nullptr;
  }

  void lower_binary(const ir::Instr& instr) {
    if (const Value* source = low_word_mask_source(instr)) {
      lower_alias(instr, source);
      return;
    }
    Pinned pinned = 0;
    const Value* a = instr.operands[0];
    const Value* b = instr.operands[1];
    const bool is_shift = instr.opcode() == Opcode::kShl ||
                          instr.opcode() == Opcode::kLShr ||
                          instr.opcode() == Opcode::kAShr;
    if (is_shift) {
      check(b->kind() == Value::Kind::kConstant, ErrorKind::kLower,
            "variable shift counts are not generated by the lifter/passes");
    }
    if (instr.opcode() == Opcode::kMul) {
      check(caps_.has_mul, ErrorKind::kLower,
            "this target has no multiply (passes must not synthesize mul)");
    }

    const Reg a_reg = value_to_reg(a, pinned);
    isa::Operand b_op;
    bool negated_sub_imm = false;
    if (is_shift) {
      const auto count = static_cast<const ir::Constant*>(b)->value() & 63;
      check(count < isa::width_bits(natural()), ErrorKind::kLower,
            "shift count exceeds the target word size");
      b_op = isa::imm(static_cast<std::int64_t>(count));
    } else if (instr.opcode() == Opcode::kMul) {
      // Two-operand imul has no immediate form; force a register.
      b_op = value_to_reg(b, pinned);
    } else {
      b_op = value_operand(b, pinned);
      if (instr.opcode() == Opcode::kSub && !caps_.sub_immediate &&
          isa::is_imm(b_op)) {
        // No subtract-immediate on this target: add the negation, or fall
        // back to a register when the negation leaves the immediate range.
        const std::int64_t negated = -std::get<isa::ImmOperand>(b_op).value;
        if (fits_alu_imm(negated)) {
          b_op = isa::imm(negated);
          negated_sub_imm = true;
        } else {
          b_op = value_to_reg(b, pinned);
        }
      }
    }
    const Reg dst = dest_for(instr, a, a_reg, pinned);
    if (dst != a_reg) code_.push_back(isa::mov(dst, a_reg, natural()));
    if (instr.opcode() == Opcode::kXor && isa::is_imm(b_op) &&
        std::get<isa::ImmOperand>(b_op).value == -1) {
      // xor with all-ones is complement; rv32i only spells it as not.
      code_.push_back(isa::make1(Mnemonic::kNot, dst, natural()));
    } else {
      code_.push_back(isa::make2(
          negated_sub_imm ? Mnemonic::kAdd : mnemonic_for(instr.opcode()), dst,
          std::move(b_op), natural()));
    }
    emit_mask(dst, instr.type());
    define(&instr, dst);
  }

  void lower_icmp(const ir::Instr& instr) {
    Pinned pinned = 0;
    const Value* a = instr.operands[0];
    const Value* b = instr.operands[1];
    const Width width = width_for(a->type());
    const Reg a_reg = value_to_reg(a, pinned);
    const isa::Operand b_op = value_operand(b, pinned);
    code_.push_back(isa::cmp(a_reg, b_op, width));
    const Reg dst = alloc_reg(pinned);
    code_.push_back(isa::setcc(cond_for(instr.pred), dst));
    code_.push_back(isa::movzx(dst, dst, natural()));
    define(&instr, dst);
  }

  void lower_call(const ir::Instr& instr) {
    const ir::Function& callee = *instr.callee;
    if (callee.is_intrinsic() && callee.name() == ir::kTrapIntrinsic) {
      code_.push_back(isa::mov(Reg::rax, isa::imm(60), natural()));
      code_.push_back(isa::mov(Reg::rdi, isa::imm(patch::kDetectedExit), natural()));
      code_.push_back(isa::syscall_());
      cache_reset();  // never returns; nothing to preserve
      return;
    }
    if (callee.is_intrinsic() && callee.name() == ir::kSyscallIntrinsic) {
      // Argument values must be reloadable once the cache is dropped.
      for (const Value* arg : instr.operands) ensure_slot_current(arg);
      flush_and_clear();
      const Reg abi[4] = {Reg::rax, Reg::rdi, Reg::rsi, Reg::rdx};
      for (int i = 0; i < 4; ++i) {
        const Value* arg = instr.operands[static_cast<std::size_t>(i)];
        switch (arg->kind()) {
          case Value::Kind::kConstant:
            code_.push_back(isa::mov(
                abi[i],
                isa::imm(legal_constant(static_cast<std::int64_t>(
                    static_cast<const ir::Constant*>(arg)->value()))),
                natural()));
            break;
          case Value::Kind::kGlobal:
            code_.push_back(isa::mov(
                abi[i],
                isa::imm(static_cast<std::int64_t>(
                    static_cast<const ir::GlobalVariable*>(arg)->address)),
                natural()));
            break;
          case Value::Kind::kInstr:
            check(current_slot(arg) >= 0, ErrorKind::kLower,
                  "syscall argument lost before the call");
            code_.push_back(isa::mov(abi[i], slot_operand(arg), natural()));
            break;
        }
      }
      code_.push_back(isa::syscall_());
      define(&instr, Reg::rax);
      return;
    }
    check(!callee.is_intrinsic(), ErrorKind::kLower, "unknown intrinsic: ", callee.name());
    flush_and_clear();
    code_.push_back(isa::call(callee.name()));
  }

  [[nodiscard]] std::string target_label(const ir::BasicBlock* block) const {
    return block_label(*block);
  }

  const ir::Function& fn_;
  bir::Module& out_;
  const isa::LowerCaps& caps_;

  ValueStates& values_;
  std::uint64_t next_slot_ = 0;
  std::vector<Instruction> code_;
  std::array<CacheEntry, isa::kRegCount> cache_{};  ///< by register number
};

}  // namespace

bir::Module lower(const ir::Module& module, const std::vector<bir::DataSection>& guest_data,
                  const LowerOptions& options) {
  bir::Module out;
  out.arch = options.arch;  // .text at bir::Module's default base
  out.entry_symbol = module.entry_function;
  out.globals.push_back(module.entry_function);

  // --- state section -----------------------------------------------------------
  bir::DataSection state;
  state.name = ".r2rstate";
  state.flags = elf::kRead | elf::kWrite;
  state.base = kStateBase;
  std::uint64_t cursor = state.base;
  for (const auto& global : module.globals) {
    bir::DataBlock block;
    block.labels.push_back(global->name());
    block.bytes = global->init();
    block.bytes.resize(global->size(), 0);
    // Pad so the next global lands on a 16-byte boundary.
    block.bytes.resize((block.bytes.size() + 15) & ~std::size_t{15});
    global->address = cursor;  // where assemble() lays the block out
    cursor += block.bytes.size();
    state.blocks.push_back(std::move(block));
  }
  if (!state.blocks.empty()) {
    // The zero tail of the last global (g_stack's 64 KiB) is bss: mem_size
    // maps it, and the ELF carries no bytes for it. assemble() lays blocks
    // end to end, so only the last one can shrink without moving a label.
    state.mem_size = cursor - state.base;
    std::vector<std::uint8_t>& tail = state.blocks.back().bytes;
    tail.erase(std::find_if(tail.rbegin(), tail.rend(), [](std::uint8_t b) { return b != 0; })
                   .base(),
               tail.end());
    out.data_sections.push_back(std::move(state));
  }
  for (const auto& section : guest_data) out.data_sections.push_back(section);

  // --- functions -----------------------------------------------------------------
  ValueStates values;
  for (const auto& fn : module.functions) {
    if (fn->is_intrinsic()) continue;
    FunctionLowerer lowerer(*fn, out, options.arch, values);
    lowerer.lower();
  }
  return out;
}

elf::Image lower_to_image(const ir::Module& module,
                          const std::vector<bir::DataSection>& guest_data,
                          const LowerOptions& options) {
  obs::Span span("lower.lower");
  bir::Module lowered = lower(module, guest_data, options);
  return bir::assemble(lowered);
}

}  // namespace r2r::lower
