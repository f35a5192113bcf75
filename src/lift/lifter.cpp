#include "lift/lifter.h"

#include <map>
#include <set>

#include "bir/cfg.h"
#include "bir/recover.h"
#include "ir/builder.h"
#include "isa/printer.h"
#include "isa/semantics.h"
#include "obs/trace.h"
#include "support/error.h"

namespace r2r::lift {

namespace {

using bir::Cfg;
using ir::BasicBlock;
using ir::Builder;
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

[[noreturn]] void unsupported(const Instruction& instr, const std::string& why) {
  support::fail(ErrorKind::kLift, "cannot lift '" + isa::print(instr) + "': " + why);
}

/// Shared lifting state for one module.
struct LiftState {
  ir::Module module;
  ir::GlobalVariable* gpr[isa::kRegCount] = {};
  ir::GlobalVariable* zf = nullptr;
  ir::GlobalVariable* sf = nullptr;
  ir::GlobalVariable* cf = nullptr;
  ir::GlobalVariable* of = nullptr;
  ir::GlobalVariable* stack = nullptr;
  ir::Function* syscall_fn = nullptr;
  std::map<std::string, std::uint64_t> symbol_addresses;
};

/// Lifts the body of one machine function.
class FunctionLifter {
 public:
  FunctionLifter(LiftState& state, const bir::Module& bmod, const Cfg& cfg,
                 ir::Function& fn, const std::map<std::size_t, std::string>& callees)
      : state_(state), bmod_(bmod), cfg_(cfg), fn_(fn), callees_(callees),
        builder_(state.module) {}

  /// `blocks` are the cfg block ids belonging to this function, in layout
  /// order; `entry_block` is the cfg id of the function head.
  void lift(const std::vector<std::size_t>& blocks, std::size_t entry_block,
            bool is_module_entry) {
    // Create IR blocks first so branches can reference them.
    for (const std::size_t b : blocks) {
      ir_blocks_[b] = fn_.add_block("bb" + std::to_string(b));
    }
    // The entry block must be first (ir::Function::entry()).
    if (fn_.blocks.front().get() != ir_blocks_.at(entry_block)) {
      for (std::size_t i = 0; i < fn_.blocks.size(); ++i) {
        if (fn_.blocks[i].get() == ir_blocks_.at(entry_block)) {
          std::swap(fn_.blocks[0], fn_.blocks[i]);
          break;
        }
      }
    }

    for (const std::size_t b : blocks) {
      builder_.set_insert_point(ir_blocks_.at(b));
      if (is_module_entry && b == entry_block) {
        // Initialize the virtual stack pointer: g_rsp = &stack + size - 16.
        Value* top = builder_.add(
            state_.stack, builder_.const_i64(kGuestStackSize - 16));
        builder_.store(top, state_.gpr[isa::reg_number(Reg::rsp)]);
      }
      lift_block(b);
    }
  }

 private:
  // ---- value helpers -------------------------------------------------------

  Value* c64(std::uint64_t v) { return builder_.const_i64(v); }

  Value* read_reg(Reg reg, Width width) {
    Value* full = builder_.load(Type::kI64, state_.gpr[isa::reg_number(reg)]);
    switch (width) {
      case Width::b8: return builder_.and_(full, c64(0xFF));
      case Width::b16: return builder_.and_(full, c64(0xFFFF));
      case Width::b32: return builder_.and_(full, c64(0xFFFFFFFF));
      case Width::b64: return full;
    }
    return full;
  }

  void write_reg(Reg reg, Width width, Value* value) {
    ir::GlobalVariable* slot = state_.gpr[isa::reg_number(reg)];
    switch (width) {
      case Width::b64:
        builder_.store(value, slot);
        return;
      case Width::b32:
        builder_.store(builder_.and_(value, c64(0xFFFFFFFF)), slot);
        return;
      case Width::b8:
      case Width::b16: {
        const std::uint64_t mask = width == Width::b8 ? 0xFF : 0xFFFF;
        Value* old = builder_.load(Type::kI64, slot);
        Value* kept = builder_.and_(old, c64(~mask));
        Value* low = builder_.and_(value, c64(mask));
        builder_.store(builder_.or_(kept, low), slot);
        return;
      }
    }
  }

  Value* flag_load(ir::GlobalVariable* flag) {
    Value* byte = builder_.load(Type::kI8, flag);
    return builder_.icmp(Pred::kNe, byte, builder_.const_i8(0));
  }

  void flag_store(ir::GlobalVariable* flag, Value* i1_value) {
    builder_.store(builder_.zext(i1_value, Type::kI8), flag);
  }

  Value* effective_address(const isa::MemOperand& mem) {
    std::int64_t disp = mem.disp;
    if (!mem.label.empty()) {
      const auto it = state_.symbol_addresses.find(mem.label);
      check(it != state_.symbol_addresses.end(), ErrorKind::kLift,
            "unresolved symbol in memory operand: ", mem.label);
      disp += static_cast<std::int64_t>(it->second);
    }
    if (mem.rip_relative) return c64(static_cast<std::uint64_t>(disp));
    Value* address = c64(static_cast<std::uint64_t>(disp));
    if (mem.base) {
      address = builder_.add(address, read_reg(*mem.base, Width::b64));
    }
    if (mem.index) {
      Value* index = read_reg(*mem.index, Width::b64);
      address = builder_.add(address, builder_.mul(index, c64(mem.scale)));
    }
    return address;
  }

  Value* read_mem(const isa::MemOperand& mem, Width width) {
    Value* address = effective_address(mem);
    if (width == Width::b8) {
      return builder_.zext(builder_.load(Type::kI8, address), Type::kI64);
    }
    if (width == Width::b32) {
      return builder_.zext(builder_.load(Type::kI32, address), Type::kI64);
    }
    check(width == Width::b64, ErrorKind::kLift, "16-bit memory access unsupported");
    return builder_.load(Type::kI64, address);
  }

  void write_mem(const isa::MemOperand& mem, Width width, Value* value) {
    Value* address = effective_address(mem);
    if (width == Width::b8) {
      builder_.store(builder_.trunc(value, Type::kI8), address);
      return;
    }
    if (width == Width::b32) {
      builder_.store(builder_.trunc(value, Type::kI32), address);
      return;
    }
    check(width == Width::b64, ErrorKind::kLift, "16-bit memory access unsupported");
    builder_.store(value, address);
  }

  Value* imm_value(const isa::ImmOperand& imm, Width width) {
    std::int64_t value = imm.value;
    if (!imm.label.empty()) {
      const auto it = state_.symbol_addresses.find(imm.label);
      check(it != state_.symbol_addresses.end(), ErrorKind::kLift,
            "unresolved symbol immediate: ", imm.label);
      value = static_cast<std::int64_t>(it->second);
    }
    const std::uint64_t raw = static_cast<std::uint64_t>(value);
    const unsigned bits = isa::width_bits(width);
    return c64(bits >= 64 ? raw : raw & ((std::uint64_t{1} << bits) - 1));
  }

  Value* read_operand(const isa::Operand& op, Width width) {
    if (isa::is_reg(op)) return read_reg(std::get<Reg>(op), width);
    if (isa::is_imm(op)) return imm_value(std::get<isa::ImmOperand>(op), width);
    if (isa::is_mem(op)) return read_mem(std::get<isa::MemOperand>(op), width);
    support::fail(ErrorKind::kLift, "label operand in data position");
  }

  void write_operand(const isa::Operand& op, Width width, Value* value) {
    if (isa::is_reg(op)) {
      write_reg(std::get<Reg>(op), width, value);
      return;
    }
    check(isa::is_mem(op), ErrorKind::kLift, "bad destination operand");
    write_mem(std::get<isa::MemOperand>(op), width, value);
  }

  // ---- flag materialization ------------------------------------------------

  Value* sign_bit(Value* value, Width width) {
    // (value >> (n-1)) & 1 != 0 at the operation width.
    Value* shifted = builder_.lshr(value, c64(isa::width_bits(width) - 1));
    return builder_.icmp(Pred::kNe, builder_.and_(shifted, c64(1)), c64(0));
  }

  Value* width_truncate(Value* value, Width width) {
    if (width == Width::b64) return value;
    const std::uint64_t mask = (std::uint64_t{1} << isa::width_bits(width)) - 1;
    return builder_.and_(value, c64(mask));
  }

  void set_result_flags(Value* result, Width width) {
    flag_store(state_.zf, builder_.icmp(Pred::kEq, width_truncate(result, width), c64(0)));
    flag_store(state_.sf, sign_bit(result, width));
  }

  void set_add_flags(Value* a, Value* b, Value* result, Width width) {
    set_result_flags(result, width);
    flag_store(state_.cf, builder_.icmp(Pred::kUlt, width_truncate(result, width),
                                        width_truncate(a, width)));
    // of = msb((a ^ ~b) & (a ^ r))
    Value* nb = builder_.not_(b);
    Value* left = builder_.xor_(a, nb);
    Value* right = builder_.xor_(a, result);
    flag_store(state_.of, sign_bit(builder_.and_(left, right), width));
  }

  void set_sub_flags(Value* a, Value* b, Value* result, Width width) {
    set_result_flags(result, width);
    flag_store(state_.cf, builder_.icmp(Pred::kUlt, width_truncate(a, width),
                                        width_truncate(b, width)));
    Value* left = builder_.xor_(a, b);
    Value* right = builder_.xor_(a, result);
    flag_store(state_.of, sign_bit(builder_.and_(left, right), width));
  }

  void set_logic_flags(Value* result, Width width) {
    set_result_flags(result, width);
    flag_store(state_.cf, builder_.const_i1(false));
    flag_store(state_.of, builder_.const_i1(false));
  }

  Value* condition_value(Cond cond) {
    switch (cond) {
      case Cond::e: return flag_load(state_.zf);
      case Cond::ne: return builder_.not_(flag_load(state_.zf));
      case Cond::b: return flag_load(state_.cf);
      case Cond::ae: return builder_.not_(flag_load(state_.cf));
      case Cond::be: return builder_.or_(flag_load(state_.cf), flag_load(state_.zf));
      case Cond::a:
        return builder_.not_(builder_.or_(flag_load(state_.cf), flag_load(state_.zf)));
      case Cond::s: return flag_load(state_.sf);
      case Cond::ns: return builder_.not_(flag_load(state_.sf));
      case Cond::o: return flag_load(state_.of);
      case Cond::no: return builder_.not_(flag_load(state_.of));
      case Cond::l:
        return builder_.xor_(flag_load(state_.sf), flag_load(state_.of));
      case Cond::ge:
        return builder_.not_(
            builder_.xor_(flag_load(state_.sf), flag_load(state_.of)));
      case Cond::le:
        return builder_.or_(flag_load(state_.zf),
                            builder_.xor_(flag_load(state_.sf), flag_load(state_.of)));
      case Cond::g:
        return builder_.and_(
            builder_.not_(flag_load(state_.zf)),
            builder_.not_(builder_.xor_(flag_load(state_.sf), flag_load(state_.of))));
      default:
        support::fail(ErrorKind::kLift, "unsupported condition code (parity)");
    }
  }

  // ---- stack helpers ---------------------------------------------------------

  void push_value(Value* value) {
    ir::GlobalVariable* rsp = state_.gpr[isa::reg_number(Reg::rsp)];
    Value* old = builder_.load(Type::kI64, rsp);
    Value* fresh = builder_.sub(old, c64(8));
    builder_.store(fresh, rsp);
    builder_.store(value, fresh);
  }

  Value* pop_value() {
    ir::GlobalVariable* rsp = state_.gpr[isa::reg_number(Reg::rsp)];
    Value* old = builder_.load(Type::kI64, rsp);
    Value* value = builder_.load(Type::kI64, old);
    builder_.store(builder_.add(old, c64(8)), rsp);
    return value;
  }

  // ---- block lifting -----------------------------------------------------------

  BasicBlock* block_for_label(const std::string& label) {
    const auto item = bmod_.index_of_label(label);
    check(item.has_value(), ErrorKind::kLift, "branch to unknown label ", label);
    const auto block = cfg_.block_of_item(*item);
    check(block.has_value(), ErrorKind::kLift, "label outside any block: ", label);
    const auto it = ir_blocks_.find(*block);
    check(it != ir_blocks_.end(), ErrorKind::kLift, "branch target ", label,
          " belongs to another function");
    return it->second;
  }

  void lift_block(std::size_t block_id) {
    const bir::BasicBlock& block = cfg_.blocks[block_id];
    check(!block.is_raw, ErrorKind::kLift, "cannot lift raw bytes");

    // Tracks whether the most recent write to rax in this block was the
    // constant 60 — used to spot the exit syscall (see lifter.h notes).
    std::optional<std::uint64_t> last_rax_constant;
    bool terminated = false;

    for (std::size_t i = block.first_item; i <= block.last_item && !terminated; ++i) {
      const bir::CodeItem& item = bmod_.text[i];
      if (!item.is_instruction()) continue;
      const Instruction& instr = *item.instr;

      // Snapshot the tracked value before updating it, so the syscall case
      // sees the rax constant established by *preceding* instructions.
      const std::optional<std::uint64_t> rax_before = last_rax_constant;
      if (instr.mnemonic == Mnemonic::kMov && instr.arity() == 2 &&
          isa::is_reg(instr.op(0)) && std::get<Reg>(instr.op(0)) == Reg::rax &&
          isa::is_imm(instr.op(1)) &&
          std::get<isa::ImmOperand>(instr.op(1)).label.empty()) {
        last_rax_constant =
            static_cast<std::uint64_t>(std::get<isa::ImmOperand>(instr.op(1)).value);
      } else if (writes_rax(instr)) {
        last_rax_constant.reset();
      }

      terminated = lift_instruction(instr, rax_before);
    }

    if (!terminated) {
      // Fall-through edge.
      check(block.successors.size() <= 1, ErrorKind::kLift,
            "unterminated block with multiple successors");
      if (block.successors.empty()) {
        builder_.unreachable();
      } else {
        const auto it = ir_blocks_.find(block.successors.front());
        check(it != ir_blocks_.end(), ErrorKind::kLift,
              "fall-through into another function");
        builder_.br(it->second);
      }
    }
  }

  static bool writes_rax(const Instruction& instr) {
    if (instr.mnemonic == Mnemonic::kSyscall) return true;
    if (instr.arity() == 0) return false;
    if (!isa::is_reg(instr.op(0))) return false;
    if (std::get<Reg>(instr.op(0)) != Reg::rax) return false;
    switch (instr.mnemonic) {
      case Mnemonic::kCmp:
      case Mnemonic::kTest:
      case Mnemonic::kPush:
        return false;
      default:
        return true;
    }
  }

  /// Returns true if the instruction terminated the IR block.
  bool lift_instruction(const Instruction& instr,
                        std::optional<std::uint64_t> last_rax_constant) {
    const Width w = instr.width;
    switch (instr.mnemonic) {
      case Mnemonic::kMov:
        write_operand(instr.op(0), w, read_operand(instr.op(1), w));
        return false;
      case Mnemonic::kMovzx:
        write_operand(instr.op(0), w, read_operand(instr.op(1), Width::b8));
        return false;
      case Mnemonic::kMovsx: {
        Value* narrow = builder_.trunc(read_operand(instr.op(1), Width::b8), Type::kI8);
        write_operand(instr.op(0), w, builder_.sext(narrow, Type::kI64));
        return false;
      }
      case Mnemonic::kLea:
        write_reg(std::get<Reg>(instr.op(0)), w,
                  effective_address(std::get<isa::MemOperand>(instr.op(1))));
        return false;

      case Mnemonic::kAdd:
      case Mnemonic::kSub: {
        Value* a = read_operand(instr.op(0), w);
        Value* b = read_operand(instr.op(1), w);
        Value* r = instr.mnemonic == Mnemonic::kAdd ? builder_.add(a, b)
                                                    : builder_.sub(a, b);
        r = width_truncate(r, w);
        if (instr.mnemonic == Mnemonic::kAdd) {
          set_add_flags(a, b, r, w);
        } else {
          set_sub_flags(a, b, r, w);
        }
        write_operand(instr.op(0), w, r);
        return false;
      }
      case Mnemonic::kCmp: {
        Value* a = read_operand(instr.op(0), w);
        Value* b = read_operand(instr.op(1), w);
        set_sub_flags(a, b, width_truncate(builder_.sub(a, b), w), w);
        return false;
      }
      case Mnemonic::kAnd:
      case Mnemonic::kOr:
      case Mnemonic::kXor:
      case Mnemonic::kTest: {
        // The xor-same-register zeroing idiom neither depends on the old
        // value nor (architecturally) reads it: lift as a constant write
        // so downstream analyses (call-guard, folding) see the truth.
        if (instr.mnemonic == Mnemonic::kXor && isa::is_reg(instr.op(0)) &&
            isa::is_reg(instr.op(1)) &&
            std::get<Reg>(instr.op(0)) == std::get<Reg>(instr.op(1))) {
          set_logic_flags(c64(0), w);
          write_reg(std::get<Reg>(instr.op(0)), w, c64(0));
          return false;
        }
        Value* a = read_operand(instr.op(0), w);
        Value* b = read_operand(instr.op(1), w);
        Value* r = nullptr;
        switch (instr.mnemonic) {
          case Mnemonic::kAnd:
          case Mnemonic::kTest: r = builder_.and_(a, b); break;
          case Mnemonic::kOr: r = builder_.or_(a, b); break;
          default: r = builder_.xor_(a, b); break;
        }
        r = width_truncate(r, w);
        set_logic_flags(r, w);
        if (instr.mnemonic != Mnemonic::kTest) write_operand(instr.op(0), w, r);
        return false;
      }
      case Mnemonic::kNot: {
        Value* a = read_operand(instr.op(0), w);
        write_operand(instr.op(0), w, width_truncate(builder_.not_(a), w));
        return false;
      }
      case Mnemonic::kNeg: {
        Value* a = read_operand(instr.op(0), w);
        Value* r = width_truncate(builder_.sub(c64(0), a), w);
        set_sub_flags(c64(0), a, r, w);
        flag_store(state_.cf,
                   builder_.icmp(Pred::kNe, width_truncate(a, w), c64(0)));
        write_operand(instr.op(0), w, r);
        return false;
      }
      case Mnemonic::kInc:
      case Mnemonic::kDec: {
        Value* a = read_operand(instr.op(0), w);
        const bool inc = instr.mnemonic == Mnemonic::kInc;
        Value* r = width_truncate(inc ? builder_.add(a, c64(1)) : builder_.sub(a, c64(1)), w);
        // inc/dec preserve CF: simply leave the CF slot untouched (writing
        // the re-loaded value back would create a false read that defeats
        // dead-flag-store elimination).
        set_result_flags(r, w);
        Value* ovf = inc ? builder_.icmp(Pred::kEq, width_truncate(r, w),
                                         c64(std::uint64_t{1}
                                             << (isa::width_bits(w) - 1)))
                         : builder_.icmp(Pred::kEq, width_truncate(a, w),
                                         c64(std::uint64_t{1}
                                             << (isa::width_bits(w) - 1)));
        flag_store(state_.of, ovf);
        write_operand(instr.op(0), w, r);
        return false;
      }
      case Mnemonic::kImul: {
        Value* a = read_operand(instr.op(0), w);
        Value* b = read_operand(instr.op(1), w);
        Value* r = width_truncate(builder_.mul(a, b), w);
        set_result_flags(r, w);
        // Overflow flags approximated (see lifter.h); the guests rewrite
        // flags before any branch after imul.
        flag_store(state_.cf, builder_.const_i1(false));
        flag_store(state_.of, builder_.const_i1(false));
        write_operand(instr.op(0), w, r);
        return false;
      }
      case Mnemonic::kShl:
      case Mnemonic::kShr:
      case Mnemonic::kSar: {
        check(isa::is_imm(instr.op(1)), ErrorKind::kLift, "shift count must be immediate");
        const auto count = static_cast<unsigned>(
            std::get<isa::ImmOperand>(instr.op(1)).value &
            (w == Width::b64 ? 63 : 31));
        Value* a = read_operand(instr.op(0), w);
        if (count == 0) return false;  // flags unchanged, value unchanged
        Value* r = nullptr;
        const unsigned bits = isa::width_bits(w);
        if (instr.mnemonic == Mnemonic::kShl) {
          r = width_truncate(builder_.shl(a, c64(count)), w);
          const unsigned cf_bit = bits - count;
          flag_store(state_.cf,
                     builder_.icmp(Pred::kNe,
                                   builder_.and_(builder_.lshr(a, c64(cf_bit)), c64(1)),
                                   c64(0)));
          if (count == 1) {
            flag_store(state_.of,
                       builder_.xor_(sign_bit(r, w), flag_load(state_.cf)));
          } else {
            flag_store(state_.of, builder_.const_i1(false));
          }
        } else if (instr.mnemonic == Mnemonic::kShr) {
          r = builder_.lshr(width_truncate(a, w), c64(count));
          flag_store(state_.cf,
                     builder_.icmp(Pred::kNe,
                                   builder_.and_(builder_.lshr(a, c64(count - 1)), c64(1)),
                                   c64(0)));
          flag_store(state_.of,
                     count == 1 ? sign_bit(a, w) : builder_.const_i1(false));
        } else {  // sar
          check(w != Width::b16, ErrorKind::kLift, "sar width unsupported");
          Value* widened = a;
          if (w == Width::b32) {
            widened = builder_.sext(builder_.trunc(a, Type::kI32), Type::kI64);
          } else if (w == Width::b8) {
            widened = builder_.sext(builder_.trunc(a, Type::kI8), Type::kI64);
          }
          r = width_truncate(builder_.ashr(widened, c64(count)), w);
          flag_store(state_.cf,
                     builder_.icmp(Pred::kNe,
                                   builder_.and_(builder_.lshr(widened, c64(count - 1)),
                                                 c64(1)),
                                   c64(0)));
          flag_store(state_.of, builder_.const_i1(false));
        }
        set_result_flags(r, w);
        write_operand(instr.op(0), w, r);
        return false;
      }

      case Mnemonic::kPush:
        push_value(read_operand(instr.op(0), Width::b64));
        return false;
      case Mnemonic::kPop:
        write_reg(std::get<Reg>(instr.op(0)), Width::b64, pop_value());
        return false;

      case Mnemonic::kJmp: {
        check(isa::is_label(instr.op(0)), ErrorKind::kLift, "indirect jump");
        builder_.br(block_for_label(std::get<isa::LabelOperand>(instr.op(0)).name));
        return true;
      }
      case Mnemonic::kJcc: {
        check(isa::is_label(instr.op(0)), ErrorKind::kLift, "indirect jcc");
        Value* cond = condition_value(instr.cond);
        BasicBlock* taken =
            block_for_label(std::get<isa::LabelOperand>(instr.op(0)).name);
        BasicBlock* fall = fallthrough_block();
        builder_.cond_br(cond, taken, fall);
        return true;
      }
      case Mnemonic::kCall: {
        check(isa::is_label(instr.op(0)), ErrorKind::kLift, "indirect call");
        const std::string& callee_label = std::get<isa::LabelOperand>(instr.op(0)).name;
        ir::Function* callee = state_.module.find_function(callee_label);
        check(callee != nullptr, ErrorKind::kLift, "call target not lifted as a function: ",
              callee_label);
        builder_.call(callee);
        return false;
      }
      case Mnemonic::kRet:
        builder_.ret();
        return true;

      case Mnemonic::kSetcc: {
        Value* cond = condition_value(instr.cond);
        write_operand(instr.op(0), Width::b8, builder_.zext(cond, Type::kI64));
        return false;
      }
      case Mnemonic::kCmovcc: {
        Value* cond = condition_value(instr.cond);
        Value* current = read_reg(std::get<Reg>(instr.op(0)), w);
        Value* alternative = read_operand(instr.op(1), w);
        write_reg(std::get<Reg>(instr.op(0)), w,
                  builder_.select(cond, alternative, current));
        return false;
      }

      case Mnemonic::kSyscall: {
        Value* number = read_reg(Reg::rax, Width::b64);
        Value* a0 = read_reg(Reg::rdi, Width::b64);
        Value* a1 = read_reg(Reg::rsi, Width::b64);
        Value* a2 = read_reg(Reg::rdx, Width::b64);
        Value* result = builder_.call(state_.syscall_fn, {number, a0, a1, a2});
        write_reg(Reg::rax, Width::b64, result);
        if (last_rax_constant == 60) {
          // exit(2): nothing after this is reachable.
          builder_.unreachable();
          return true;
        }
        return false;
      }

      case Mnemonic::kNop:
        return false;

      case Mnemonic::kHlt:
      case Mnemonic::kUd2:
      case Mnemonic::kInt3:
        builder_.unreachable();
        return true;

      default:
        unsupported(instr, "outside the liftable subset");
    }
  }

  BasicBlock* fallthrough_block() {
    // The lexically next cfg block of the current bir block.
    const BasicBlock* current = builder_.insert_point();
    for (const auto& [cfg_id, ir_block] : ir_blocks_) {
      if (ir_block == current) {
        const bir::BasicBlock& block = cfg_.blocks[cfg_id];
        // The fall-through successor is the one starting right after us.
        for (const std::size_t succ : block.successors) {
          if (cfg_.blocks[succ].first_item == block.last_item + 1) {
            const auto it = ir_blocks_.find(succ);
            check(it != ir_blocks_.end(), ErrorKind::kLift,
                  "fall-through into another function");
            return it->second;
          }
        }
      }
    }
    support::fail(ErrorKind::kLift, "conditional branch without fall-through block");
  }

  LiftState& state_;
  const bir::Module& bmod_;
  const Cfg& cfg_;
  ir::Function& fn_;
  const std::map<std::size_t, std::string>& callees_;
  Builder builder_;
  std::map<std::size_t, BasicBlock*> ir_blocks_;
};

/// True if the block ends the program (a syscall statically known to be
/// exit(2): `mov rax, 60` in the same block before the syscall, with no
/// rax redefinition in between).
bool is_exit_block(const bir::Module& bmod, const bir::BasicBlock& block) {
  std::optional<std::uint64_t> last_rax_constant;
  for (std::size_t i = block.first_item; i <= block.last_item; ++i) {
    const bir::CodeItem& item = bmod.text[i];
    if (!item.is_instruction()) continue;
    const Instruction& instr = *item.instr;
    if (instr.mnemonic == Mnemonic::kMov && instr.arity() == 2 &&
        isa::is_reg(instr.op(0)) && std::get<Reg>(instr.op(0)) == Reg::rax &&
        isa::is_imm(instr.op(1))) {
      last_rax_constant =
          static_cast<std::uint64_t>(std::get<isa::ImmOperand>(instr.op(1)).value);
    } else if (instr.mnemonic == Mnemonic::kSyscall) {
      if (last_rax_constant == 60) return true;
      last_rax_constant.reset();
    }
  }
  return false;
}

}  // namespace

LiftResult lift(const elf::Image& image) {
  obs::Span span("lift.lift");
  bir::Module bmod = bir::recover(image);
  const Cfg cfg = bir::build_cfg(bmod);

  LiftResult result;
  result.guest_data = bmod.data_sections;

  LiftState state;
  for (unsigned i = 0; i < isa::kRegCount; ++i) {
    state.gpr[i] = state.module.add_global(
        "g_" + std::string(isa::reg_name(isa::reg_from_number(i))), 8);
  }
  state.zf = state.module.add_global("g_zf", 1);
  state.sf = state.module.add_global("g_sf", 1);
  state.cf = state.module.add_global("g_cf", 1);
  state.of = state.module.add_global("g_of", 1);
  state.stack = state.module.add_global("g_stack", kGuestStackSize);
  state.syscall_fn =
      state.module.get_intrinsic(ir::kSyscallIntrinsic, Type::kI64, 4);
  for (const auto& symbol : image.symbols) {
    state.symbol_addresses[symbol.name] = symbol.value;
  }

  // --- discover function heads: entry + every direct call target -------------
  std::map<std::size_t, std::string> heads;  // cfg block id -> name
  const auto head_block_of_label = [&](const std::string& label) {
    const auto item = bmod.index_of_label(label);
    check(item.has_value(), ErrorKind::kLift, "unknown function label: ", label);
    const auto block = cfg.block_of_item(*item);
    check(block.has_value(), ErrorKind::kLift, "function label outside blocks");
    return *block;
  };
  heads[head_block_of_label(bmod.entry_symbol)] = bmod.entry_symbol;
  for (const auto& item : bmod.text) {
    if (!item.is_instruction()) continue;
    if (item.instr->mnemonic != Mnemonic::kCall) continue;
    check(isa::is_label(item.instr->op(0)), ErrorKind::kLift, "indirect call");
    const std::string& label = std::get<isa::LabelOperand>(item.instr->op(0)).name;
    heads[head_block_of_label(label)] = label;
  }

  // --- partition blocks per function (reachability over non-call edges) -------
  std::map<std::size_t, std::vector<std::size_t>> function_blocks;
  for (const auto& [head, name] : heads) {
    std::set<std::size_t> visited;
    std::vector<std::size_t> worklist{head};
    while (!worklist.empty()) {
      const std::size_t block_id = worklist.back();
      worklist.pop_back();
      if (!visited.insert(block_id).second) continue;
      const bir::BasicBlock& block = cfg.blocks[block_id];
      check(!block.ends_in_indirect, ErrorKind::kLift, "indirect jump in function");
      if (is_exit_block(bmod, block)) continue;  // exit(2): no successors
      for (const std::size_t succ : block.successors) worklist.push_back(succ);
    }
    std::vector<std::size_t> ordered(visited.begin(), visited.end());
    function_blocks[head] = std::move(ordered);
  }

  // --- create functions, then lift bodies -------------------------------------
  for (const auto& [head, name] : heads) {
    state.module.add_function(name);
  }
  for (const auto& [head, name] : heads) {
    ir::Function* fn = state.module.find_function(name);
    FunctionLifter lifter(state, bmod, cfg, *fn, heads);
    lifter.lift(function_blocks.at(head), head, name == bmod.entry_symbol);
  }
  state.module.entry_function = bmod.entry_symbol;

  result.module = std::move(state.module);
  return result;
}

}  // namespace r2r::lift
