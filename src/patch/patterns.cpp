#include "patch/patterns.h"

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "isa/semantics.h"
#include "isa/target.h"
#include "support/error.h"

namespace r2r::patch {

namespace {

using isa::Cond;
using isa::Instruction;
using isa::Mnemonic;
using isa::Reg;
using isa::Width;

/// Marks the items inserted in [first, last) as countermeasure code.
void mark_synthesized(bir::Module& module, std::size_t first, std::size_t count) {
  for (std::size_t i = first; i < first + count && i < module.text.size(); ++i) {
    module.text[i].synthesized = true;
  }
}

/// Label on the item after `index`, appending a terminal nop if the module
/// ends there (patterns need a continuation point to attach a label to).
std::string continuation_label(bir::Module& module, std::size_t index) {
  if (index + 1 >= module.text.size()) {
    module.insert_before(module.text.size(), {isa::nop()}, false);
    module.text.back().synthesized = true;
  }
  return module.label_for_index(index + 1);
}

/// The register (if any) that a register destination clobbers inside its
/// own source-address computation, e.g. `mov rdi, [rdi]`, `mov rax,
/// [rbx+rax]` or `and rax, [rax]`. Re-executing such an instruction reads
/// a different address, so it is not idempotent.
std::optional<Reg> aliased_address_reg(const Instruction& instr) {
  if (instr.arity() != 2 || !isa::is_reg(instr.op(0)) || !isa::is_mem(instr.op(1))) {
    return std::nullopt;
  }
  const Reg dst = std::get<Reg>(instr.op(0));
  const auto& mem = std::get<isa::MemOperand>(instr.op(1));
  if ((mem.base && *mem.base == dst) || (mem.index && *mem.index == dst)) return dst;
  return std::nullopt;
}

/// Stack-model scratch registers, in the order Tables I and II take them.
constexpr Reg kScratchOrder[] = {Reg::rbx, Reg::rax, Reg::rcx, Reg::rdx, Reg::rsi,
                                 Reg::rdi, Reg::r8,  Reg::r9,  Reg::r10, Reg::r11};
/// Table III's set<cond> register on the stack model (the paper's rcx).
constexpr Reg kSetccScratch[] = {Reg::rcx};

/// The state a pattern clobbers, kept and given back in one place. A body
/// emits its instructions through a frame, and only the frame reads how
/// the target keeps that state (PatternTraits):
///  - stack model (x86-64): flags are kept with pushfq and scratch
///    registers with push; the first push of a region opens the red zone
///    where the region opened, and close() pops last in first out and
///    closes it again.
///  - register model (rv32i): flags are kept in the reserved flag scratch
///    through mvflags/wrflags, and the reserved value scratches are handed
///    out unsaved, so an instruction that names one is refused.
/// On both, cmp() rewrites the operands the target's cmp cannot take.
class Frame {
 public:
  Frame(const bir::Module& module, const Instruction& original)
      : target_(isa::target(module.arch)),
        traits_(target_.pattern_traits()),
        stack_(traits_.flag_save == isa::PatternTraits::FlagSave::kStack) {
    const isa::Effects fx = isa::effects(original, target_);
    used_ = fx.reads | fx.writes;
  }

  /// True when the original reads or writes `reg`.
  [[nodiscard]] bool uses(Reg reg) const { return (used_ & isa::reg_bit(reg)) != 0; }
  /// False when the original uses a register the frame clobbers unsaved.
  [[nodiscard]] bool usable() const {
    return stack_ || !(uses(traits_.flag_scratch) || uses(traits_.value_scratch_a) ||
                       uses(traits_.value_scratch_b));
  }
  /// True once the open region has pushed: rsp has moved.
  [[nodiscard]] bool pushed() const { return stack_ && !restores_.empty(); }
  /// True when close() gives anything back.
  [[nodiscard]] bool keeps_state() const { return !restores_.empty(); }

  void emit(Instruction instr) { seq_.push_back(std::move(instr)); }
  /// Labels the next instruction emitted.
  void label(std::string name) { labels_.emplace_back(seq_.size(), std::move(name)); }

  /// Starts a region whose kept state close() gives back. Its first push
  /// inserts the red-zone step here, so the body labels nothing between
  /// open() and that push.
  void open() { region_ = seq_.size(); }

  /// Keeps the flags until close().
  void save_flags() {
    if (stack_) {
      push(isa::pushfq(), isa::popfq());
    } else {
      emit(isa::read_flags(traits_.flag_scratch, natural_width()));
      restores_.push_back(isa::write_flags(traits_.flag_scratch, natural_width()));
    }
  }

  /// A register the pattern may clobber: on the stack model the first of
  /// `candidates` the original does not use, pushed until close();
  /// on the register model value scratch A. A region takes one.
  Reg scratch(std::span<const Reg> candidates = kScratchOrder) {
    if (!stack_) return traits_.value_scratch_a;
    for (const Reg reg : candidates) {
      if (uses(reg)) continue;
      push(isa::push(reg), isa::pop(reg));
      return reg;
    }
    support::fail(support::ErrorKind::kRewrite, "no scratch register available");
  }

  /// A copy of `reg` that outlives the original instruction: a pushed
  /// scratch on the stack model, value scratch B on the register model
  /// (cmp() rewrites through A).
  Reg keep(Reg reg) {
    const Reg copy = stack_ ? scratch() : traits_.value_scratch_b;
    emit(isa::mov(copy, reg, natural_width()));
    return copy;
  }

  /// cmp lhs, rhs at `width`. An operand the target's cmp cannot take is
  /// loaded into a scratch first: an immediate at the register's width, a
  /// memory operand at the compared width.
  void cmp(const isa::Operand& lhs, const isa::Operand& rhs, Width width) {
    const auto unfit = [this](const isa::Operand& op) {
      if (isa::is_imm(op)) {
        // x86-64 has no imm64 compare (a symbol resolves below 2^31 there);
        // the register model compares small immediates and no symbols.
        const auto& imm = std::get<isa::ImmOperand>(op);
        if (!imm.label.empty()) return !stack_;
        const isa::LowerCaps& caps = target_.lower_caps();
        return imm.value < caps.min_alu_imm || imm.value > caps.max_alu_imm;
      }
      return !stack_ && isa::is_mem(op);
    };
    const auto load = [&](const isa::Operand& op) {
      const Reg reg = scratch();
      emit(isa::mov(reg, op, isa::is_mem(op) ? width : natural_width()));
      return reg;
    };
    if (unfit(rhs)) {
      const Reg reg = load(rhs);
      emit(isa::cmp(lhs, reg, width));
    } else if (unfit(lhs)) {
      emit(isa::cmp(load(lhs), rhs, width));
    } else {
      emit(isa::cmp(lhs, rhs, width));
    }
  }

  /// Table II's check: reads the flags into `work` and compares them with
  /// the flags save_flags() kept.
  void cmp_flags_with_saved(Reg work) {
    if (stack_) {
      emit(isa::pushfq());
      emit(isa::pop(work));
      emit(isa::cmp(work, isa::mem(Reg::rsp, 0)));  // the kept flags are on top
    } else {
      emit(isa::read_flags(work, natural_width()));
      emit(isa::cmp(traits_.flag_scratch, work, natural_width()));
    }
  }

  /// Gives back what the region kept, last in first out.
  void close() {
    for (auto it = restores_.rbegin(); it != restores_.rend(); ++it) emit(*it);
    if (red_zone_) emit(isa::lea(Reg::rsp, isa::mem(Reg::rsp, 128)));
    restores_.clear();
    red_zone_ = false;
  }

  /// Writes the sequence into the module in place of item `index`, or
  /// after it, marks it synthesized and places its labels.
  PatternKind commit(bir::Module& module, std::size_t index, bool in_place, PatternKind kind) {
    const std::size_t first = in_place ? index : index + 1;
    const std::size_t count = seq_.size();
    if (in_place) {
      module.replace(index, std::move(seq_));
    } else {
      module.insert_after(index, std::move(seq_));
    }
    for (auto& [at, name] : labels_) module.add_label(first + at, std::move(name));
    mark_synthesized(module, first, count);
    return kind;
  }

 private:
  [[nodiscard]] Width natural_width() const { return target_.natural_width(); }

  void push(Instruction instr, Instruction restore) {
    if (!red_zone_) {
      seq_.insert(seq_.begin() + static_cast<std::ptrdiff_t>(region_),
                  isa::lea(Reg::rsp, isa::mem(Reg::rsp, -128)));
      red_zone_ = true;
    }
    emit(std::move(instr));
    restores_.push_back(std::move(restore));
  }

  const isa::Target& target_;
  const isa::PatternTraits& traits_;
  bool stack_;
  isa::RegSet used_ = 0;                ///< registers the original reads or writes
  std::vector<Instruction> seq_;
  std::vector<std::pair<std::size_t, std::string>> labels_;  ///< (position, name)
  std::vector<Instruction> restores_;   ///< what close() emits, in reverse
  std::size_t region_ = 0;              ///< where the open region starts
  bool red_zone_ = false;               ///< the open region moved rsp by -128
};

/// Table I: re-read the moved value and compare it with the destination
/// (reg<-mem compares reg vs mem, mem<-reg mem vs reg, an immediate source
/// compares against the immediate again), je happyflow, else call the
/// fault handler. A load whose destination feeds its own address (`mov
/// rdi, [rdi]`) is replaced instead: the address is copied before the
/// load, so the re-read uses the original address.
PatternKind apply_mov(bir::Module& module, std::size_t index) {
  const Instruction original = *module.text[index].instr;
  Frame frame(module, original);
  if (!frame.usable()) return PatternKind::kNone;
  const std::optional<Reg> aliased = aliased_address_reg(original);
  const bool save_flags = flags_live_after(module, index);

  frame.open();
  if (save_flags) frame.save_flags();  // mov writes no flags; the compare does
  isa::Operand source = original.op(1);
  if (aliased) {
    const Reg copy = frame.keep(*aliased);
    frame.emit(original);
    auto& reread = std::get<isa::MemOperand>(source);
    if (reread.base == aliased) reread.base = copy;
    if (reread.index == aliased) reread.index = copy;
  }
  frame.cmp(original.op(0), source, original.width);
  // A push moves rsp under an rsp-relative re-read, and the aliased form
  // copies its address before the load; such sites stay unprotected
  // (reported upstream).
  if (frame.uses(Reg::rsp) && (aliased || frame.pushed())) return PatternKind::kNone;

  const std::string handler = ensure_fault_handler(module);
  const bool restores = frame.keeps_state();
  const std::string resume =
      restores ? module.fresh_label("movok") : continuation_label(module, index);
  frame.emit(isa::jcc(Cond::e, resume));
  frame.emit(isa::call(handler));
  if (restores) frame.label(resume);
  frame.close();
  return frame.commit(module, index, /*in_place=*/aliased.has_value(), PatternKind::kMov);
}

PatternKind apply_movzx(bir::Module& module, std::size_t index) {
  // movzx dst, src8 — verify the low byte of dst against the source again.
  // (Extension of the Table I idea to the zero-extending load; the upper
  // bits are architecturally zero after movzx.) Unlike the mov pattern this
  // one has no flags-preserving variant, so live flags disqualify it.
  if (flags_live_after(module, index)) return PatternKind::kNone;
  const Instruction original = *module.text[index].instr;
  Frame frame(module, original);
  if (!frame.usable()) return PatternKind::kNone;
  const std::string handler = ensure_fault_handler(module);
  const std::string happyflow = continuation_label(module, index);
  frame.cmp(original.op(0), original.op(1), Width::b8);
  frame.emit(isa::jcc(Cond::e, happyflow));
  frame.emit(isa::call(handler));
  return frame.commit(module, index, /*in_place=*/false, PatternKind::kMovzx);
}

/// Table II (scratch register generalized from the paper's rbx): run the
/// compare twice, keeping the first flags, compare both flag images and
/// restore the first.
PatternKind apply_cmp(bir::Module& module, std::size_t index) {
  const Instruction original = *module.text[index].instr;
  Frame frame(module, original);
  if (!frame.usable()) return PatternKind::kNone;
  const std::string handler = ensure_fault_handler(module);
  const std::string restore = module.fresh_label("restore");

  frame.open();
  frame.emit(original);
  const Reg work = frame.scratch();
  frame.save_flags();
  frame.emit(original);
  frame.cmp_flags_with_saved(work);
  frame.emit(isa::jcc(Cond::e, restore));
  frame.emit(isa::call(handler));
  frame.label(restore);
  frame.close();
  // Third, authoritative execution of the comparison. Without it, skipping
  // the flag restore would leave the flags of the internal consistency
  // compare (always "equal") for the consumer branch — itself a skip
  // vulnerability. With it, skipping any single pattern instruction still
  // ends with correct flags: skipping this cmp falls back to the restored
  // flags, skipping the restore is overwritten here.
  frame.emit(original);
  return frame.commit(module, index, /*in_place=*/true, PatternKind::kCmp);
}

/// Table III (with the inverted-condition reading on the fall-through
/// re-branch; see the header comment): each edge checks set<cond> against
/// its expected value with the flags kept, then re-branches.
PatternKind apply_jcc(bir::Module& module, std::size_t index) {
  const Instruction original = *module.text[index].instr;
  const Cond cond = original.cond;
  const std::string target = std::get<isa::LabelOperand>(original.op(0)).name;
  Frame frame(module, original);
  const std::string handler = ensure_fault_handler(module);
  const std::string fallthrough = continuation_label(module, index);
  const std::string new_target = module.fresh_label("newjumptarget");
  const std::string nf_jmp = module.fresh_label("newfallthroughjmp");
  const std::string nj_jmp = module.fresh_label("newjumptargetjmp");

  const auto verify_edge = [&](std::int64_t expected, const std::string& verified) {
    frame.open();
    const Reg bit = frame.scratch(kSetccScratch);
    frame.save_flags();
    frame.emit(isa::setcc(cond, bit));
    frame.emit(isa::cmp(bit, isa::imm(expected), Width::b8));
    frame.emit(isa::jcc(Cond::e, verified));
    frame.emit(isa::call(handler));
    frame.label(verified);
    frame.close();
  };
  frame.emit(isa::jcc(cond, new_target));
  verify_edge(0, nf_jmp);  // fall-through edge
  frame.emit(isa::jcc(isa::invert(cond), fallthrough));
  frame.emit(isa::call(handler));
  frame.label(new_target);
  verify_edge(1, nj_jmp);  // taken edge
  frame.emit(isa::jcc(cond, target));
  frame.emit(isa::call(handler));
  return frame.commit(module, index, /*in_place=*/true, PatternKind::kJcc);
}

/// Does the callee write rax before any instruction could read it?
/// Conservative linear scan of the callee's entry straight-line code. The
/// scan stops at control flow and at raw bytes, answering "no": what the
/// code beyond them does is not followed.
bool callee_clobbers_rax_first(const bir::Module& module, const std::string& label) {
  const auto start = module.index_of_label(label);
  if (!start) return false;
  const isa::Target& target = isa::target(module.arch);
  for (std::size_t i = *start; i < module.text.size(); ++i) {
    const bir::CodeItem& item = module.text[i];
    if (!item.is_instruction()) return false;
    const isa::Effects fx = isa::effects(*item.instr, target);
    if (fx.reads_reg(Reg::rax)) return false;
    if (fx.writes_reg(Reg::rax)) return true;
    if (fx.flow != isa::Flow::kNext) return false;
  }
  return false;
}

PatternKind apply_call_guard(bir::Module& module, std::size_t index) {
  const std::string callee = std::get<isa::LabelOperand>(module.text[index].instr->op(0)).name;
  if (!callee_clobbers_rax_first(module, callee)) return PatternKind::kNone;
  // Poison the return register: if the call is skipped, downstream
  // comparisons against the expected return value fail closed.
  module.insert_before(
      index, {isa::mov(Reg::rax, isa::imm(0), isa::target(module.arch).natural_width())},
      /*take_labels=*/true);
  mark_synthesized(module, index, 2);  // the poison mov and the guarded call
  return PatternKind::kCallGuard;
}

/// Duplicates the instruction at `index` in place: `copies` more copies
/// after it, the original and every copy synthesized. Every duplication
/// pattern is this step; the copies must be idempotent.
PatternKind duplicate(bir::Module& module, std::size_t index, std::size_t copies,
                      PatternKind kind) {
  module.insert_after(index, std::vector<Instruction>(copies, *module.text[index].instr));
  mark_synthesized(module, index, copies + 1);
  return kind;
}

}  // namespace

std::string ensure_fault_handler(bir::Module& module) {
  const std::string handler(kFaultHandlerSymbol);
  if (module.has_symbol(handler)) return handler;
  const Width w = isa::target(module.arch).natural_width();
  std::vector<Instruction> body;
  body.push_back(isa::mov(Reg::rax, isa::imm(60), w));  // exit(kDetectedExit)
  body.push_back(isa::mov(Reg::rdi, isa::imm(kDetectedExit), w));
  body.push_back(isa::syscall_());
  const std::size_t first = module.text.size();
  module.append_block(handler, std::move(body));
  mark_synthesized(module, first, 3);
  return handler;
}

bool flags_live_after(const bir::Module& module, std::size_t index) {
  const isa::Target& target = isa::target(module.arch);
  std::set<std::size_t> visited;
  isa::FlagSet live = isa::kAllFlags;  // the flags a pattern's compare would clobber
  std::size_t i = index + 1;
  while (true) {
    if (i >= module.text.size()) return false;
    if (!visited.insert(i).second) return false;  // loop without flag use
    const bir::CodeItem& item = module.text[i];
    if (!item.is_instruction()) return true;  // raw bytes: assume the worst
    const Instruction& instr = *item.instr;
    const isa::Effects fx = isa::effects(instr, target);
    // Policy: flags are dead across calls (SysV) and syscalls (the kernel
    // clobbers rflags).
    if (fx.flow == isa::Flow::kCall || fx.flow == isa::Flow::kIndirectCall ||
        instr.mnemonic == Mnemonic::kSyscall) {
      return false;
    }
    if ((fx.reads_flags & live) != 0) return true;
    live &= static_cast<isa::FlagSet>(~fx.writes_flags);
    if (live == 0) return false;
    switch (fx.flow) {
      case isa::Flow::kJump: {
        if (!isa::is_label(instr.op(0))) return true;
        const auto destination =
            module.index_of_label(std::get<isa::LabelOperand>(instr.op(0)).name);
        if (!destination) return true;
        i = *destination;
        continue;
      }
      case isa::Flow::kTrap:
        return false;
      case isa::Flow::kNext:
        ++i;
        continue;
      default:
        return true;  // an unknown destination, or a caller that may observe them
    }
  }
}

PatternKind classify_pattern(const bir::Module& module, std::size_t index) {
  if (index >= module.text.size()) return PatternKind::kNone;
  const bir::CodeItem& item = module.text[index];
  if (!item.is_instruction() || item.synthesized) return PatternKind::kNone;
  switch (item.instr->mnemonic) {
    case Mnemonic::kMov: return PatternKind::kMov;
    case Mnemonic::kMovzx: return PatternKind::kMovzx;
    case Mnemonic::kCmp:  // Table II pushes, which moves an rsp-relative operand
      return isa::effects(*item.instr, isa::target(module.arch)).reads_reg(Reg::rsp)
                 ? PatternKind::kNone
                 : PatternKind::kCmp;
    case Mnemonic::kJcc:
      return isa::is_label(item.instr->op(0)) ? PatternKind::kJcc : PatternKind::kNone;
    case Mnemonic::kCall:
      return isa::is_label(item.instr->op(0)) ? PatternKind::kCallGuard
                                              : PatternKind::kNone;
    case Mnemonic::kRet:
      return PatternKind::kRetDup;
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
      return aliased_address_reg(*item.instr) ? PatternKind::kNone : PatternKind::kAluDup;
    default:
      return PatternKind::kNone;
  }
}

PatternKind protect_instruction(bir::Module& module, std::size_t index) {
  switch (classify_pattern(module, index)) {
    case PatternKind::kMov: return apply_mov(module, index);
    case PatternKind::kMovzx: return apply_movzx(module, index);
    case PatternKind::kCmp: return apply_cmp(module, index);
    case PatternKind::kJcc: return apply_jcc(module, index);
    case PatternKind::kCallGuard: return apply_call_guard(module, index);
    case PatternKind::kRetDup: return duplicate(module, index, 1, PatternKind::kRetDup);
    // and/or are idempotent: the duplicate recomputes the same value and
    // flags, so skipping either copy leaves the other standing.
    case PatternKind::kAluDup: return duplicate(module, index, 1, PatternKind::kAluDup);
    default: return PatternKind::kNone;
  }
}

PatternKind reinforce_instruction(bir::Module& module, std::size_t index,
                                  std::uint64_t pair_window, unsigned order) {
  if (index >= module.text.size()) return PatternKind::kNone;
  if (!module.text[index].is_instruction()) return PatternKind::kNone;

  // Original instructions get the ordinary local pattern: a higher-order
  // campaign often implicates a check no single fault could defeat (a loop
  // back-edge branch, an accumulate) that order-1 patching left bare.
  if (!module.text[index].synthesized) return protect_instruction(module, index);

  // Redundancy degree: an order-k attacker removes up to k dynamic
  // instructions, so each application of a duplication pattern adds k-1
  // copies (the fixpoint loop re-campaigns and reinforces again if that is
  // still not deep enough).
  const std::size_t copies = std::max<unsigned>(order, 2) - 1;
  const Instruction original = *module.text[index].instr;
  switch (original.mnemonic) {
    case Mnemonic::kRet:
      // Skipping two adjacent rets falls through into the next function; a
      // pair cannot skip three, and k more copies outlast any k-tuple.
      return duplicate(module, index, copies, PatternKind::kRetTriple);
    case Mnemonic::kCall: {
      // The pattern tails end in `re-branch; call handler`: one skip takes
      // the wrong edge, further skips swallow the detection calls. With the
      // call duplicated deeper than the attacker's order, a copy survives.
      if (!isa::is_label(original.op(0)) ||
          std::get<isa::LabelOperand>(original.op(0)).name != kFaultHandlerSymbol) {
        return PatternKind::kNone;
      }
      return duplicate(module, index, copies, PatternKind::kHandlerCallDup);
    }
    case Mnemonic::kMov: {
      // Idempotent synthesized movs (the call-guard poison, scratch
      // re-materializations) are duplicated in place: the set that skipped
      // the mov plus its consumer now leaves a duplicate standing. A load
      // whose destination feeds its own address computation is the one
      // non-idempotent shape.
      if (original.arity() != 2 || !isa::is_reg(original.op(0)) ||
          isa::is_label(original.op(1)) || aliased_address_reg(original)) {
        return PatternKind::kNone;
      }
      return duplicate(module, index, copies, PatternKind::kGuardMovDup);
    }
    case Mnemonic::kAnd:
    case Mnemonic::kOr: {
      // A kAluDup pair: skipping both copies needs another copy. The
      // copies are idempotent unless the destination feeds the address.
      if (aliased_address_reg(original)) return PatternKind::kNone;
      return duplicate(module, index, copies, PatternKind::kAluDup);
    }
    case Mnemonic::kCmp: {
      // Span-separated re-verification: re-execute the compare behind more
      // than (order-1)·pair_window flag-neutral nops. Skipping the popfq
      // that should restore real flags *and* the authoritative compare
      // forged an "equal" for the consumer branch. An order-k tuple's
      // consecutive gaps are bounded by the window, so its total span is at
      // most (k-1)·window — even laddering faults through the nops cannot
      // reach both the original compare and its far duplicate.
      std::vector<Instruction> seq;
      const std::uint64_t span =
          (std::max<unsigned>(order, 2) - 1) * pair_window;
      for (std::uint64_t i = 0; i <= span; ++i) seq.push_back(isa::nop());
      seq.push_back(original);
      const std::size_t count = seq.size();
      module.insert_after(index, std::move(seq));
      mark_synthesized(module, index + 1, count);
      return PatternKind::kCmpFar;
    }
    default:
      // No local reinforcement for this shape (popfq, pushes, the pattern
      // branches themselves): another site of the set carries the fix.
      return PatternKind::kNone;
  }
}

}  // namespace r2r::patch
