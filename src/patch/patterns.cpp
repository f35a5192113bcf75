#include "patch/patterns.h"

#include <set>

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

/// Per-module pattern instantiation context: how this target preserves
/// flags across a verification compare and which registers the patterns
/// may clobber (PatternTraits), plus the operand shapes compares accept
/// (LowerCaps immediate range).
struct Traits {
  const isa::PatternTraits& t;
  const isa::LowerCaps& caps;
  bool stack;  ///< kStack flag-save model (x86-64 Tables I-III verbatim)
  Width w;     ///< natural operation width
};

Traits traits_for(const bir::Module& module) {
  const isa::Target& target = isa::target(module.arch);
  const auto& t = target.pattern_traits();
  return Traits{t, target.lower_caps(),
                t.flag_save == isa::PatternTraits::FlagSave::kStack,
                t.natural_width};
}

/// Registers an operand references (including memory base/index).
void collect_regs(const isa::Operand& op, std::set<Reg>& regs) {
  if (isa::is_reg(op)) {
    regs.insert(std::get<Reg>(op));
    return;
  }
  if (isa::is_mem(op)) {
    const auto& mem = std::get<isa::MemOperand>(op);
    if (mem.base) regs.insert(*mem.base);
    if (mem.index) regs.insert(*mem.index);
  }
}

bool references_rsp(const Instruction& instr) {
  std::set<Reg> regs;
  for (const auto& op : instr.operands) collect_regs(op, regs);
  return regs.contains(Reg::rsp);
}

/// A scratch register not referenced by `instr` (used by the cmp pattern).
Reg pick_scratch(const Instruction& instr) {
  std::set<Reg> used;
  for (const auto& op : instr.operands) collect_regs(op, used);
  for (const Reg candidate : {Reg::rbx, Reg::rax, Reg::rcx, Reg::rdx, Reg::rsi,
                              Reg::rdi, Reg::r8, Reg::r9, Reg::r10, Reg::r11}) {
    if (!used.contains(candidate)) return candidate;
  }
  support::fail(support::ErrorKind::kRewrite, "no scratch register available");
}

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

/// True if the mov's source immediate cannot appear in a cmp. On x86-64 no
/// imm64 compare form exists (a symbol immediate resolves below 2^31 in our
/// layout and is fine); register-save targets compare only against their
/// small ALU immediate range and never against symbols.
bool needs_scratch_compare(const Instruction& mov_instr, const Traits& tr) {
  if (mov_instr.arity() != 2 || !isa::is_imm(mov_instr.op(1))) return false;
  const auto& imm = std::get<isa::ImmOperand>(mov_instr.op(1));
  if (!imm.label.empty()) return !tr.stack;
  return !(imm.value >= tr.caps.min_alu_imm && imm.value <= tr.caps.max_alu_imm);
}

/// On register-save targets the patterns clobber the reserved scratch
/// registers without saving them; an instruction that already mentions one
/// of them cannot be protected (our lowerer never emits them, so this only
/// triggers on hand-written or adversarial recovered code).
bool references_reserved(const Instruction& instr, const Traits& tr) {
  if (tr.stack) return false;
  std::set<Reg> regs;
  for (const auto& op : instr.operands) collect_regs(op, regs);
  return regs.contains(tr.t.flag_scratch) || regs.contains(tr.t.value_scratch_a) ||
         regs.contains(tr.t.value_scratch_b);
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

/// Table I variant for self-aliasing loads: the address register is copied
/// to a scratch register *before* the load so the verification re-read uses
/// the original address. Replaces the mov in place.
PatternKind apply_mov_aliased(bir::Module& module, std::size_t index, Reg aliased,
                              bool save_flags, const Traits& tr) {
  const Instruction original = *module.text[index].instr;
  if (references_rsp(original)) return PatternKind::kNone;  // rsp shifts below
  const auto& src = std::get<isa::MemOperand>(original.op(1));
  if (!tr.stack) {
    // Register-save variant: the address survives in value scratch B and the
    // verification re-read lands in value scratch A — no stack traffic.
    const Reg addr = tr.t.value_scratch_b;
    const Reg reread_dst = tr.t.value_scratch_a;
    isa::MemOperand reread = src;
    if (reread.base && *reread.base == aliased) reread.base = addr;
    if (reread.index && *reread.index == aliased) reread.index = addr;

    const std::string handler = ensure_fault_handler(module);
    std::string resume = continuation_label(module, index);
    if (save_flags) resume = module.fresh_label("movok");

    std::vector<Instruction> seq;
    if (save_flags) seq.push_back(isa::read_flags(tr.t.flag_scratch, tr.w));
    seq.push_back(isa::mov(addr, aliased, tr.w));
    seq.push_back(original);
    seq.push_back(isa::mov(reread_dst, reread, original.width));
    seq.push_back(isa::cmp(original.op(0), reread_dst, original.width));
    seq.push_back(isa::jcc(Cond::e, resume));
    seq.push_back(isa::call(handler));
    const std::size_t resume_index = seq.size();
    if (save_flags) seq.push_back(isa::write_flags(tr.t.flag_scratch, tr.w));

    const std::size_t count = seq.size();
    module.replace(index, std::move(seq));
    if (save_flags) module.add_label(index + resume_index, resume);
    mark_synthesized(module, index, count);
    return PatternKind::kMov;
  }
  // One scratch handles one aliased register; a mov can only alias dst once
  // anyway (dst == base and dst == index still substitutes both uses).
  std::set<Reg> used{std::get<Reg>(original.op(0))};
  if (src.base) used.insert(*src.base);
  if (src.index) used.insert(*src.index);
  Reg scratch = Reg::rbx;
  for (const Reg candidate : {Reg::rbx, Reg::rax, Reg::rcx, Reg::rdx, Reg::rsi,
                              Reg::rdi, Reg::r8, Reg::r9, Reg::r10, Reg::r11}) {
    if (!used.contains(candidate)) {
      scratch = candidate;
      break;
    }
  }

  isa::MemOperand reread = src;
  if (reread.base && *reread.base == aliased) reread.base = scratch;
  if (reread.index && *reread.index == aliased) reread.index = scratch;

  const std::string handler = ensure_fault_handler(module);
  const std::string resume = module.fresh_label("movok");

  std::vector<Instruction> seq;
  if (save_flags) {
    seq.push_back(isa::lea(Reg::rsp, isa::mem(Reg::rsp, -128)));
    seq.push_back(isa::pushfq());  // mov writes no flags; popfq restores these
  }
  seq.push_back(isa::push(scratch));
  seq.push_back(isa::mov(scratch, aliased));
  seq.push_back(original);
  seq.push_back(isa::cmp(original.op(0), reread, original.width));
  seq.push_back(isa::jcc(Cond::e, resume));
  seq.push_back(isa::call(handler));
  const std::size_t resume_index = seq.size();
  seq.push_back(isa::pop(scratch));
  if (save_flags) {
    seq.push_back(isa::popfq());
    seq.push_back(isa::lea(Reg::rsp, isa::mem(Reg::rsp, 128)));
  }

  const std::size_t count = seq.size();
  module.replace(index, std::move(seq));
  module.add_label(index + resume_index, resume);
  mark_synthesized(module, index, count);
  return PatternKind::kMov;
}

/// Table I on a register-save target: the flags image lives in the reserved
/// flag scratch, re-materialized values in the reserved value scratch, and
/// the sequence never touches the stack. Compares are register-register or
/// small-immediate, so memory operands are re-read into the scratch first.
PatternKind apply_mov_regsave(bir::Module& module, std::size_t index, const Traits& tr,
                              bool save_flags, bool scratch_form) {
  const Instruction original = *module.text[index].instr;
  const Reg scratch = tr.t.value_scratch_a;
  const std::string handler = ensure_fault_handler(module);
  const std::string happyflow = continuation_label(module, index);

  std::vector<Instruction> seq;
  if (save_flags) seq.push_back(isa::read_flags(tr.t.flag_scratch, tr.w));
  if (scratch_form) {
    seq.push_back(isa::mov(scratch, original.op(1), original.width));
    seq.push_back(isa::cmp(original.op(0), scratch, original.width));
  } else if (isa::is_mem(original.op(0))) {
    // mov [mem], src: re-read the stored value, compare against the source.
    seq.push_back(isa::mov(scratch, original.op(0), original.width));
    seq.push_back(isa::cmp(scratch, original.op(1), original.width));
  } else if (isa::is_mem(original.op(1))) {
    // mov dst, [mem]: re-read the load, compare register-register.
    seq.push_back(isa::mov(scratch, original.op(1), original.width));
    seq.push_back(isa::cmp(original.op(0), scratch, original.width));
  } else {
    seq.push_back(isa::cmp(original.op(0), original.op(1), original.width));
  }
  std::string resume = happyflow;
  if (save_flags) resume = module.fresh_label("movok");
  seq.push_back(isa::jcc(Cond::e, resume));
  seq.push_back(isa::call(handler));
  const std::size_t resume_index = seq.size();
  if (save_flags) seq.push_back(isa::write_flags(tr.t.flag_scratch, tr.w));

  const std::size_t count = seq.size();
  module.insert_after(index, std::move(seq));
  if (resume != happyflow) module.add_label(index + 1 + resume_index, resume);
  mark_synthesized(module, index + 1, count);
  return PatternKind::kMov;
}

PatternKind apply_mov(bir::Module& module, std::size_t index) {
  const Traits tr = traits_for(module);
  const Instruction original = *module.text[index].instr;
  if (references_reserved(original, tr)) return PatternKind::kNone;
  const bool save_flags = flags_live_after(module, index);
  if (const auto aliased = aliased_address_reg(original)) {
    return apply_mov_aliased(module, index, *aliased, save_flags, tr);
  }
  const bool scratch_form = needs_scratch_compare(original, tr);
  if (!tr.stack) return apply_mov_regsave(module, index, tr, save_flags, scratch_form);
  // Variants that adjust rsp would shift an rsp-relative operand of the
  // re-executed access; such sites stay unprotected (reported upstream).
  if ((save_flags || scratch_form) && references_rsp(original)) return PatternKind::kNone;

  const std::string handler = ensure_fault_handler(module);
  const std::string happyflow = continuation_label(module, index);

  std::vector<Instruction> seq;
  if (save_flags) {
    // Red-zone safe RFLAGS save around the verification compare.
    seq.push_back(isa::lea(Reg::rsp, isa::mem(Reg::rsp, -128)));
    seq.push_back(isa::pushfq());
  }
  std::optional<Reg> scratch;
  if (scratch_form) {
    // cmp r64, imm64 does not exist: re-materialize the immediate into a
    // scratch register and compare register-register.
    scratch = pick_scratch(original);
    seq.push_back(isa::push(*scratch));
    seq.push_back(isa::mov(*scratch, original.op(1)));
    seq.push_back(isa::cmp(original.op(0), *scratch, original.width));
  } else {
    // A verification compare re-reads the source: reg<-mem compares reg vs
    // mem (Table I verbatim); mem<-reg compares mem vs reg; imm sources
    // compare against the immediate again.
    seq.push_back(isa::cmp(original.op(0), original.op(1), original.width));
  }
  std::string resume = happyflow;
  if (save_flags || scratch_form) resume = module.fresh_label("movok");
  seq.push_back(isa::jcc(Cond::e, resume));
  seq.push_back(isa::call(handler));
  const std::size_t resume_index = seq.size();
  if (scratch_form) seq.push_back(isa::pop(*scratch));
  if (save_flags) {
    seq.push_back(isa::popfq());
    seq.push_back(isa::lea(Reg::rsp, isa::mem(Reg::rsp, 128)));
  }

  const std::size_t count = seq.size();
  module.insert_after(index, std::move(seq));
  if (resume != happyflow) {
    // Attach the resume label to the first clean-up instruction.
    module.add_label(index + 1 + resume_index, resume);
  }
  mark_synthesized(module, index + 1, count);
  return PatternKind::kMov;
}

PatternKind apply_movzx(bir::Module& module, std::size_t index) {
  // movzx dst, src8 — verify the low byte of dst against the source again.
  // (Extension of the Table I idea to the zero-extending load; the upper
  // bits are architecturally zero after movzx.) Unlike the mov pattern this
  // one has no flags-preserving variant, so live flags disqualify it.
  if (flags_live_after(module, index)) return PatternKind::kNone;
  const Traits tr = traits_for(module);
  const Instruction original = *module.text[index].instr;
  if (references_reserved(original, tr)) return PatternKind::kNone;
  const std::string handler = ensure_fault_handler(module);
  const std::string happyflow = continuation_label(module, index);

  std::vector<Instruction> seq;
  if (!tr.stack && isa::is_mem(original.op(1))) {
    // Register-save targets compare register-register: re-read the byte
    // into the reserved value scratch first.
    seq.push_back(isa::mov(tr.t.value_scratch_a, original.op(1), Width::b8));
    seq.push_back(isa::cmp(original.op(0), tr.t.value_scratch_a, Width::b8));
  } else {
    seq.push_back(isa::cmp(original.op(0), original.op(1), Width::b8));
  }
  seq.push_back(isa::jcc(Cond::e, happyflow));
  seq.push_back(isa::call(handler));
  const std::size_t count = seq.size();
  module.insert_after(index, std::move(seq));
  mark_synthesized(module, index + 1, count);
  return PatternKind::kMovzx;
}

/// Table II on a register-save target: both executions' flag images land in
/// the reserved scratches and are compared register-register, so the
/// sequence needs no stack adjustment at all.
PatternKind apply_cmp_regsave(bir::Module& module, std::size_t index, const Traits& tr) {
  const Instruction original = *module.text[index].instr;
  const std::string handler = ensure_fault_handler(module);
  const std::string restore = module.fresh_label("restore");

  std::vector<Instruction> seq;
  seq.push_back(original);
  seq.push_back(isa::read_flags(tr.t.flag_scratch, tr.w));
  seq.push_back(original);
  seq.push_back(isa::read_flags(tr.t.value_scratch_a, tr.w));
  seq.push_back(isa::cmp(tr.t.flag_scratch, tr.t.value_scratch_a, tr.w));
  seq.push_back(isa::jcc(Cond::e, restore));
  seq.push_back(isa::call(handler));
  const std::size_t restore_index = seq.size();
  seq.push_back(isa::write_flags(tr.t.flag_scratch, tr.w));  // label restore
  // Third, authoritative execution — same redundancy argument as the stack
  // variant: skipping the wrflags falls back to this compare, skipping this
  // compare falls back to the restored first-execution flags.
  seq.push_back(original);

  const std::size_t count = seq.size();
  module.replace(index, std::move(seq));
  module.add_label(index + restore_index, restore);
  mark_synthesized(module, index, count);
  return PatternKind::kCmp;
}

PatternKind apply_cmp(bir::Module& module, std::size_t index) {
  const Instruction original = *module.text[index].instr;
  if (references_rsp(original)) return PatternKind::kNone;  // rsp moves below
  const Traits tr = traits_for(module);
  if (references_reserved(original, tr)) return PatternKind::kNone;
  if (!tr.stack) return apply_cmp_regsave(module, index, tr);
  const Reg scratch = pick_scratch(original);
  const std::string handler = ensure_fault_handler(module);
  const std::string restore = module.fresh_label("restore");

  // Table II, verbatim (scratch register generalized from the paper's rbx).
  std::vector<Instruction> seq;
  seq.push_back(isa::lea(Reg::rsp, isa::mem(Reg::rsp, -128)));
  seq.push_back(original);
  seq.push_back(isa::push(scratch));
  seq.push_back(isa::pushfq());
  seq.push_back(original);
  seq.push_back(isa::pushfq());
  seq.push_back(isa::pop(scratch));
  seq.push_back(isa::cmp(scratch, isa::mem(Reg::rsp, 0)));
  seq.push_back(isa::jcc(Cond::e, restore));
  seq.push_back(isa::call(handler));
  const std::size_t restore_index = seq.size();
  seq.push_back(isa::popfq());
  seq.push_back(isa::pop(scratch));
  seq.push_back(isa::lea(Reg::rsp, isa::mem(Reg::rsp, 128)));
  // Third, authoritative execution of the comparison. Without it, skipping
  // the popfq would leave the flags of the internal consistency compare
  // (always "equal") for the consumer branch — itself a skip vulnerability.
  // With it, skipping any single pattern instruction still ends with
  // correct flags: skipping this cmp falls back to the popfq-restored
  // flags, skipping the popfq is overwritten here.
  seq.push_back(original);

  const std::size_t count = seq.size();
  module.replace(index, std::move(seq));
  module.add_label(index + restore_index, restore);
  mark_synthesized(module, index, count);
  return PatternKind::kCmp;
}

/// Table III on a register-save target: the branch flags are held in the
/// reserved flag scratch across the verification compare, and setcc lands
/// in the reserved value scratch instead of a pushed register.
PatternKind apply_jcc_regsave(bir::Module& module, std::size_t index, const Traits& tr) {
  const Instruction original = *module.text[index].instr;
  const Cond cond = original.cond;
  const std::string target = std::get<isa::LabelOperand>(original.op(0)).name;
  const std::string handler = ensure_fault_handler(module);
  const std::string fallthrough = continuation_label(module, index);
  const std::string new_target = module.fresh_label("newjumptarget");
  const std::string nf_jmp = module.fresh_label("newfallthroughjmp");
  const std::string nj_jmp = module.fresh_label("newjumptargetjmp");
  const Reg flag = tr.t.flag_scratch;
  const Reg setreg = tr.t.value_scratch_a;

  std::vector<Instruction> seq;
  seq.push_back(isa::jcc(cond, new_target));
  // --- fall-through edge verification (expected set<cond> result: 0) ---
  seq.push_back(isa::read_flags(flag, tr.w));
  seq.push_back(isa::setcc(cond, setreg));
  seq.push_back(isa::cmp(setreg, isa::imm(0), Width::b8));
  seq.push_back(isa::jcc(Cond::e, nf_jmp));
  seq.push_back(isa::call(handler));
  const std::size_t nf_index = seq.size();
  seq.push_back(isa::write_flags(flag, tr.w));  // label nf_jmp
  seq.push_back(isa::jcc(isa::invert(cond), fallthrough));
  seq.push_back(isa::call(handler));
  // --- taken edge verification (expected set<cond> result: 1) ---
  const std::size_t nj_head = seq.size();
  seq.push_back(isa::read_flags(flag, tr.w));  // label new_target
  seq.push_back(isa::setcc(cond, setreg));
  seq.push_back(isa::cmp(setreg, isa::imm(1), Width::b8));
  seq.push_back(isa::jcc(Cond::e, nj_jmp));
  seq.push_back(isa::call(handler));
  const std::size_t nj_index = seq.size();
  seq.push_back(isa::write_flags(flag, tr.w));  // label nj_jmp
  seq.push_back(isa::jcc(cond, target));
  seq.push_back(isa::call(handler));

  const std::size_t count = seq.size();
  module.replace(index, std::move(seq));
  module.add_label(index + nf_index, nf_jmp);
  module.add_label(index + nj_head, new_target);
  module.add_label(index + nj_index, nj_jmp);
  mark_synthesized(module, index, count);
  return PatternKind::kJcc;
}

PatternKind apply_jcc(bir::Module& module, std::size_t index) {
  const Instruction original = *module.text[index].instr;
  if (!isa::is_label(original.op(0))) return PatternKind::kNone;
  const Traits tr = traits_for(module);
  if (!tr.stack) return apply_jcc_regsave(module, index, tr);
  const Cond cond = original.cond;
  const std::string target = std::get<isa::LabelOperand>(original.op(0)).name;
  const std::string handler = ensure_fault_handler(module);
  const std::string fallthrough = continuation_label(module, index);
  const std::string new_target = module.fresh_label("newjumptarget");
  const std::string nf_jmp = module.fresh_label("newfallthroughjmp");
  const std::string nj_jmp = module.fresh_label("newjumptargetjmp");

  // Table III (with the inverted-condition reading on the fall-through
  // re-branch; see the header comment).
  std::vector<Instruction> seq;
  seq.push_back(isa::jcc(cond, new_target));
  // --- fall-through edge verification (expected set<cond> result: 0) ---
  seq.push_back(isa::lea(Reg::rsp, isa::mem(Reg::rsp, -128)));
  seq.push_back(isa::push(Reg::rcx));
  seq.push_back(isa::pushfq());
  seq.push_back(isa::setcc(cond, Reg::rcx));
  seq.push_back(isa::cmp(Reg::rcx, isa::imm(0), Width::b8));
  seq.push_back(isa::jcc(Cond::e, nf_jmp));
  seq.push_back(isa::call(handler));
  const std::size_t nf_index = seq.size();
  seq.push_back(isa::popfq());  // label nf_jmp
  seq.push_back(isa::pop(Reg::rcx));
  seq.push_back(isa::lea(Reg::rsp, isa::mem(Reg::rsp, 128)));
  seq.push_back(isa::jcc(isa::invert(cond), fallthrough));
  seq.push_back(isa::call(handler));
  // --- taken edge verification (expected set<cond> result: 1) ---
  const std::size_t nj_head = seq.size();
  seq.push_back(isa::lea(Reg::rsp, isa::mem(Reg::rsp, -128)));  // label new_target
  seq.push_back(isa::push(Reg::rcx));
  seq.push_back(isa::pushfq());
  seq.push_back(isa::setcc(cond, Reg::rcx));
  seq.push_back(isa::cmp(Reg::rcx, isa::imm(1), Width::b8));
  seq.push_back(isa::jcc(Cond::e, nj_jmp));
  seq.push_back(isa::call(handler));
  const std::size_t nj_index = seq.size();
  seq.push_back(isa::popfq());  // label nj_jmp
  seq.push_back(isa::pop(Reg::rcx));
  seq.push_back(isa::lea(Reg::rsp, isa::mem(Reg::rsp, 128)));
  seq.push_back(isa::jcc(cond, target));
  seq.push_back(isa::call(handler));

  const std::size_t count = seq.size();
  module.replace(index, std::move(seq));
  module.add_label(index + nf_index, nf_jmp);
  module.add_label(index + nj_head, new_target);
  module.add_label(index + nj_index, nj_jmp);
  mark_synthesized(module, index, count);
  return PatternKind::kJcc;
}

/// Does the callee write rax before any instruction could read it?
/// Conservative linear scan of the callee's entry straight-line code; any
/// branch, call, or ambiguous instruction before a clear write means "no".
bool callee_clobbers_rax_first(const bir::Module& module, const std::string& label) {
  const auto start = module.index_of_label(label);
  if (!start) return false;
  for (std::size_t i = *start; i < module.text.size(); ++i) {
    const bir::CodeItem& item = module.text[i];
    if (!item.is_instruction()) return false;
    const Instruction& instr = *item.instr;

    const auto operand_reads_rax = [](const isa::Operand& op) {
      if (isa::is_reg(op)) return std::get<Reg>(op) == Reg::rax;
      if (isa::is_mem(op)) {
        const auto& mem = std::get<isa::MemOperand>(op);
        return (mem.base && *mem.base == Reg::rax) || (mem.index && *mem.index == Reg::rax);
      }
      return false;
    };

    switch (instr.mnemonic) {
      case Mnemonic::kMov:
      case Mnemonic::kMovzx:
      case Mnemonic::kMovsx:
      case Mnemonic::kLea:
        // Pure write to the destination; safe if rax is the destination
        // register and the source does not mention rax.
        if (instr.arity() == 2 && isa::is_reg(instr.op(0)) &&
            std::get<Reg>(instr.op(0)) == Reg::rax) {
          return !operand_reads_rax(instr.op(1));
        }
        if (operand_reads_rax(instr.op(0)) ||
            (instr.arity() == 2 && operand_reads_rax(instr.op(1)))) {
          return false;
        }
        continue;
      case Mnemonic::kXor:
        // xor rax, rax is an idiomatic write.
        if (instr.arity() == 2 && isa::is_reg(instr.op(0)) &&
            isa::is_reg(instr.op(1)) && std::get<Reg>(instr.op(0)) == Reg::rax &&
            std::get<Reg>(instr.op(1)) == Reg::rax) {
          return true;
        }
        [[fallthrough]];
      default: {
        // Any other instruction mentioning rax (or transferring control)
        // ends the analysis pessimistically.
        if (isa::is_control_flow(instr) || instr.mnemonic == Mnemonic::kSyscall) {
          return false;
        }
        for (const isa::Operand& op : instr.operands) {
          if (operand_reads_rax(op)) return false;
        }
        continue;
      }
    }
  }
  return false;
}

PatternKind apply_call_guard(bir::Module& module, std::size_t index) {
  const Instruction original = *module.text[index].instr;
  if (!isa::is_label(original.op(0))) return PatternKind::kNone;
  const std::string& callee = std::get<isa::LabelOperand>(original.op(0)).name;
  if (!callee_clobbers_rax_first(module, callee)) return PatternKind::kNone;
  // Poison the return register: if the call is skipped, downstream
  // comparisons against the expected return value fail closed.
  module.insert_before(index, {isa::mov(Reg::rax, isa::imm(0), traits_for(module).w)},
                       /*take_labels=*/true);
  module.text[index].synthesized = true;      // the poison mov
  module.text[index + 1].synthesized = true;  // the guarded call
  return PatternKind::kCallGuard;
}

PatternKind apply_ret_dup(bir::Module& module, std::size_t index) {
  module.insert_after(index, {isa::ret()});
  module.text[index].synthesized = true;
  module.text[index + 1].synthesized = true;
  return PatternKind::kRetDup;
}

PatternKind apply_alu_dup(bir::Module& module, std::size_t index) {
  // and/or are idempotent: the duplicate recomputes the same value and
  // flags, so skipping either copy leaves the other standing.
  module.insert_after(index, {*module.text[index].instr});
  module.text[index].synthesized = true;
  module.text[index + 1].synthesized = true;
  return PatternKind::kAluDup;
}

}  // namespace

std::string ensure_fault_handler(bir::Module& module) {
  const std::string handler(kFaultHandlerSymbol);
  if (module.has_symbol(handler)) return handler;
  const Width w = traits_for(module).w;
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
  std::set<std::size_t> visited;
  std::size_t i = index + 1;
  while (true) {
    if (i >= module.text.size()) return false;
    if (!visited.insert(i).second) return false;  // loop without flag use
    const bir::CodeItem& item = module.text[i];
    if (!item.is_instruction()) return true;  // raw bytes: assume the worst
    const Instruction& instr = *item.instr;
    if (isa::reads_flags(instr)) return true;
    if (isa::writes_flags(instr)) return false;
    switch (instr.mnemonic) {
      case Mnemonic::kJmp: {
        if (!isa::is_label(instr.op(0))) return true;
        const auto target =
            module.index_of_label(std::get<isa::LabelOperand>(instr.op(0)).name);
        if (!target) return true;
        i = *target;
        continue;
      }
      case Mnemonic::kJmpReg:
        return true;  // unknown destination
      case Mnemonic::kRet:
        return true;  // caller may observe flags — stay conservative
      case Mnemonic::kCall:
      case Mnemonic::kCallReg:
        return false;  // SysV: flags are dead across calls
      case Mnemonic::kHlt:
      case Mnemonic::kUd2:
      case Mnemonic::kInt3:
        return false;
      case Mnemonic::kSyscall:
        return false;  // kernel clobbers rflags (r11 convention)
      default:
        ++i;
        continue;
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
    case Mnemonic::kCmp:
      return references_rsp(*item.instr) ? PatternKind::kNone : PatternKind::kCmp;
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
    case PatternKind::kRetDup: return apply_ret_dup(module, index);
    case PatternKind::kAluDup: return apply_alu_dup(module, index);
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
    case Mnemonic::kRet: {
      // Skipping two adjacent rets falls through into the next function; a
      // pair cannot skip three, and k more copies outlast any k-tuple.
      module.insert_after(index, std::vector<Instruction>(copies, isa::ret()));
      mark_synthesized(module, index + 1, copies);
      return PatternKind::kRetTriple;
    }
    case Mnemonic::kCall: {
      // The pattern tails end in `re-branch; call handler`: one skip takes
      // the wrong edge, further skips swallow the detection calls. With the
      // call duplicated deeper than the attacker's order, a copy survives.
      if (!isa::is_label(original.op(0)) ||
          std::get<isa::LabelOperand>(original.op(0)).name != kFaultHandlerSymbol) {
        return PatternKind::kNone;
      }
      module.insert_after(
          index, std::vector<Instruction>(copies,
                                          isa::call(std::string(kFaultHandlerSymbol))));
      mark_synthesized(module, index + 1, copies);
      return PatternKind::kHandlerCallDup;
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
      module.insert_after(index, std::vector<Instruction>(copies, original));
      mark_synthesized(module, index + 1, copies);
      return PatternKind::kGuardMovDup;
    }
    case Mnemonic::kAnd:
    case Mnemonic::kOr: {
      // A kAluDup pair: skipping both copies needs another copy. The
      // copies are idempotent unless the destination feeds the address.
      if (aliased_address_reg(original)) return PatternKind::kNone;
      module.insert_after(index, std::vector<Instruction>(copies, original));
      mark_synthesized(module, index + 1, copies);
      return PatternKind::kAluDup;
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
