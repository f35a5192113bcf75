#include "isa/semantics.h"

#include "isa/target.h"

namespace r2r::isa {

Effects effects(const Instruction& instr, const Target& target) noexcept {
  Effects fx;
  const auto reg = [&](std::size_t i) -> RegSet {  // operand i as a register, else 0
    const Reg* r = i < instr.arity() ? std::get_if<Reg>(&instr.operands[i]) : nullptr;
    return r != nullptr ? reg_bit(*r) : 0;
  };
  const auto address = [&](std::size_t i) {  // the registers operand i's address reads
    const auto* mem = i < instr.arity() ? std::get_if<MemOperand>(&instr.operands[i]) : nullptr;
    if (mem == nullptr || mem->rip_relative) return;
    if (mem->base) fx.reads |= reg_bit(*mem->base);
    if (mem->index) fx.reads |= reg_bit(*mem->index);
  };
  const auto read = [&](std::size_t i) {
    fx.reads |= reg(i);
    address(i);
  };
  const auto write = [&](std::size_t i, Width width) {
    fx.writes |= reg(i);
    // Cpu::write merges an 8- or 16-bit result into the register.
    if (width == Width::b8 || width == Width::b16) fx.reads |= reg(i);
    address(i);
  };
  const auto update = [&](std::size_t i) {
    read(i);
    write(i, instr.width);
  };
  const auto stack = [&] {
    fx.reads |= reg_bit(Reg::rsp);
    fx.writes |= reg_bit(Reg::rsp);
  };
  // call and ret keep the return address on the stack or in the link register.
  const auto link = [&](RegSet& uses) {
    if (target.link_register_calls()) {
      uses |= reg_bit(target.link_register());
    } else {
      stack();
    }
  };

  const Width w = instr.width;
  const FlagSet tested = [&]() -> FlagSet {  // the flags a condition tests
    switch (instr.cond) {
      case Cond::o: case Cond::no: return kOF;
      case Cond::b: case Cond::ae: return kCF;
      case Cond::e: case Cond::ne: return kZF;
      case Cond::be: case Cond::a: return kCF | kZF;
      case Cond::s: case Cond::ns: return kSF;
      case Cond::p: case Cond::np: return kPF;
      case Cond::l: case Cond::ge: return kSF | kOF;
      case Cond::le: case Cond::g: return kZF | kSF | kOF;
      case Cond::none: return 0;
    }
    return 0;
  }();
  switch (instr.mnemonic) {
    case Mnemonic::kMov:
    case Mnemonic::kMovzx:
    case Mnemonic::kMovsx: read(1); write(0, w); break;
    case Mnemonic::kLea: address(1); write(0, w); break;
    case Mnemonic::kXor:
      if (reg(0) != 0 && reg(0) == reg(1)) {  // zeroes whatever the register held
        write(0, w);
        fx.writes_flags = kAllFlags;
        break;
      }
      [[fallthrough]];
    case Mnemonic::kAdd:
    case Mnemonic::kSub:
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
    case Mnemonic::kImul:
    case Mnemonic::kNeg: update(0); read(1); fx.writes_flags = kAllFlags; break;
    case Mnemonic::kCmp:
    case Mnemonic::kTest: read(0); read(1); fx.writes_flags = kAllFlags; break;
    case Mnemonic::kNot: update(0); break;
    case Mnemonic::kInc:
    case Mnemonic::kDec: update(0); fx.writes_flags = kAllFlags & ~kCF; break;
    case Mnemonic::kShl:
    case Mnemonic::kShr:
    case Mnemonic::kSar: {
      update(0);
      read(1);
      // A count that masks to 0 keeps the flags; only an immediate is known not to.
      const auto* count =
          instr.arity() == 2 ? std::get_if<ImmOperand>(&instr.operands[1]) : nullptr;
      const bool may_keep = count == nullptr || (count->value & (w == Width::b64 ? 63 : 31)) == 0;
      fx.reads_flags = may_keep ? kAllFlags : 0;
      fx.writes_flags = kAllFlags;
      break;
    }
    case Mnemonic::kPush: read(0); stack(); break;
    case Mnemonic::kPop: write(0, Width::b64); stack(); break;
    case Mnemonic::kPushfq: stack(); fx.reads_flags = kAllFlags; break;
    case Mnemonic::kPopfq: stack(); fx.writes_flags = kAllFlags; break;
    case Mnemonic::kJmp: read(0); fx.flow = Flow::kJump; break;
    case Mnemonic::kJcc: read(0); fx.reads_flags = tested; fx.flow = Flow::kBranch; break;
    case Mnemonic::kCall: read(0); link(fx.writes); fx.flow = Flow::kCall; break;
    case Mnemonic::kJmpReg: read(0); fx.flow = Flow::kIndirectJump; break;
    case Mnemonic::kCallReg: read(0); link(fx.writes); fx.flow = Flow::kIndirectCall; break;
    case Mnemonic::kRet: link(fx.reads); fx.flow = Flow::kReturn; break;
    case Mnemonic::kSetcc: write(0, Width::b8); fx.reads_flags = tested; break;
    // A false condition keeps the destination (at 32 bits, zero-extended).
    case Mnemonic::kCmovcc: update(0); read(1); fx.reads_flags = tested; break;
    case Mnemonic::kSyscall:  // rcx receives the return address, r11 the flags
      fx.reads = reg_bit(Reg::rax) | reg_bit(Reg::rdi) | reg_bit(Reg::rsi) | reg_bit(Reg::rdx);
      fx.writes = reg_bit(Reg::rax) | reg_bit(Reg::rcx) | reg_bit(Reg::r11);
      fx.reads_flags = kAllFlags;
      break;
    case Mnemonic::kNop: break;
    case Mnemonic::kHlt:
    case Mnemonic::kInt3:
    case Mnemonic::kUd2: fx.flow = Flow::kTrap; break;
    case Mnemonic::kReadFlags: write(0, w); fx.reads_flags = kAllFlags; break;
    case Mnemonic::kWriteFlags: read(0); fx.writes_flags = kAllFlags; break;
  }
  return fx;
}

}  // namespace r2r::isa
