#include "isa/semantics.h"

namespace r2r::isa {

bool is_terminator(const Instruction& instr) noexcept {
  switch (instr.mnemonic) {
    case Mnemonic::kJmp:
    case Mnemonic::kJmpReg:
    case Mnemonic::kRet:
    case Mnemonic::kHlt:
    case Mnemonic::kUd2:
    case Mnemonic::kInt3:
      return true;
    default:
      return false;
  }
}

bool is_control_flow(const Instruction& instr) noexcept {
  switch (instr.mnemonic) {
    case Mnemonic::kJmp:
    case Mnemonic::kJcc:
    case Mnemonic::kCall:
    case Mnemonic::kJmpReg:
    case Mnemonic::kCallReg:
    case Mnemonic::kRet:
      return true;
    default:
      return false;
  }
}

bool is_cond_branch(const Instruction& instr) noexcept {
  return instr.mnemonic == Mnemonic::kJcc;
}

bool writes_flags(const Instruction& instr) noexcept {
  switch (instr.mnemonic) {
    case Mnemonic::kAdd:
    case Mnemonic::kSub:
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
    case Mnemonic::kXor:
    case Mnemonic::kCmp:
    case Mnemonic::kTest:
    case Mnemonic::kNeg:
    case Mnemonic::kInc:
    case Mnemonic::kDec:
    case Mnemonic::kImul:
    case Mnemonic::kShl:
    case Mnemonic::kShr:
    case Mnemonic::kSar:
    case Mnemonic::kPopfq:
    case Mnemonic::kWriteFlags:
      return true;
    default:
      return false;
  }
}

bool reads_flags(const Instruction& instr) noexcept {
  switch (instr.mnemonic) {
    case Mnemonic::kJcc:
    case Mnemonic::kSetcc:
    case Mnemonic::kCmovcc:
    case Mnemonic::kPushfq:
    case Mnemonic::kReadFlags:
      return true;
    default:
      return false;
  }
}

}  // namespace r2r::isa
