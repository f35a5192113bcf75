// r2r::isa — machine-code encoder for the x86-64 subset, and the
// fixed-size Encoding every target's encoder returns.
//
// encode() produces genuine x86-64 bytes (REX / ModRM / SIB / disp / imm).
// The instruction must be fully resolved: branch targets and RIP-relative
// displacements are ImmOperand / MemOperand::disp holding *absolute*
// addresses; `address` is where the instruction will live so PC-relative
// fields can be computed.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "isa/instruction.h"
#include "support/error.h"

namespace r2r::isa {

/// One instruction's machine code, held inline so that encoding allocates
/// nothing. kCapacity covers every target's longest instruction (x86-64:
/// 15 bytes; rv32i: the 8-byte fused mov); appending past it throws
/// Error{kEncode} instead of writing out of bounds.
class Encoding {
 public:
  static constexpr std::size_t kCapacity = 16;

  void push_back(std::uint8_t byte) {
    if (size_ == kCapacity) [[unlikely]] {
      support::fail(support::ErrorKind::kEncode, "instruction exceeds the 16-byte encoding");
    }
    bytes_[size_++] = byte;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint8_t* data() noexcept { return bytes_.data(); }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return bytes_.data(); }
  [[nodiscard]] std::uint8_t* begin() noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] std::uint8_t* end() noexcept { return data() + size_; }
  [[nodiscard]] const std::uint8_t* end() const noexcept { return data() + size_; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept { return bytes_[i]; }

  friend bool operator==(const Encoding& a, const Encoding& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<std::uint8_t, kCapacity> bytes_{};
  std::uint8_t size_ = 0;
};

/// Encodes one instruction placed at `address`. Throws Error{kEncode} for
/// instructions outside the subset (e.g. 16-bit width, unresolved labels).
/// Branches take their rel32 form.
Encoding encode(const Instruction& instr, std::uint64_t address);

/// Length of a short branch: opcode and rel8.
inline constexpr std::size_t kShortBranchLength = 2;

/// Encodes a resolved jmp or jcc placed at `address` in its short form,
/// EB rel8 or 70+cc rel8, whose displacement is measured from the
/// branch's end. Throws Error{kEncode} for any other instruction and when
/// the target lies outside [-128, 127] of that end.
Encoding encode_short_branch(const Instruction& instr, std::uint64_t address);

}  // namespace r2r::isa
