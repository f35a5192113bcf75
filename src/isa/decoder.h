// r2r::isa — machine-code decoder for the x86-64 subset.
//
// try_decode() is the one decoder. It understands every byte sequence the
// encoder can produce plus the short (rel8) branch forms, and reports
// anything else as a DecodeStatus that formats nothing: bit-flip campaigns
// feed it junk on most faulted steps, so its failure path is as hot as its
// success path. decode() is the thin wrapper for host callers; it throws
// the Error{kDecode} that decode_error() builds. Fault campaigns rely on
// this split: a bit flip may turn an instruction into a *different valid*
// instruction (which then executes) or into junk (which the emulator
// reports as an invalid-opcode crash) — both behaviours mirror real
// hardware.
#pragma once

#include <cstdint>
#include <span>

#include "isa/instruction.h"
#include "support/error.h"

namespace r2r::isa {

/// Architectural upper bound on one instruction's encoding. Fetch windows
/// (the emulator's per-step fetch, the decoded-block builder) and bit-flip
/// fault planning are all sized against this one constant.
inline constexpr std::size_t kMaxInstructionLength = 15;

struct Decoded {
  Instruction instr;
  std::uint8_t length = 0;  ///< bytes consumed
};

/// Outcome of a non-throwing decode, shared by every target. A failure
/// carries only what its message needs — static text plus, for some
/// forms, one number — and decode_error() formats it, only once a decode
/// has failed. The first failed check in the decoder's source order is
/// the one reported.
struct DecodeStatus {
  enum class Form : std::uint8_t {
    kOk,        ///< decoded
    kReason,    ///< "<reason>"
    kWord,      ///< "<reason> (word <value>)": the rejected fixed-width word
    kRegister,  ///< "register x<value> is not in the <reason> register file"
  };
  Form form = Form::kOk;
  const char* reason = "";  ///< static text
  std::uint32_t value = 0;

  [[nodiscard]] bool ok() const noexcept { return form == Form::kOk; }
};

/// The Error{kDecode} that decode() throws for a failed `status`.
[[nodiscard]] support::Error decode_error(const DecodeStatus& status);

/// Decodes one instruction located at virtual address `address` into `out`.
/// PC-relative branch targets and RIP-relative displacements are converted
/// to absolute addresses. Invalid encodings are reported as the returned
/// status, never thrown; on failure `out` is unspecified. `out` is filled
/// in place (its operand list cleared and refilled), so a warm Decoded
/// decodes without allocating.
DecodeStatus try_decode(std::span<const std::uint8_t> bytes, std::uint64_t address,
                        Decoded& out);

/// try_decode() for host callers: throws decode_error() on invalid
/// encodings.
Decoded decode(std::span<const std::uint8_t> bytes, std::uint64_t address);

}  // namespace r2r::isa
