// r2r::isa — the Target interface: everything the pipeline needs to know
// about one instruction set, behind virtual dispatch.
//
// The shared pipeline IR is the abstract isa::Instruction (mnemonic + cond +
// width + operands). A Target supplies the per-ISA pieces around it:
//
//   * machine-code codec     try_decode() / encode() / encode_short_branch()
//     (decode() is the base class's throwing wrapper over try_decode())
//   * register file syntax   reg_name() / parse_reg()
//   * assembler dialect      print() / parse_instruction() / parse_assembly()
//     (the two-operand Intel-like dialect is shared; targets only differ in
//      register names, width prefixes and immediate ranges)
//   * machine model          natural_width() / stack_base() / call linkage
//   * legalization tables    lower_caps() — what the lowering stage may emit
//   * patch-pattern tables   pattern_traits() — how Tables I–III save flags
//     and obtain scratch registers on this ISA
//
// Targets are stateless singletons; `target(Arch)` and `find_target(name)`
// return references with static storage duration. docs/targets.md documents
// the contract and the checklist for adding a backend.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "isa/asm_parser.h"
#include "isa/decoder.h"
#include "isa/encoder.h"
#include "isa/instruction.h"

namespace r2r::isa {

enum class Arch : std::uint8_t {
  kX64,    ///< the in-house x86-64 subset (seed target)
  kRv32i,  ///< RISC-V RV32I with the r2r custom-0/custom-1 flag extension
};

/// Name used by the `--target` CLI flag ("x64", "rv32i").
std::string_view to_string(Arch arch) noexcept;

/// The operand shapes the lowering stage chooses between on this target:
/// where a shape is missing (no cmov, no store-immediate, a narrow
/// immediate range, ...), lower:: emits a fallback sequence instead (and
/// refuses a multiply without has_mul). Shapes lowering never emits (ALU
/// memory operands, push/pop, scaled indexing) have no cap.
struct LowerCaps {
  Width natural_width = Width::b64;  ///< register width of the machine
  bool has_cmov = true;              ///< conditional move exists
  bool store_immediate = true;       ///< mov [mem], imm is encodable
  bool absolute_addressing = true;   ///< bare [absolute] memory operands
  bool sub_immediate = true;         ///< sub reg, imm is encodable
  bool has_mul = true;               ///< two-operand multiply exists
  std::int64_t min_alu_imm = INT32_MIN;  ///< ALU/cmp immediate range
  std::int64_t max_alu_imm = INT32_MAX;
};

/// How the Tables I–III reinforcement patterns are instantiated on this
/// target: how live flags are saved around a verification compare and which
/// registers the patterns may clobber without saving.
struct PatternTraits {
  /// Flags live across a pattern are preserved by...
  enum class FlagSave : std::uint8_t {
    kStack,     ///< lea rsp-128 + pushfq / popfq (x86-64, Table I verbatim)
    kRegister,  ///< mvflags/wrflags into a reserved scratch register
  };
  FlagSave flag_save = FlagSave::kStack;
  Reg flag_scratch = Reg::r13;   ///< kRegister only: holds the flags image
  Reg value_scratch_a = Reg::r14;  ///< reserved compare/copy scratch
  Reg value_scratch_b = Reg::r15;  ///< reserved compare/copy scratch
};

class Target {
 public:
  virtual ~Target() = default;

  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  // ---- identity ------------------------------------------------------------
  [[nodiscard]] virtual Arch arch() const noexcept = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  // ---- machine-code codec --------------------------------------------------
  /// Upper bound on one instruction's encoding on this target. Fetch windows
  /// and bit-flip fault planning are sized against this.
  [[nodiscard]] virtual std::size_t max_instruction_length() const noexcept = 0;

  /// The target's one decoder: decodes one instruction at virtual address
  /// `address` into `out`, with PC-relative fields made absolute. Junk is
  /// reported as the returned status, which formats nothing and is never
  /// thrown; on failure `out` is unspecified. `out` is filled in place:
  /// its operand list is cleared and refilled, so decoding into a reused
  /// Decoded allocates nothing. The emulator's hot path calls this.
  [[nodiscard]] virtual DecodeStatus try_decode(std::span<const std::uint8_t> bytes,
                                                std::uint64_t address,
                                                Decoded& out) const = 0;

  /// try_decode() for host callers: throws decode_error() on junk.
  [[nodiscard]] Decoded decode(std::span<const std::uint8_t> bytes,
                               std::uint64_t address) const;

  /// Encodes one fully resolved instruction placed at `address`, without
  /// allocating. Throws Error{kEncode} for instructions outside the
  /// target's subset.
  [[nodiscard]] virtual Encoding encode(const Instruction& instr,
                                        std::uint64_t address) const = 0;

  /// Length of the short form of a jmp or jcc, whose displacement is a
  /// signed byte measured from the branch's end; 0 when the target's
  /// branches have one width (rv32i). bir::assemble gives each label
  /// branch of a relaxed module this form where the displacement fits.
  [[nodiscard]] virtual std::size_t short_branch_length() const noexcept { return 0; }

  /// Encodes a resolved jmp or jcc in its short form. Throws
  /// Error{kEncode} when the target has none or the displacement does not
  /// fit in it.
  [[nodiscard]] virtual Encoding encode_short_branch(const Instruction& instr,
                                                     std::uint64_t address) const;

  // ---- register-file syntax ------------------------------------------------
  [[nodiscard]] virtual std::string_view reg_name(Reg reg, Width width) const noexcept = 0;
  [[nodiscard]] virtual std::optional<std::pair<Reg, Width>> parse_reg(
      std::string_view name) const noexcept = 0;

  /// Spelling of the program counter inside memory operands ("rip"), or
  /// empty when the target has no PC-relative addressing.
  [[nodiscard]] virtual std::string_view pc_token() const noexcept = 0;

  // ---- assembler dialect (shared machinery, per-target registers) ----------
  [[nodiscard]] std::string print(const Instruction& instr) const;
  [[nodiscard]] Instruction parse_instruction(std::string_view line) const;
  [[nodiscard]] SourceProgram parse_assembly(std::string_view text) const;

  // ---- machine model -------------------------------------------------------
  /// Width of a full machine register; the default operation width of the
  /// assembler dialect and of lowered/synthesized code.
  [[nodiscard]] virtual Width natural_width() const noexcept = 0;

  /// Top of the emulated stack mapping (stack grows down from here).
  [[nodiscard]] virtual std::uint64_t stack_base() const noexcept = 0;

  /// True when call/ret use a link register instead of pushing the return
  /// address on the stack.
  [[nodiscard]] virtual bool link_register_calls() const noexcept = 0;

  /// Abstract register holding the return address on link-register targets.
  [[nodiscard]] virtual Reg link_register() const noexcept { return Reg::r12; }

  // ---- per-target pipeline tables ------------------------------------------
  [[nodiscard]] virtual const LowerCaps& lower_caps() const noexcept = 0;
  [[nodiscard]] virtual const PatternTraits& pattern_traits() const noexcept = 0;

 protected:
  Target() = default;
};

/// The registered target for `arch`. Always valid.
const Target& target(Arch arch) noexcept;

/// Looks a target up by its CLI name ("x64", "rv32i"); nullptr if unknown.
const Target* find_target(std::string_view name) noexcept;

/// All registered targets, in Arch order.
std::span<const Target* const> all_targets() noexcept;

// ---- ELF binding -----------------------------------------------------------
// elf::Image stays ISA-agnostic; it records the e_machine value and the
// mapping to Arch lives here.

/// Arch for an ELF e_machine value (62 = EM_X86_64, 243 = EM_RISCV).
std::optional<Arch> arch_from_elf_machine(std::uint16_t machine) noexcept;

/// ELF e_machine value for `arch`.
std::uint16_t elf_machine(Arch arch) noexcept;

namespace detail {
const Target& x64_target() noexcept;
const Target& rv32i_target() noexcept;
}  // namespace detail

}  // namespace r2r::isa
