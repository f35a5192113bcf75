// The seed target: the in-house x86-64 subset. Wraps the free-function
// codec (encoder.cpp / decoder.cpp) and the x86 register-file syntax.
#include "isa/decoder.h"
#include "isa/encoder.h"
#include "isa/target.h"

namespace r2r::isa {

namespace {

class X64Target final : public Target {
 public:
  [[nodiscard]] Arch arch() const noexcept override { return Arch::kX64; }
  [[nodiscard]] std::string_view name() const noexcept override { return "x64"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "x86-64 subset (variable-length, flags register, stack calls)";
  }

  [[nodiscard]] std::size_t max_instruction_length() const noexcept override {
    return kMaxInstructionLength;
  }

  [[nodiscard]] DecodeStatus try_decode(std::span<const std::uint8_t> bytes,
                                        std::uint64_t address,
                                        Decoded& out) const override {
    return isa::try_decode(bytes, address, out);
  }

  [[nodiscard]] Encoding encode(const Instruction& instr,
                                std::uint64_t address) const override {
    return isa::encode(instr, address);
  }

  [[nodiscard]] std::size_t short_branch_length() const noexcept override {
    return kShortBranchLength;
  }

  [[nodiscard]] Encoding encode_short_branch(const Instruction& instr,
                                             std::uint64_t address) const override {
    return isa::encode_short_branch(instr, address);
  }

  [[nodiscard]] std::string_view reg_name(Reg reg, Width width) const noexcept override {
    return isa::reg_name(reg, width);
  }

  [[nodiscard]] std::optional<std::pair<Reg, Width>> parse_reg(
      std::string_view name) const noexcept override {
    return isa::parse_reg_name(name);
  }

  [[nodiscard]] std::string_view pc_token() const noexcept override { return "rip"; }

  [[nodiscard]] Width natural_width() const noexcept override { return Width::b64; }

  [[nodiscard]] std::uint64_t stack_base() const noexcept override {
    return 0x7FFF'0000'0000;
  }

  [[nodiscard]] bool link_register_calls() const noexcept override { return false; }

  [[nodiscard]] const LowerCaps& lower_caps() const noexcept override {
    static const LowerCaps kCaps{};  // the defaults describe x86-64
    return kCaps;
  }

  [[nodiscard]] const PatternTraits& pattern_traits() const noexcept override {
    static const PatternTraits kTraits{};  // defaults: stack-saved flags
    return kTraits;
  }
};

}  // namespace

namespace detail {

const Target& x64_target() noexcept {
  static const X64Target kTarget;
  return kTarget;
}

}  // namespace detail

}  // namespace r2r::isa
