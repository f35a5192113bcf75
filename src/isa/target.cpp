#include "isa/target.h"

#include <array>
#include <string>

#include "support/error.h"

namespace r2r::isa {

std::string_view to_string(Arch arch) noexcept {
  switch (arch) {
    case Arch::kX64: return "x64";
    case Arch::kRv32i: return "rv32i";
  }
  return "?";
}

Decoded Target::decode(std::span<const std::uint8_t> bytes, std::uint64_t address) const {
  Decoded out;
  const DecodeStatus status = try_decode(bytes, address, out);
  if (!status.ok()) [[unlikely]] throw decode_error(status);
  return out;
}

Encoding Target::encode_short_branch(const Instruction& /*instr*/,
                                     std::uint64_t /*address*/) const {
  support::fail(support::ErrorKind::kEncode,
                std::string(name()) + " branches have no short form");
}

namespace {

std::array<const Target*, 2> registry() noexcept {
  return {&detail::x64_target(), &detail::rv32i_target()};
}

}  // namespace

const Target& target(Arch arch) noexcept {
  return *registry()[static_cast<std::size_t>(arch)];
}

const Target* find_target(std::string_view name) noexcept {
  for (const Target* candidate : registry()) {
    if (candidate->name() == name) return candidate;
  }
  return nullptr;
}

std::span<const Target* const> all_targets() noexcept {
  static const std::array<const Target*, 2> kAll = registry();
  return kAll;
}

std::optional<Arch> arch_from_elf_machine(std::uint16_t machine) noexcept {
  switch (machine) {
    case 62: return Arch::kX64;    // EM_X86_64
    case 243: return Arch::kRv32i;  // EM_RISCV
    default: return std::nullopt;
  }
}

std::uint16_t elf_machine(Arch arch) noexcept {
  switch (arch) {
    case Arch::kX64: return 62;
    case Arch::kRv32i: return 243;
  }
  return 0;
}

}  // namespace r2r::isa
