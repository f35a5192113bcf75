// r2r::elf — in-memory model of a minimal ELF64 executable.
//
// An Image is the interchange format between the assembler/reassembler
// (which produce images), the emulator loader (which maps them), and the
// recovery layer (which disassembles them). Each Segment doubles as a
// section: the writer emits one PT_LOAD program header and one section
// header per entry, so tools and the reader can rely on names.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace r2r::elf {

/// Segment permission bits (match ELF p_flags).
enum SegmentFlags : std::uint32_t {
  kExecute = 1,
  kWrite = 2,
  kRead = 4,
};

struct Segment {
  std::string name;            ///< section-style name: ".text", ".data", ...
  std::uint64_t vaddr = 0;
  std::uint32_t flags = kRead;
  std::vector<std::uint8_t> data;
  std::uint64_t mem_size = 0;  ///< >= data.size(); excess is zero-filled (bss)

  [[nodiscard]] std::uint64_t size_in_memory() const noexcept {
    return mem_size > data.size() ? mem_size : data.size();
  }
  [[nodiscard]] bool contains(std::uint64_t address) const noexcept {
    return address >= vaddr && address < vaddr + size_in_memory();
  }
};

struct Symbol {
  std::string name;
  std::uint64_t value = 0;
  bool global = false;
  bool is_code = false;
};

struct Image {
  std::uint64_t entry = 0;
  /// ELF e_machine of the code in this image (62 = EM_X86_64, the default;
  /// 243 = EM_RISCV). isa::arch_from_elf_machine maps it to a Target — the
  /// elf layer itself stays ISA-agnostic.
  std::uint16_t machine = 62;
  std::vector<Segment> segments;
  std::vector<Symbol> symbols;

  [[nodiscard]] const Segment* find_segment(std::string_view name) const noexcept;
  [[nodiscard]] Segment* find_segment(std::string_view name) noexcept;
  [[nodiscard]] const Segment* segment_containing(std::uint64_t address) const noexcept;
  [[nodiscard]] const Symbol* find_symbol(std::string_view name) const noexcept;
  /// Total bytes of executable segments — the paper's "code size" metric.
  [[nodiscard]] std::uint64_t code_size() const noexcept;
};

/// Serializes to a valid ELF64 executable byte stream.
std::vector<std::uint8_t> write_elf(const Image& image);

/// Parses an ELF produced by write_elf (or any static ELF64 using the same
/// subset of features). Throws Error{kElf} on malformed input.
Image read_elf(std::span<const std::uint8_t> bytes);

/// Code-size overhead of `hardened` over `original` bytes in percent (the
/// paper's Table V metric); 0 when `original` is 0.
[[nodiscard]] inline double overhead_percent(std::uint64_t original,
                                             std::uint64_t hardened) noexcept {
  if (original == 0) return 0.0;
  return 100.0 * (static_cast<double>(hardened) - static_cast<double>(original)) /
         static_cast<double>(original);
}

}  // namespace r2r::elf
