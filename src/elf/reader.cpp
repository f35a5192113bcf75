// ELF64 reader for the feature subset write_elf() emits.
#include <limits>

#include "elf/image.h"
#include "support/bytes.h"
#include "support/error.h"

namespace r2r::elf {

namespace {

using support::ByteReader;
using support::check;
using support::ErrorKind;

/// True when [offset, offset + size) lies inside a file of `file_size`
/// bytes. Compared as room left past `offset`, which cannot wrap.
bool in_file(std::uint64_t offset, std::uint64_t size, std::size_t file_size) noexcept {
  return offset <= file_size && size <= file_size - offset;
}

std::string read_cstring(std::span<const std::uint8_t> table, std::uint64_t offset) {
  std::string out;
  while (offset < table.size() && table[offset] != 0) {
    out.push_back(static_cast<char>(table[offset]));
    ++offset;
  }
  return out;
}

}  // namespace

Image read_elf(std::span<const std::uint8_t> bytes) {
  check(bytes.size() >= 64, ErrorKind::kElf, "file shorter than ELF header");
  ByteReader reader(bytes);
  check(reader.read_u8() == 0x7F && reader.read_u8() == 'E' && reader.read_u8() == 'L' &&
            reader.read_u8() == 'F',
        ErrorKind::kElf, "bad ELF magic");
  check(reader.read_u8() == 2, ErrorKind::kElf, "not ELFCLASS64");
  check(reader.read_u8() == 1, ErrorKind::kElf, "not little-endian");
  reader.seek(16);
  const std::uint16_t type = reader.read_u16();
  check(type == 2, ErrorKind::kElf, "not ET_EXEC");
  const std::uint16_t machine = reader.read_u16();
  check(machine == 62 || machine == 243, ErrorKind::kElf,
        "unsupported e_machine (want EM_X86_64 or EM_RISCV)");
  reader.read_u32();  // version
  Image image;
  image.machine = machine;
  image.entry = reader.read_u64();
  const std::uint64_t phoff = reader.read_u64();
  const std::uint64_t shoff = reader.read_u64();
  reader.read_u32();  // flags
  reader.read_u16();  // ehsize
  const std::uint16_t phentsize = reader.read_u16();
  const std::uint16_t phnum = reader.read_u16();
  const std::uint16_t shentsize = reader.read_u16();
  const std::uint16_t shnum = reader.read_u16();
  const std::uint16_t shstrndx = reader.read_u16();
  check(phentsize == 56 && (shnum == 0 || shentsize == 64), ErrorKind::kElf,
        "unexpected header entry sizes");

  struct RawPhdr {
    std::uint32_t flags;
    std::uint64_t offset, vaddr, filesz, memsz;
  };
  std::vector<RawPhdr> phdrs;
  for (std::uint16_t i = 0; i < phnum; ++i) {
    reader.seek(phoff + static_cast<std::uint64_t>(i) * phentsize);
    const std::uint32_t p_type = reader.read_u32();
    const std::uint32_t p_flags = reader.read_u32();
    const std::uint64_t p_offset = reader.read_u64();
    const std::uint64_t p_vaddr = reader.read_u64();
    reader.read_u64();  // p_paddr
    const std::uint64_t p_filesz = reader.read_u64();
    const std::uint64_t p_memsz = reader.read_u64();
    if (p_type != 1) continue;  // only PT_LOAD
    phdrs.push_back({p_flags, p_offset, p_vaddr, p_filesz, p_memsz});
  }

  struct RawShdr {
    std::uint32_t name, type, link;
    std::uint64_t flags, addr, offset, size, entsize;
    std::uint32_t info;
  };
  std::vector<RawShdr> shdrs;
  for (std::uint16_t i = 0; i < shnum; ++i) {
    reader.seek(shoff + static_cast<std::uint64_t>(i) * shentsize);
    RawShdr sh{};
    sh.name = reader.read_u32();
    sh.type = reader.read_u32();
    sh.flags = reader.read_u64();
    sh.addr = reader.read_u64();
    sh.offset = reader.read_u64();
    sh.size = reader.read_u64();
    sh.link = reader.read_u32();
    sh.info = reader.read_u32();
    reader.read_u64();  // addralign
    sh.entsize = reader.read_u64();
    shdrs.push_back(sh);
  }

  std::span<const std::uint8_t> shstrtab;
  if (shstrndx < shdrs.size()) {
    const RawShdr& sh = shdrs[shstrndx];
    check(in_file(sh.offset, sh.size, bytes.size()), ErrorKind::kElf, "shstrtab out of range");
    shstrtab = bytes.subspan(sh.offset, sh.size);
  }

  for (const RawPhdr& ph : phdrs) {
    check(in_file(ph.offset, ph.filesz, bytes.size()), ErrorKind::kElf, "segment out of range");
    check(ph.memsz >= ph.filesz, ErrorKind::kElf, "segment p_memsz is below p_filesz");
    check(ph.memsz <= std::numeric_limits<std::uint64_t>::max() - ph.vaddr, ErrorKind::kElf,
          "segment wraps the address space");
    Segment segment;
    segment.vaddr = ph.vaddr;
    segment.flags = ph.flags;
    segment.mem_size = ph.memsz;
    segment.data.assign(bytes.begin() + static_cast<std::ptrdiff_t>(ph.offset),
                        bytes.begin() + static_cast<std::ptrdiff_t>(ph.offset + ph.filesz));
    // Name the segment from a matching allocatable section, if any.
    for (const RawShdr& sh : shdrs) {
      if (sh.type == 1 && sh.addr == ph.vaddr && !shstrtab.empty()) {
        segment.name = read_cstring(shstrtab, sh.name);
        break;
      }
    }
    if (segment.name.empty()) {
      segment.name = (ph.flags & kExecute) != 0 ? ".text" : ".data";
    }
    image.segments.push_back(std::move(segment));
  }

  // Symbols.
  for (std::size_t i = 0; i < shdrs.size(); ++i) {
    const RawShdr& sh = shdrs[i];
    if (sh.type != 2) continue;  // SHT_SYMTAB
    check(sh.link < shdrs.size(), ErrorKind::kElf, "symtab strtab link out of range");
    const RawShdr& str = shdrs[sh.link];
    check(in_file(str.offset, str.size, bytes.size()), ErrorKind::kElf, "strtab out of range");
    check(in_file(sh.offset, sh.size, bytes.size()), ErrorKind::kElf, "symtab out of range");
    const auto strtab = bytes.subspan(str.offset, str.size);
    check(sh.entsize == 24, ErrorKind::kElf, "unexpected symbol entry size");
    const std::size_t count = sh.size / 24;
    for (std::size_t s = 1; s < count; ++s) {  // skip null symbol
      reader.seek(sh.offset + s * 24);
      const std::uint32_t name_offset = reader.read_u32();
      const std::uint8_t info = reader.read_u8();
      reader.read_u8();
      reader.read_u16();
      const std::uint64_t value = reader.read_u64();
      Symbol symbol;
      symbol.name = read_cstring(strtab, name_offset);
      symbol.value = value;
      symbol.global = (info >> 4) == 1;
      symbol.is_code = (info & 0xF) == 2;
      image.symbols.push_back(std::move(symbol));
    }
  }

  return image;
}

}  // namespace r2r::elf
