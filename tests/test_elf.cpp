// ELF container: write/read round-trips, structure validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "elf/image.h"
#include "guests/guests.h"
#include "support/error.h"

namespace r2r::elf {
namespace {

Image sample_image() {
  Image image;
  image.entry = 0x400010;
  Segment text;
  text.name = ".text";
  text.vaddr = 0x400000;
  text.flags = kRead | kExecute;
  text.data = {0x90, 0xC3};
  image.segments.push_back(text);
  Segment data;
  data.name = ".data";
  data.vaddr = 0x600000;
  data.flags = kRead | kWrite;
  data.data = {1, 2, 3, 4};
  data.mem_size = 32;  // bss tail
  image.segments.push_back(data);
  image.symbols.push_back(Symbol{"_start", 0x400010, true, true});
  image.symbols.push_back(Symbol{"buffer", 0x600000, false, false});
  return image;
}

TEST(ElfRoundTrip, PreservesEntrySegmentsAndSymbols) {
  const Image original = sample_image();
  const std::vector<std::uint8_t> bytes = write_elf(original);
  const Image parsed = read_elf(bytes);

  EXPECT_EQ(parsed.entry, original.entry);
  ASSERT_EQ(parsed.segments.size(), 2u);
  EXPECT_EQ(parsed.segments[0].name, ".text");
  EXPECT_EQ(parsed.segments[0].vaddr, 0x400000u);
  EXPECT_EQ(parsed.segments[0].flags, kRead | kExecute);
  EXPECT_EQ(parsed.segments[0].data, original.segments[0].data);
  EXPECT_EQ(parsed.segments[1].mem_size, 32u);

  ASSERT_EQ(parsed.symbols.size(), 2u);
  const Symbol* start = parsed.find_symbol("_start");
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->value, 0x400010u);
  EXPECT_TRUE(start->global);
  EXPECT_TRUE(start->is_code);
  const Symbol* buffer = parsed.find_symbol("buffer");
  ASSERT_NE(buffer, nullptr);
  EXPECT_FALSE(buffer->global);
  EXPECT_FALSE(buffer->is_code);
}

TEST(ElfRoundTrip, FileOffsetsAreCongruentToVaddr) {
  // Loaders require p_offset ≡ p_vaddr (mod page); verify via re-parse of
  // the raw program headers.
  const std::vector<std::uint8_t> bytes = write_elf(sample_image());
  const auto read_u64 = [&bytes](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes[at + i]} << (8 * i);
    return v;
  };
  const std::uint64_t phoff = read_u64(0x20);
  const std::uint16_t phnum = static_cast<std::uint16_t>(bytes[0x38] | (bytes[0x39] << 8));
  for (std::uint16_t i = 0; i < phnum; ++i) {
    const std::size_t ph = phoff + i * 56;
    const std::uint64_t offset = read_u64(ph + 8);
    const std::uint64_t vaddr = read_u64(ph + 16);
    EXPECT_EQ(offset % 0x1000, vaddr % 0x1000);
  }
}

TEST(ElfRoundTrip, MagicAndHeaderConstants) {
  const std::vector<std::uint8_t> bytes = write_elf(sample_image());
  EXPECT_EQ(bytes[0], 0x7F);
  EXPECT_EQ(bytes[1], 'E');
  EXPECT_EQ(bytes[4], 2);  // ELFCLASS64
  EXPECT_EQ(bytes[5], 1);  // little-endian
  EXPECT_EQ(bytes[16], 2);  // ET_EXEC
  EXPECT_EQ(bytes[18], 62);  // EM_X86_64
}

TEST(ElfReader, RejectsMalformedInput) {
  std::vector<std::uint8_t> bytes = write_elf(sample_image());
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] = 0;
  EXPECT_THROW(read_elf(bad_magic), support::Error);

  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + 32);
  EXPECT_THROW(read_elf(truncated), support::Error);

  std::vector<std::uint8_t> wrong_class = bytes;
  wrong_class[4] = 1;  // ELFCLASS32
  EXPECT_THROW(read_elf(wrong_class), support::Error);
}

// ---- byte boundaries: mutated toymov images -----------------------------------
// Each field below is read as a 64-bit offset or size; values near 2^64 used
// to wrap the `offset + size <= file size` checks.

constexpr std::uint64_t kNearTop = std::numeric_limits<std::uint64_t>::max() - 7;  // 2^64 - 8

std::uint64_t get_u64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= std::uint64_t{bytes[at + i]} << (8 * i);
  return value;
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

std::vector<std::uint8_t> toymov_bytes() {
  return write_elf(guests::build_image(guests::toymov()));
}

/// File offset of the first program header's field at `field` (p_offset 8,
/// p_vaddr 16, p_filesz 32, p_memsz 40).
std::size_t first_phdr(const std::vector<std::uint8_t>& bytes, std::size_t field) {
  return get_u64(bytes, 0x20) + field;
}

/// File offset of section header `index`'s field at `field` (sh_offset 24).
std::size_t shdr(const std::vector<std::uint8_t>& bytes, std::size_t index, std::size_t field) {
  return get_u64(bytes, 0x28) + index * 64 + field;
}

void expect_elf_error(const std::vector<std::uint8_t>& bytes, const std::string& message) {
  try {
    (void)read_elf(bytes);
    ADD_FAILURE() << "read_elf accepted the image; expected: " << message;
  } catch (const support::Error& error) {
    EXPECT_EQ(error.kind(), support::ErrorKind::kElf);
    EXPECT_NE(std::string(error.what()).find(message), std::string::npos) << error.what();
  }
}

TEST(ElfReader, SegmentOffsetNearTwoToThe64IsOutOfRange) {
  std::vector<std::uint8_t> bytes = toymov_bytes();
  put_u64(bytes, first_phdr(bytes, 8), kNearTop);
  expect_elf_error(bytes, "segment out of range");
}

TEST(ElfReader, SectionNameTableOffsetNearTwoToThe64IsOutOfRange) {
  std::vector<std::uint8_t> bytes = toymov_bytes();
  const std::size_t shstrndx = bytes[0x3E] | (bytes[0x3F] << 8);
  put_u64(bytes, shdr(bytes, shstrndx, 24), kNearTop);
  expect_elf_error(bytes, "shstrtab out of range");
}

TEST(ElfReader, SymbolStringTableOffsetNearTwoToThe64IsOutOfRange) {
  std::vector<std::uint8_t> bytes = toymov_bytes();
  const std::size_t shnum = bytes[0x3C] | (bytes[0x3D] << 8);
  bool mutated = false;
  for (std::size_t i = 0; i < shnum && !mutated; ++i) {
    if (bytes[shdr(bytes, i, 4)] != 2) continue;  // SHT_SYMTAB
    const std::size_t link = bytes[shdr(bytes, i, 40)];
    put_u64(bytes, shdr(bytes, link, 24), kNearTop);
    mutated = true;
  }
  ASSERT_TRUE(mutated) << "toymov has no symbol table";
  expect_elf_error(bytes, "strtab out of range");
}

TEST(ElfReader, SegmentMemorySizeBelowFileSizeIsRejected) {
  std::vector<std::uint8_t> bytes = toymov_bytes();
  const std::uint64_t filesz = get_u64(bytes, first_phdr(bytes, 32));
  ASSERT_GT(filesz, 0u);
  put_u64(bytes, first_phdr(bytes, 40), filesz - 1);
  expect_elf_error(bytes, "p_memsz is below p_filesz");
}

TEST(ElfReader, SegmentWrappingTheAddressSpaceIsRejected) {
  std::vector<std::uint8_t> bytes = toymov_bytes();
  const std::uint64_t memsz = get_u64(bytes, first_phdr(bytes, 40));
  put_u64(bytes, first_phdr(bytes, 16), std::numeric_limits<std::uint64_t>::max() - memsz + 2);
  expect_elf_error(bytes, "wraps the address space");
}

TEST(ElfImage, QueriesWork) {
  const Image image = sample_image();
  EXPECT_EQ(image.code_size(), 2u);
  EXPECT_NE(image.find_segment(".text"), nullptr);
  EXPECT_EQ(image.find_segment(".bss"), nullptr);
  EXPECT_EQ(image.segment_containing(0x400001)->name, ".text");
  EXPECT_EQ(image.segment_containing(0x600010)->name, ".data");  // bss tail
  EXPECT_EQ(image.segment_containing(0x700000), nullptr);
}

TEST(ElfRoundTrip, EmptySymbolTable) {
  Image image = sample_image();
  image.symbols.clear();
  const Image parsed = read_elf(write_elf(image));
  EXPECT_TRUE(parsed.symbols.empty());
  EXPECT_EQ(parsed.segments.size(), 2u);
}

}  // namespace
}  // namespace r2r::elf
