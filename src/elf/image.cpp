#include "elf/image.h"

namespace r2r::elf {

const Segment* Image::find_segment(std::string_view name) const noexcept {
  for (const auto& segment : segments) {
    if (segment.name == name) return &segment;
  }
  return nullptr;
}

Segment* Image::find_segment(std::string_view name) noexcept {
  for (auto& segment : segments) {
    if (segment.name == name) return &segment;
  }
  return nullptr;
}

const Segment* Image::segment_containing(std::uint64_t address) const noexcept {
  for (const auto& segment : segments) {
    if (segment.contains(address)) return &segment;
  }
  return nullptr;
}

const Symbol* Image::find_symbol(std::string_view name) const noexcept {
  for (const auto& symbol : symbols) {
    if (symbol.name == name) return &symbol;
  }
  return nullptr;
}

std::uint64_t Image::code_size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& segment : segments) {
    if ((segment.flags & kExecute) != 0) total += segment.data.size();
  }
  return total;
}

}  // namespace r2r::elf
