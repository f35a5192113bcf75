// r2r::support — growable little-endian byte buffer plus read helpers.
// Used by the ELF writer and reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/error.h"

namespace r2r::support {

/// Append-oriented byte buffer with little-endian primitives.
class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return bytes_.empty(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && noexcept { return std::move(bytes_); }
  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept { return bytes_; }

  void append_u8(std::uint8_t v) { bytes_.push_back(v); }
  void append_u16(std::uint16_t v) {
    append_u8(static_cast<std::uint8_t>(v));
    append_u8(static_cast<std::uint8_t>(v >> 8));
  }
  void append_u32(std::uint32_t v) {
    append_u16(static_cast<std::uint16_t>(v));
    append_u16(static_cast<std::uint16_t>(v >> 16));
  }
  void append_u64(std::uint64_t v) {
    append_u32(static_cast<std::uint32_t>(v));
    append_u32(static_cast<std::uint32_t>(v >> 32));
  }
  void append_bytes(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over a byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - offset_; }
  void seek(std::size_t offset) {
    check(offset <= data_.size(), ErrorKind::kInvalidArgument, "seek out of range");
    offset_ = offset;
  }

  std::uint8_t read_u8() {
    check(remaining() >= 1, ErrorKind::kDecode, "byte reader underrun");
    return data_[offset_++];
  }
  std::uint16_t read_u16() {
    const auto lo = read_u8();
    return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(read_u8()) << 8));
  }
  std::uint32_t read_u32() {
    const auto lo = read_u16();
    return lo | (static_cast<std::uint32_t>(read_u16()) << 16);
  }
  std::uint64_t read_u64() {
    const auto lo = read_u32();
    return lo | (static_cast<std::uint64_t>(read_u32()) << 32);
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace r2r::support
