// r2r::svc — the r2rd framing layer: length-prefixed field messages over
// file descriptors (the daemon's Unix socket, the worker pipes).
//
// One frame is one message; a message is an ordered list of (key, value)
// string fields. Values are arbitrary bytes (reports, ELF images, guest
// inputs), so every length travels explicitly — nothing is delimiter-
// scanned. The full grammar (and the protocol built on top of it) is
// documented in docs/r2rd.md:
//
//   frame   := <decimal payload-length> '\n' payload
//   payload := <decimal field-count> '\n' field*
//   field   := <decimal key-length> ' ' <decimal value-length> '\n' key value
//
// Frames are bounded (kMaxFrameBytes) so a malformed or hostile peer
// cannot make the daemon allocate unboundedly. All reads handle short
// reads/EINTR; EOF mid-frame is an error, EOF at a frame boundary is a
// clean close (read_message returns nullopt).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace r2r::svc {

/// Ordered field list with last-wins lookup. Encoding then decoding a
/// Message round-trips it exactly (field order included), so a frame's
/// bytes are a deterministic function of its fields.
class Message {
 public:
  void set(std::string key, std::string value) {
    fields_.emplace_back(std::move(key), std::move(value));
  }
  void set_u64(std::string key, std::uint64_t value) {
    set(std::move(key), std::to_string(value));
  }

  [[nodiscard]] bool has(std::string_view key) const noexcept;
  /// Last field with `key`, or nullopt.
  [[nodiscard]] std::optional<std::string_view> get(std::string_view key) const noexcept;
  [[nodiscard]] std::string get_or(std::string_view key, std::string fallback) const;
  /// Parses the field as an unsigned integer; throws Error{kParse} when the
  /// field is present but not an integer in [0, max]. A reader that narrows
  /// the value passes its type's maximum, so nothing wraps.
  [[nodiscard]] std::uint64_t get_u64_or(
      std::string_view key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& fields()
      const noexcept {
    return fields_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Hard ceiling on one frame's payload (64 MiB — comfortably above any
/// report or hardened ELF this pipeline emits).
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Serializes `message` into frame bytes (deterministic).
[[nodiscard]] std::string encode_message(const Message& message);
/// Parses one payload produced by encode_message (without the outer frame
/// length). Throws Error{kParse} on malformed input.
[[nodiscard]] Message decode_message(std::string_view payload);

/// Writes one frame to `fd`, handling short writes. Throws
/// Error{kExecution} on a write failure (e.g. the peer died).
void write_message(int fd, const Message& message);

/// Reads one frame from `fd`. Returns nullopt on a clean EOF at a frame
/// boundary; throws Error{kParse} on a malformed frame and
/// Error{kExecution} on EOF mid-frame or a read failure.
[[nodiscard]] std::optional<Message> read_message(int fd);

}  // namespace r2r::svc
