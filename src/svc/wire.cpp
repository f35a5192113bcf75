#include "svc/wire.h"

#include <cerrno>
#include <cstring>
#include <unistd.h>

#include "support/error.h"
#include "support/strings.h"

namespace r2r::svc {

using support::ErrorKind;
using support::fail;

bool Message::has(std::string_view key) const noexcept {
  return get(key).has_value();
}

std::optional<std::string_view> Message::get(std::string_view key) const noexcept {
  for (auto it = fields_.rbegin(); it != fields_.rend(); ++it) {
    if (it->first == key) return std::string_view(it->second);
  }
  return std::nullopt;
}

std::string Message::get_or(std::string_view key, std::string fallback) const {
  if (const auto value = get(key)) return std::string(*value);
  return fallback;
}

std::uint64_t Message::get_u64_or(std::string_view key, std::uint64_t fallback,
                                  std::uint64_t max) const {
  const auto value = get(key);
  if (!value.has_value()) return fallback;
  const auto parsed = support::parse_integer(*value);
  if (!parsed.has_value() || *parsed < 0 || static_cast<std::uint64_t>(*parsed) > max) {
    fail(ErrorKind::kParse, "r2rd message field '" + std::string(key) +
                                "' needs an integer in [0, " + std::to_string(max) +
                                "], got '" + std::string(*value) + "'");
  }
  return static_cast<std::uint64_t>(*parsed);
}

std::string encode_message(const Message& message) {
  std::string payload = std::to_string(message.fields().size()) + "\n";
  for (const auto& [key, value] : message.fields()) {
    payload += std::to_string(key.size()) + " " + std::to_string(value.size()) + "\n";
    payload += key;
    payload += value;
  }
  return std::to_string(payload.size()) + "\n" + payload;
}

namespace {

/// Consumes a decimal number terminated by `terminator` from the cursor.
std::uint64_t take_number(std::string_view& cursor, char terminator,
                          std::string_view what) {
  const std::size_t end = cursor.find(terminator);
  if (end == std::string_view::npos || end == 0) {
    fail(ErrorKind::kParse, "malformed r2rd frame: missing " + std::string(what));
  }
  const auto parsed = support::parse_integer(cursor.substr(0, end));
  if (!parsed.has_value() || *parsed < 0) {
    fail(ErrorKind::kParse, "malformed r2rd frame: bad " + std::string(what) + " '" +
                                std::string(cursor.substr(0, end)) + "'");
  }
  cursor.remove_prefix(end + 1);
  return static_cast<std::uint64_t>(*parsed);
}

}  // namespace

Message decode_message(std::string_view payload) {
  std::string_view cursor = payload;
  const std::uint64_t count = take_number(cursor, '\n', "field count");
  Message message;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t key_len = take_number(cursor, ' ', "key length");
    const std::uint64_t value_len = take_number(cursor, '\n', "value length");
    if (key_len + value_len > cursor.size()) {
      fail(ErrorKind::kParse, "malformed r2rd frame: field overruns the payload");
    }
    message.set(std::string(cursor.substr(0, key_len)),
                std::string(cursor.substr(key_len, value_len)));
    cursor.remove_prefix(key_len + value_len);
  }
  if (!cursor.empty()) {
    fail(ErrorKind::kParse, "malformed r2rd frame: trailing bytes after the last field");
  }
  return message;
}

void write_message(int fd, const Message& message) {
  const std::string frame = encode_message(message);
  std::size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(ErrorKind::kExecution,
           std::string("r2rd frame write failed: ") + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

namespace {

/// Reads exactly `size` bytes. Returns false on EOF before the first byte
/// (when `eof_ok`); throws on EOF mid-read or a read error.
bool read_exact(int fd, char* out, std::size_t size, bool eof_ok) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(ErrorKind::kExecution,
           std::string("r2rd frame read failed: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      fail(ErrorKind::kExecution, "r2rd peer closed the connection mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<Message> read_message(int fd) {
  // The frame length is newline-terminated, so read it byte-wise (at most
  // ~9 reads; frames themselves arrive in one read_exact).
  std::string header;
  while (true) {
    char c = 0;
    if (!read_exact(fd, &c, 1, /*eof_ok=*/header.empty())) return std::nullopt;
    if (c == '\n') break;
    if (header.size() > 20) {
      fail(ErrorKind::kParse, "malformed r2rd frame: unterminated length header");
    }
    header += c;
  }
  const auto length = support::parse_integer(header);
  if (!length.has_value() || *length < 0 ||
      static_cast<std::uint64_t>(*length) > kMaxFrameBytes) {
    fail(ErrorKind::kParse, "malformed r2rd frame: bad length header '" + header + "'");
  }
  std::string payload(static_cast<std::size_t>(*length), '\0');
  read_exact(fd, payload.data(), payload.size(), /*eof_ok=*/false);
  return decode_message(payload);
}

}  // namespace r2r::svc
