#include "support/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace r2r::support {

namespace {
bool is_space(char c) noexcept {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

std::vector<std::string_view> split(std::string_view text, char separator) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      parts.push_back(trim(text.substr(start)));
      break;
    }
    parts.push_back(trim(text.substr(start, pos - start)));
    start = pos + 1;
  }
  return parts;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<std::int64_t> parse_integer(std::string_view text) noexcept {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  bool negative = false;
  if (text.front() == '-') {
    negative = true;
    text.remove_prefix(1);
    if (text.empty()) return std::nullopt;
  }
  if (text.size() == 3 && text.front() == '\'' && text.back() == '\'') {
    const std::int64_t v = static_cast<unsigned char>(text[1]);
    return negative ? -v : v;
  }
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  }
  std::uint64_t magnitude = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, magnitude, base);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  if (negative) return -static_cast<std::int64_t>(magnitude);
  return static_cast<std::int64_t>(magnitude);
}

std::string hex_string(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        // Control bytes and the non-ASCII range both become \u00XX: guest
        // inputs/outputs are arbitrary bytes, and passing 0x80-0xFF through
        // raw would make the document invalid UTF-8 JSON.
        if (static_cast<unsigned char>(c) < 0x20 ||
            static_cast<unsigned char>(c) >= 0x7F) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string nest_json(std::string_view document) {
  if (!document.empty() && document.back() == '\n') document.remove_suffix(1);
  std::string nested;
  for (const char c : document) {
    nested += c;
    if (c == '\n') nested += "  ";
  }
  return nested;
}

}  // namespace r2r::support
