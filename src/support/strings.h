// r2r::support — small string utilities for the assembler and report
// formatting. Kept header-only except for the integer parser.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace r2r::support {

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text) noexcept;

/// Splits on `separator`, trimming each piece; empty pieces are kept.
std::vector<std::string_view> split(std::string_view text, char separator);

/// Lower-cases ASCII.
std::string to_lower(std::string_view text);

/// Parses a signed integer literal: decimal, 0x hex, optional leading '-'
/// and optional single trailing char-literal form 'c'. Returns nullopt on
/// malformed input.
std::optional<std::int64_t> parse_integer(std::string_view text) noexcept;

/// printf-style %; minimal: formats `value` as 0x-prefixed hex.
std::string hex_string(std::uint64_t value);

/// Formats with fixed decimals, e.g. format_percent(17.613, 2) == "17.61".
std::string format_fixed(double value, int decimals);

/// JSON string literal (including the surrounding quotes): escapes the two
/// mandatory characters plus control and non-ASCII bytes as \u00XX, so
/// arbitrary guest inputs/outputs round-trip through the JSON artifacts as
/// valid UTF-8 documents (byte values, Latin-1 style — not code points).
std::string json_quote(std::string_view text);

/// A pretty-printed JSON document as a nested value: the trailing newline
/// dropped and every later line indented two spaces, so the composite stays
/// readable.
std::string nest_json(std::string_view document);

}  // namespace r2r::support
