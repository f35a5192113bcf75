// r2r::support — error reporting primitives.
//
// The library throws r2r::support::Error for all recoverable failures
// (malformed assembly, undecodable bytes, unmappable addresses, ...).
// check()/require() are the throwing assertion helpers used throughout.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace r2r::support {

/// Category of a library failure. Used by tests to assert on the precise
/// failure class and by tools to decide whether an error is retryable.
enum class ErrorKind : std::uint8_t {
  kInvalidArgument,   ///< caller violated an API precondition
  kParse,             ///< malformed assembly / textual input
  kEncode,            ///< instruction not representable in machine code
  kDecode,            ///< byte sequence is not a valid instruction
  kMemory,            ///< guest memory access violation
  kExecution,         ///< guest runtime failure (bad syscall, halt, ...)
  kElf,               ///< malformed or unsupported ELF image
  kRecovery,          ///< structural recovery (disassembly/CFG) failure
  kRewrite,           ///< reassembly / patching failure
  kIr,                ///< compiler-IR verification failure
  kLift,              ///< binary-to-IR translation failure
  kLower,             ///< IR-to-binary translation failure
  kInternal,          ///< invariant violation inside the library
};

/// Human-readable name of an ErrorKind ("parse", "decode", ...).
std::string_view to_string(ErrorKind kind) noexcept;

/// The exception type thrown by every r2r component.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, std::string_view message)
      : std::runtime_error(std::string(to_string(kind)) + ": " + std::string(message)),
        kind_(kind) {}

  [[nodiscard]] ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

[[noreturn]] inline void fail(ErrorKind kind, std::string_view message) {
  throw Error(kind, message);
}

/// Throws Error{kind, message + more...} if `condition` is false. The text
/// is joined only on failure, so a passing check allocates nothing.
template <typename... More>
void check(bool condition, ErrorKind kind, std::string_view message, const More&... more) {
  if (condition) [[likely]] return;
  fail(kind, (std::string(message) += ... += std::string_view(more)));
}

/// Throws Error{kInternal} if `condition` is false; use for invariants.
inline void require(bool condition, std::string_view message) {
  check(condition, ErrorKind::kInternal, message);
}

}  // namespace r2r::support
