// r2r::cli — declarative flag parsing for the r2r driver.
//
// Every subcommand builds one ArgParser from FlagSpecs; the same specs
// produce the parser, the `--help` text, and (via docs/r2r.md's golden
// test) the manual page — so a flag cannot exist without documentation,
// and the documentation cannot drift from the binary.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace r2r::cli {

/// One flag of a subcommand. An empty `value_name` declares a boolean
/// switch; otherwise the flag takes a value (`--flag V` or `--flag=V`).
/// Single-dash names ("-j") also accept the attached form ("-j8").
struct FlagSpec {
  std::string name;          ///< "--model", "-j", ...
  std::string value_name;    ///< "LIST", "N", ... ("" = boolean)
  std::string help;          ///< one sentence; '\n' continues the column
  std::string default_text;  ///< rendered as "[default: X]" when non-empty
};

class ArgParser {
 public:
  /// `usage_suffix` is what follows the command in the usage line, e.g.
  /// "<guest>" or "<guest...>"; `summary` is the one-paragraph description.
  ArgParser(std::string command, std::string usage_suffix, std::string summary);

  void add_flag(FlagSpec spec);

  /// Parses everything after the subcommand name. `--help` anywhere stops
  /// parsing and sets help_requested(). Throws
  /// support::Error{kInvalidArgument} on an unknown flag, a flag missing
  /// its value, or a value-less boolean given one.
  void parse(const std::vector<std::string>& args);

  [[nodiscard]] bool help_requested() const noexcept { return help_requested_; }
  [[nodiscard]] bool has(std::string_view flag) const;
  [[nodiscard]] std::optional<std::string> value(std::string_view flag) const;
  [[nodiscard]] std::string value_or(std::string_view flag, std::string fallback) const;
  /// Parses the flag's value as an unsigned integer no larger than `max`,
  /// for count-like flags whose call sites narrow to 32 bits (--threads,
  /// --seed, --order, ...). Without the bound, a value in (2^32-1, 2^63-1]
  /// would wrap silently through the unsigned conversion — `--threads
  /// 4294967297` becoming 1. Throws Error{kInvalidArgument} naming the
  /// flag, the offending token, and the accepted range.
  [[nodiscard]] std::uint64_t count_or(std::string_view flag, std::uint64_t fallback,
                                       std::uint64_t max = 0xFFFFFFFFu) const;
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  [[nodiscard]] const std::string& command() const noexcept { return command_; }
  [[nodiscard]] const std::string& summary() const noexcept { return summary_; }

  /// The full `--help` text (usage, summary, flag table). Deterministic;
  /// docs/r2r.md embeds it verbatim and a golden test keeps them in sync.
  [[nodiscard]] std::string help() const;

 private:
  [[nodiscard]] const FlagSpec* find(std::string_view name) const;

  std::string command_;
  std::string usage_suffix_;
  std::string summary_;
  std::vector<FlagSpec> flags_;
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> positionals_;
  bool help_requested_ = false;
};

}  // namespace r2r::cli
