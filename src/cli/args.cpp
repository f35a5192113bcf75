#include "cli/args.h"

#include <algorithm>

#include "support/error.h"
#include "support/strings.h"

namespace r2r::cli {

using support::ErrorKind;
using support::fail;

ArgParser::ArgParser(std::string command, std::string usage_suffix, std::string summary)
    : command_(std::move(command)),
      usage_suffix_(std::move(usage_suffix)),
      summary_(std::move(summary)) {}

void ArgParser::add_flag(FlagSpec spec) { flags_.push_back(std::move(spec)); }

const FlagSpec* ArgParser::find(std::string_view name) const {
  for (const FlagSpec& spec : flags_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void ArgParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return;
    }
    if (arg.size() < 2 || arg[0] != '-' || arg == "-" || arg == "--") {
      positionals_.push_back(arg);
      continue;
    }

    std::string name = arg;
    std::optional<std::string> attached;
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        name = arg.substr(0, eq);
        attached = arg.substr(eq + 1);
      }
    } else {
      // Single-dash flags ("-j") accept the attached form ("-j8").
      name = arg.substr(0, 2);
      if (arg.size() > 2) attached = arg.substr(2);
    }

    const FlagSpec* spec = find(name);
    if (spec == nullptr) {
      fail(ErrorKind::kInvalidArgument,
           "unknown flag '" + arg + "' for 'r2r " + command_ + "' (try 'r2r " +
               command_ + " --help')");
    }
    if (spec->value_name.empty()) {
      if (attached.has_value()) {
        fail(ErrorKind::kInvalidArgument,
             "flag '" + name + "' of 'r2r " + command_ + "' takes no value");
      }
      values_.emplace_back(name, "");
      continue;
    }
    if (!attached.has_value()) {
      if (i + 1 >= args.size()) {
        fail(ErrorKind::kInvalidArgument, "flag '" + name + "' of 'r2r " + command_ +
                                              "' needs a " + spec->value_name + " value");
      }
      attached = args[++i];
    }
    values_.emplace_back(name, *attached);
  }
}

bool ArgParser::has(std::string_view flag) const {
  return std::any_of(values_.begin(), values_.end(),
                     [&](const auto& entry) { return entry.first == flag; });
}

std::optional<std::string> ArgParser::value(std::string_view flag) const {
  // Last occurrence wins, so batch invocations can override forwarded
  // defaults by appending.
  for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
    if (it->first == flag) return it->second;
  }
  return std::nullopt;
}

std::string ArgParser::value_or(std::string_view flag, std::string fallback) const {
  if (auto v = value(flag)) return *v;
  return fallback;
}

std::uint64_t ArgParser::count_or(std::string_view flag, std::uint64_t fallback,
                                  std::uint64_t max) const {
  const auto v = value(flag);
  if (!v.has_value()) return fallback;
  const auto parsed = support::parse_integer(*v);
  if (!parsed.has_value() || *parsed < 0 || static_cast<std::uint64_t>(*parsed) > max) {
    fail(ErrorKind::kInvalidArgument, "flag '" + std::string(flag) + "' of 'r2r " +
                                          command_ + "' needs an integer in [0, " +
                                          std::to_string(max) + "], got '" + *v + "'");
  }
  return static_cast<std::uint64_t>(*parsed);
}

std::string ArgParser::help() const {
  std::string out = "usage: r2r " + command_;
  if (!usage_suffix_.empty()) out += " " + usage_suffix_;
  if (!flags_.empty()) out += " [flags]";
  out += "\n\n" + summary_ + "\n";
  if (flags_.empty()) return out;

  out += "\nflags:\n";
  std::size_t column = 0;
  for (const FlagSpec& spec : flags_) {
    std::size_t width = spec.name.size();
    if (!spec.value_name.empty()) width += 1 + spec.value_name.size();
    column = std::max(column, width);
  }
  column += 4;  // two-space indent + at least two spaces before the help
  for (const FlagSpec& spec : flags_) {
    std::string head = "  " + spec.name;
    if (!spec.value_name.empty()) head += " " + spec.value_name;
    head += std::string(column - head.size() + 2, ' ');
    std::string text = spec.help;
    if (!spec.default_text.empty()) text += " [default: " + spec.default_text + "]";
    // '\n' in the help continues at the help column.
    std::string line;
    for (const char c : text) {
      if (c == '\n') {
        out += head + line + "\n";
        head.assign(column + 2, ' ');
        line.clear();
      } else {
        line += c;
      }
    }
    out += head + line + "\n";
  }
  return out;
}

}  // namespace r2r::cli
