#include "isa/asm_parser.h"

#include <cctype>

#include "isa/target.h"
#include "support/error.h"
#include "support/strings.h"

namespace r2r::isa {

namespace {

using support::check;
using support::ErrorKind;
using support::parse_integer;
using support::split;
using support::to_lower;
using support::trim;

[[noreturn]] void parse_fail(std::size_t line_number, const std::string& message) {
  support::fail(ErrorKind::kParse,
                "line " + std::to_string(line_number) + ": " + message);
}

/// Quotes an offending token for an error message.
std::string quoted(std::string_view token) { return "'" + std::string(token) + "'"; }

bool is_ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.';
}

bool is_identifier(std::string_view text) noexcept {
  if (text.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(text.front())) != 0) return false;
  for (char c : text) {
    if (!is_ident_char(c)) return false;
  }
  return true;
}

/// Splits an operand list on commas that are outside brackets/quotes.
std::vector<std::string_view> split_operands(std::string_view text) {
  std::vector<std::string_view> out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '[') ++depth;
    if (c == ']') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(trim(text.substr(start, i - start)));
      start = i + 1;
    }
  }
  const std::string_view tail = trim(text.substr(start));
  if (!tail.empty() || !out.empty()) out.push_back(tail);
  return out;
}

struct ParsedOperand {
  Operand op;
  std::optional<Width> reg_width;   ///< width implied by a register name
  std::optional<Width> size_prefix; ///< width from byte/dword/qword ptr
};

/// Parses the inside of a bracketed memory reference. Address registers must
/// be spelled at the target's natural width.
MemOperand parse_mem_body(const Target& target, std::string_view body) {
  MemOperand mem;
  const Width address_width = target.natural_width();
  // Tokenize on +/- at top level; each token is reg, reg*scale, number,
  // the PC token, or a symbol.
  std::vector<std::pair<std::string_view, bool>> terms;  // (token, negative)
  bool negative = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= body.size(); ++i) {
    if (i == body.size() || body[i] == '+' || body[i] == '-') {
      const std::string_view token = trim(body.substr(start, i - start));
      if (!token.empty()) terms.emplace_back(token, negative);
      if (i < body.size()) negative = (body[i] == '-');
      start = i + 1;
    }
  }
  for (const auto& [token, neg] : terms) {
    const std::string lower = to_lower(token);
    if (!target.pc_token().empty() && lower == target.pc_token()) {
      check(!neg, ErrorKind::kParse, "the pc cannot be negated");
      mem.rip_relative = true;
      continue;
    }
    if (const auto star = token.find('*'); star != std::string_view::npos) {
      const auto reg = target.parse_reg(to_lower(trim(token.substr(0, star))));
      const auto scale = parse_integer(trim(token.substr(star + 1)));
      check(reg.has_value() && reg->second == address_width, ErrorKind::kParse,
            "bad index register in memory operand: '", token, "'");
      check(scale.has_value() &&
                (*scale == 1 || *scale == 2 || *scale == 4 || *scale == 8),
            ErrorKind::kParse, "bad scale in memory operand: '", token, "'");
      check(!neg, ErrorKind::kParse, "index cannot be negated: '", token, "'");
      mem.index = reg->first;
      mem.scale = static_cast<std::uint8_t>(*scale);
      continue;
    }
    if (const auto reg = target.parse_reg(lower); reg.has_value()) {
      check(reg->second == address_width, ErrorKind::kParse,
            "memory operands use full-width registers: '", token, "'");
      check(!neg, ErrorKind::kParse, "register cannot be negated: '", token, "'");
      if (!mem.base) {
        mem.base = reg->first;
      } else {
        check(!mem.index, ErrorKind::kParse,
              "too many registers in memory operand: '", token, "'");
        mem.index = reg->first;
        mem.scale = 1;
      }
      continue;
    }
    if (const auto value = parse_integer(token); value.has_value()) {
      mem.disp += neg ? -*value : *value;
      continue;
    }
    check(is_identifier(token) && !neg, ErrorKind::kParse,
          "bad term in memory operand: '", token, "'");
    check(mem.label.empty(), ErrorKind::kParse,
          "multiple symbols in memory operand: '", token, "'");
    mem.label = std::string(token);
  }
  return mem;
}

ParsedOperand parse_operand(const Target& target, std::string_view text) {
  ParsedOperand out;
  std::string lower = to_lower(text);

  // Optional size prefix before a bracketed operand.
  static constexpr struct {
    std::string_view prefix;
    Width width;
  } kPrefixes[] = {
      {"byte ptr", Width::b8},
      {"word ptr", Width::b16},
      {"dword ptr", Width::b32},
      {"qword ptr", Width::b64},
  };
  for (const auto& [prefix, width] : kPrefixes) {
    if (lower.starts_with(prefix)) {
      out.size_prefix = width;
      text = trim(text.substr(prefix.size()));
      lower = to_lower(text);
      break;
    }
  }

  if (!text.empty() && text.front() == '[') {
    check(text.back() == ']', ErrorKind::kParse,
          "unterminated memory operand: '", text, "'");
    out.op = parse_mem_body(target, text.substr(1, text.size() - 2));
    return out;
  }
  check(!out.size_prefix.has_value(), ErrorKind::kParse,
        "size prefix requires a memory operand: '", text, "'");

  if (lower.starts_with("offset ")) {
    const std::string_view sym = trim(text.substr(7));
    check(is_identifier(sym), ErrorKind::kParse,
          "bad symbol after offset: '", sym, "'");
    out.op = ImmOperand{0, std::string(sym)};
    return out;
  }
  if (const auto reg = target.parse_reg(lower); reg.has_value()) {
    out.op = reg->first;
    out.reg_width = reg->second;
    return out;
  }
  if (const auto value = parse_integer(text); value.has_value()) {
    out.op = ImmOperand{*value, {}};
    return out;
  }
  check(is_identifier(text), ErrorKind::kParse,
        "unrecognized operand: '", text, "'");
  out.op = LabelOperand{std::string(text)};
  return out;
}

struct MnemonicSpec {
  Mnemonic mnemonic = Mnemonic::kNop;
  Cond cond = Cond::none;
};

std::optional<MnemonicSpec> parse_mnemonic(std::string_view name) {
  static constexpr struct {
    std::string_view name;
    Mnemonic mnemonic;
  } kPlain[] = {
      {"mov", Mnemonic::kMov},     {"movzx", Mnemonic::kMovzx},
      {"movsx", Mnemonic::kMovsx}, {"movabs", Mnemonic::kMov},
      {"lea", Mnemonic::kLea},     {"add", Mnemonic::kAdd},
      {"sub", Mnemonic::kSub},     {"and", Mnemonic::kAnd},
      {"or", Mnemonic::kOr},       {"xor", Mnemonic::kXor},
      {"cmp", Mnemonic::kCmp},     {"test", Mnemonic::kTest},
      {"not", Mnemonic::kNot},     {"neg", Mnemonic::kNeg},
      {"inc", Mnemonic::kInc},     {"dec", Mnemonic::kDec},
      {"imul", Mnemonic::kImul},   {"shl", Mnemonic::kShl},
      {"shr", Mnemonic::kShr},     {"sar", Mnemonic::kSar},
      {"push", Mnemonic::kPush},   {"pop", Mnemonic::kPop},
      {"pushfq", Mnemonic::kPushfq}, {"popfq", Mnemonic::kPopfq},
      {"jmp", Mnemonic::kJmp},     {"call", Mnemonic::kCall},
      {"ret", Mnemonic::kRet},     {"syscall", Mnemonic::kSyscall},
      {"nop", Mnemonic::kNop},     {"hlt", Mnemonic::kHlt},
      {"int3", Mnemonic::kInt3},   {"ud2", Mnemonic::kUd2},
      {"mvflags", Mnemonic::kReadFlags}, {"wrflags", Mnemonic::kWriteFlags},
  };
  for (const auto& entry : kPlain) {
    if (entry.name == name) return MnemonicSpec{entry.mnemonic, Cond::none};
  }
  if (name.size() > 1 && name.front() == 'j') {
    if (const auto cond = parse_cond_suffix(name.substr(1)); cond.has_value()) {
      return MnemonicSpec{Mnemonic::kJcc, *cond};
    }
  }
  if (name.size() > 3 && name.starts_with("set")) {
    if (const auto cond = parse_cond_suffix(name.substr(3)); cond.has_value()) {
      return MnemonicSpec{Mnemonic::kSetcc, *cond};
    }
  }
  if (name.size() > 4 && name.starts_with("cmov")) {
    if (const auto cond = parse_cond_suffix(name.substr(4)); cond.has_value()) {
      return MnemonicSpec{Mnemonic::kCmovcc, *cond};
    }
  }
  return std::nullopt;
}

/// Parses a quoted string literal with C-style escapes.
std::vector<std::uint8_t> parse_string_literal(std::string_view text,
                                               std::size_t line_number) {
  text = trim(text);
  if (text.size() < 2 || text.front() != '"' || text.back() != '"')
    parse_fail(line_number, "expected quoted string");
  text = text.substr(1, text.size() - 2);
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\\' && i + 1 < text.size()) {
      ++i;
      switch (text[i]) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case '0': c = '\0'; break;
        case '\\': c = '\\'; break;
        case '"': c = '"'; break;
        default: parse_fail(line_number, "unknown escape in string literal");
      }
    }
    out.push_back(static_cast<std::uint8_t>(c));
  }
  return out;
}

}  // namespace

const SourceSection* SourceProgram::find_section(std::string_view name) const noexcept {
  for (const auto& section : sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

Instruction Target::parse_instruction(std::string_view line) const {
  line = trim(line);
  std::size_t split_at = 0;
  while (split_at < line.size() && is_ident_char(line[split_at])) ++split_at;
  const std::string mnemonic_text = to_lower(line.substr(0, split_at));
  const auto spec = parse_mnemonic(mnemonic_text);
  check(spec.has_value(), ErrorKind::kParse, "unknown mnemonic: '", mnemonic_text, "'");

  Instruction instr;
  instr.mnemonic = spec->mnemonic;
  instr.cond = spec->cond;

  const std::string_view operand_text = trim(line.substr(split_at));
  std::optional<Width> width;
  std::optional<Width> mem_prefix_width;
  if (!operand_text.empty()) {
    const auto pieces = split_operands(operand_text);
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      ParsedOperand parsed = parse_operand(*this, pieces[i]);
      // The first register operand fixes the operation width; movzx/movsx
      // sources and shift counts are intrinsically 8-bit and ignored here.
      const bool is_ext_src =
          (instr.mnemonic == Mnemonic::kMovzx || instr.mnemonic == Mnemonic::kMovsx) &&
          i == 1;
      const bool is_shift_count =
          (instr.mnemonic == Mnemonic::kShl || instr.mnemonic == Mnemonic::kShr ||
           instr.mnemonic == Mnemonic::kSar) &&
          i == 1;
      if (parsed.reg_width && !width && !is_ext_src && !is_shift_count) {
        width = parsed.reg_width;
      }
      if (parsed.size_prefix && !is_ext_src) mem_prefix_width = parsed.size_prefix;
      instr.operands.push_back(std::move(parsed.op));
    }
  }

  switch (instr.mnemonic) {
    case Mnemonic::kPush:
    case Mnemonic::kPop:
    case Mnemonic::kJmp:
    case Mnemonic::kCall:
      instr.width = natural_width();
      break;
    case Mnemonic::kSetcc:
      instr.width = Width::b8;
      break;
    default:
      instr.width = width.value_or(mem_prefix_width.value_or(natural_width()));
      break;
  }

  // An indirect jump/call is spelled like a direct one but with a
  // register/memory operand.
  if (instr.mnemonic == Mnemonic::kJmp && instr.arity() == 1 &&
      !is_label(instr.op(0)) && !is_imm(instr.op(0))) {
    instr.mnemonic = Mnemonic::kJmpReg;
  }
  if (instr.mnemonic == Mnemonic::kCall && instr.arity() == 1 &&
      !is_label(instr.op(0)) && !is_imm(instr.op(0))) {
    instr.mnemonic = Mnemonic::kCallReg;
  }
  return instr;
}

Instruction parse_instruction(std::string_view line) {
  return detail::x64_target().parse_instruction(line);
}

SourceProgram Target::parse_assembly(std::string_view text) const {
  SourceProgram program;
  program.sections.push_back(SourceSection{".text", {}});
  SourceSection* current = &program.sections.back();
  std::vector<std::string> pending_labels;
  std::size_t pending_labels_line = 0;  ///< line of the first pending label

  const auto section_named = [&program](std::string_view name) -> SourceSection* {
    for (auto& section : program.sections) {
      if (section.name == name) return &section;
    }
    program.sections.push_back(SourceSection{std::string(name), {}});
    return &program.sections.back();
  };

  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    ++line_number;
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;

    // Strip comments; quotes may contain ';'/'#', so scan outside quotes.
    bool in_quotes = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"' && (i == 0 || line[i - 1] != '\\')) in_quotes = !in_quotes;
      if (!in_quotes && (line[i] == ';' || line[i] == '#')) {
        line = line.substr(0, i);
        break;
      }
    }
    line = trim(line);
    if (line.empty()) {
      if (start > text.size()) break;
      continue;
    }

    // Leading "label:" prefixes (possibly several).
    while (true) {
      std::size_t i = 0;
      while (i < line.size() && is_ident_char(line[i])) ++i;
      if (i == 0 || i >= line.size() || line[i] != ':') break;
      const std::string_view label = line.substr(0, i);
      if (!is_identifier(label)) {
        parse_fail(line_number, "bad label: " + quoted(label));
      }
      if (pending_labels.empty()) pending_labels_line = line_number;
      pending_labels.emplace_back(label);
      line = trim(line.substr(i + 1));
    }
    if (line.empty()) {
      if (start > text.size()) break;
      continue;
    }

    SourceItem item;
    item.labels = std::move(pending_labels);
    item.line = line_number;  // the content line, not the (earlier) label line
    pending_labels.clear();

    if (line.front() == '.') {
      const std::size_t space = line.find_first_of(" \t");
      const std::string directive =
          to_lower(line.substr(0, space == std::string_view::npos ? line.size() : space));
      const std::string_view args =
          space == std::string_view::npos ? std::string_view{} : trim(line.substr(space));

      if (directive == ".section") {
        check(item.labels.empty(), ErrorKind::kParse, "label before .section");
        current = section_named(args);
        if (start > text.size()) break;
        continue;
      }
      if (directive == ".global" || directive == ".globl") {
        program.globals.emplace_back(trim(args));
        if (!item.labels.empty()) current->items.push_back(std::move(item));
        if (start > text.size()) break;
        continue;
      }
      if (directive == ".byte") {
        for (const auto piece : split(args, ',')) {
          const auto value = parse_integer(piece);
          if (!value || *value < -128 || *value > 255)
            parse_fail(line_number, "bad .byte value: " + quoted(piece));
          item.data.push_back(static_cast<std::uint8_t>(*value));
        }
      } else if (directive == ".quad") {
        for (const auto piece : split(args, ',')) {
          if (const auto value = parse_integer(piece); value.has_value()) {
            for (int i = 0; i < 8; ++i)
              item.data.push_back(static_cast<std::uint8_t>(
                  static_cast<std::uint64_t>(*value) >> (8 * i)));
          } else if (is_identifier(piece)) {
            item.data_symbol_refs.emplace_back(item.data.size(), std::string(piece));
            for (int i = 0; i < 8; ++i) item.data.push_back(0);
          } else {
            parse_fail(line_number, "bad .quad value: " + quoted(piece));
          }
        }
      } else if (directive == ".asciz" || directive == ".ascii") {
        item.data = parse_string_literal(args, line_number);
        if (directive == ".asciz") item.data.push_back(0);
      } else if (directive == ".zero" || directive == ".space") {
        const auto count = parse_integer(args);
        if (!count || *count < 0)
          parse_fail(line_number, "bad .zero count: " + quoted(args));
        item.data.assign(static_cast<std::size_t>(*count), 0);
      } else if (directive == ".align") {
        const auto alignment = parse_integer(args);
        if (!alignment || *alignment <= 0 || (*alignment & (*alignment - 1)) != 0)
          parse_fail(line_number, ".align requires a power of two: " + quoted(args));
        item.align = static_cast<std::uint64_t>(*alignment);
      } else {
        parse_fail(line_number, "unknown directive: " + quoted(directive));
      }
      current->items.push_back(std::move(item));
      if (start > text.size()) break;
      continue;
    }

    try {
      item.instr = parse_instruction(line);
    } catch (const support::Error& error) {
      // Re-throw with the line number and the offending source line; strip
      // the inner "parse: " prefix so the kind is not repeated.
      std::string_view what = error.what();
      constexpr std::string_view kKindPrefix = "parse: ";
      if (what.substr(0, kKindPrefix.size()) == kKindPrefix) {
        what.remove_prefix(kKindPrefix.size());
      }
      parse_fail(line_number, std::string(what) + " | " + std::string(line));
    }
    current->items.push_back(std::move(item));
    if (start > text.size()) break;
  }

  if (!pending_labels.empty()) {
    // Trailing labels attach to an empty item so they still get addresses.
    SourceItem item;
    item.labels = std::move(pending_labels);
    item.line = pending_labels_line;
    current->items.push_back(std::move(item));
  }
  return program;
}

SourceProgram parse_assembly(std::string_view text) {
  return detail::x64_target().parse_assembly(text);
}

}  // namespace r2r::isa
