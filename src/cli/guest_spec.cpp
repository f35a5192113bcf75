#include "cli/guest_spec.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "emu/machine.h"
#include "guests/synth.h"
#include "isa/target.h"
#include "support/error.h"
#include "support/strings.h"

namespace r2r::cli {

namespace fs = std::filesystem;
using support::ErrorKind;
using support::fail;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(ErrorKind::kInvalidArgument, "cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail(ErrorKind::kExecution, "cannot write '" + path + "'");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) fail(ErrorKind::kExecution, "short write to '" + path + "'");
}

namespace {

std::string resolve_input(const std::string& value) {
  if (!value.empty() && value.front() == '@') return read_file(value.substr(1));
  return value;
}

/// True for a path spec: assembly with sidecar files.
bool is_bundle_spec(const std::string& spec) {
  return spec.size() > 2 && spec.ends_with(".s");
}

/// <dir>/<stem> of a path spec, to which the sidecar suffixes are added.
std::string bundle_stem(const std::string& spec) {
  const fs::path path(spec);
  return (path.parent_path() / path.stem()).string();
}

/// The "target" field of a bundle's <stem>.expect.json; empty when the
/// file or the field is missing (bundles written before targets were
/// recorded, and hand-written ones).
std::string recorded_target(const std::string& spec) {
  const std::string path = bundle_stem(spec) + ".expect.json";
  if (!fs::exists(path)) return {};
  const std::string expect = read_file(path);
  const std::size_t key = expect.find("\"target\"");
  if (key == std::string::npos) return {};
  const std::size_t open = expect.find('"', expect.find(':', key));
  if (open == std::string::npos) return {};
  const std::size_t close = expect.find('"', open + 1);
  if (close == std::string::npos) return {};
  return expect.substr(open + 1, close - open - 1);
}

/// Fills the oracle fields of a file-based guest by running the assembled
/// image on its inputs (the CLI analogue of the hand-maintained expected
/// outputs of the built-in guests).
void derive_oracle(guests::Guest& guest) {
  const elf::Image image = guests::build_image(guest);
  const emu::RunResult good = emu::run_image(image, guest.good_input);
  const emu::RunResult bad = emu::run_image(image, guest.bad_input);
  guest.good_output = good.output;
  guest.bad_output = bad.output;
  guest.good_exit = static_cast<int>(good.exit_code);
  guest.bad_exit = static_cast<int>(bad.exit_code);
}

}  // namespace

void check_bundle_target(const std::string& spec, isa::Arch arch) {
  if (!is_bundle_spec(spec)) return;
  const std::string recorded = recorded_target(spec);
  const std::string wanted(isa::target(arch).name());
  if (recorded.empty() || recorded == wanted) return;
  fail(ErrorKind::kInvalidArgument, "guest bundle '" + spec + "' was generated for target '" +
                                        recorded + "', not '" + wanted + "' (pass --target=" +
                                        recorded + ")");
}

guests::Guest load_guest(const std::string& spec, isa::Arch arch,
                         const GuestOverrides& overrides) {
  guests::Guest guest;
  // Built-in and synth guests carry a hand-/generator-maintained oracle;
  // file guests (and any guest whose inputs were overridden) get theirs
  // derived by running the assembled image below.
  bool needs_oracle = false;
  if (const guests::Guest* builtin = guests::find_guest(spec, arch)) {
    guest = *builtin;
  } else if (spec.rfind("synth:", 0) == 0) {
    const auto seed = support::parse_integer(spec.substr(6));
    if (!seed.has_value() || *seed < 0) {
      fail(ErrorKind::kInvalidArgument,
           "malformed synth spec '" + spec + "' (expected synth:<seed>)");
    }
    guest = guests::synth::generate(static_cast<std::uint64_t>(*seed), arch);
  } else if (is_bundle_spec(spec)) {
    check_bundle_target(spec, arch);
    guest.name = fs::path(spec).stem().string();
    guest.arch = arch;
    guest.assembly = read_file(spec);
    const std::string stem = bundle_stem(spec);
    if (fs::exists(stem + ".good")) guest.good_input = read_file(stem + ".good");
    if (fs::exists(stem + ".bad")) guest.bad_input = read_file(stem + ".bad");
    needs_oracle = !guest.good_input.empty() || !guest.bad_input.empty();
  } else if (guests::find_guest(spec) != nullptr ||
             guests::find_guest(spec, isa::Arch::kRv32i) != nullptr) {
    fail(ErrorKind::kInvalidArgument,
         "guest '" + spec + "' has no port for target '" +
             std::string(isa::target(arch).name()) + "'");
  } else {
    fail(ErrorKind::kInvalidArgument,
         "unknown guest spec '" + spec +
             "' (expected a built-in name, synth:<seed>, or a path ending in .s)");
  }
  if (overrides.good_input) {
    guest.good_input = resolve_input(*overrides.good_input);
    needs_oracle = true;
  }
  if (overrides.bad_input) {
    guest.bad_input = resolve_input(*overrides.bad_input);
    needs_oracle = true;
  }
  if (needs_oracle) derive_oracle(guest);
  return guest;
}

std::vector<std::string> write_guest_bundle(const guests::Guest& guest,
                                            const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) fail(ErrorKind::kExecution, "cannot create directory '" + dir + "'");
  const std::string stem = (fs::path(dir) / guest.name).string();

  std::string expect = "{\n";
  expect += "  \"name\": " + support::json_quote(guest.name) + ",\n";
  expect += "  \"target\": " + support::json_quote(isa::target(guest.arch).name()) + ",\n";
  expect += "  \"good_exit\": " + std::to_string(guest.good_exit) + ",\n";
  expect += "  \"bad_exit\": " + std::to_string(guest.bad_exit) + ",\n";
  expect += "  \"good_output\": " + support::json_quote(guest.good_output) + ",\n";
  expect += "  \"bad_output\": " + support::json_quote(guest.bad_output) + "\n";
  expect += "}\n";

  const std::vector<std::pair<std::string, std::string_view>> files = {
      {stem + ".s", guest.assembly},
      {stem + ".good", guest.good_input},
      {stem + ".bad", guest.bad_input},
      {stem + ".expect.json", expect},
  };
  std::vector<std::string> paths;
  for (const auto& [path, bytes] : files) {
    write_file(path, bytes);
    paths.push_back(path);
  }
  return paths;
}

std::vector<std::string> discover_guest_specs(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) fail(ErrorKind::kInvalidArgument, "cannot read directory '" + dir + "'");
  std::vector<std::string> specs;
  for (const fs::directory_entry& entry : it) {
    if (entry.is_regular_file() && entry.path().extension() == ".s") {
      specs.push_back(entry.path().string());
    }
  }
  std::sort(specs.begin(), specs.end());
  return specs;
}

}  // namespace r2r::cli
