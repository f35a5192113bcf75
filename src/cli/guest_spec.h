// r2r::cli — guest-spec resolution and bundle IO.
//
// Every subcommand addresses its target program the same way, as a *guest
// spec*:
//
//   pincheck | bootloader | toymov   a built-in case study (guests::)
//   synth:<seed>                     a generated guest (guests::synth)
//   path/to/prog.s                   assembly in the r2r dialect; the
//                                    good/bad inputs come from the
//                                    <stem>.good / <stem>.bad sidecar
//                                    files, or from --good-input /
//                                    --bad-input overrides
//
// `r2r synth --out DIR` writes exactly the sidecar layout `r2r batch
// --dir DIR` discovers, so generated corpora round-trip through the CLI.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "guests/guests.h"

namespace r2r::cli {

/// Inline input overrides (the --good-input / --bad-input flags). A value
/// of the form "@path" reads the bytes of `path` instead.
struct GuestOverrides {
  std::optional<std::string> good_input;
  std::optional<std::string> bad_input;
};

/// Resolves `spec` on target `arch` (the --target flag) into a fully
/// populated Guest: built-in names resolve against the target's registry,
/// synth guests are generated in its dialect, and file guests are stamped
/// with it after check_bundle_target(). For ".s" specs the
/// expected outputs/exit codes are derived by running the assembled image
/// on the resolved inputs (missing inputs leave the oracle fields empty —
/// enough for `lift`, rejected later by commands that need a campaign).
/// Throws support::Error{kInvalidArgument} on an unresolvable spec.
guests::Guest load_guest(const std::string& spec, isa::Arch arch,
                         const GuestOverrides& overrides = {});

/// Throws Error{kInvalidArgument}, naming both targets, when `spec` is a
/// ".s" bundle whose <stem>.expect.json records a target other than
/// `arch`. Other specs, and bundles that record no target, pass.
void check_bundle_target(const std::string& spec, isa::Arch arch);

/// Writes <dir>/<name>.s, .good, .bad and .expect.json (which records the
/// guest's target); creates `dir` if missing. Returns the paths written,
/// in that order.
std::vector<std::string> write_guest_bundle(const guests::Guest& guest,
                                            const std::string& dir);

/// The guest specs of a bundle directory: every "*.s" path, sorted by
/// name (deterministic batch order). Throws on an unreadable directory.
std::vector<std::string> discover_guest_specs(const std::string& dir);

/// Whole-file IO helpers (binary-safe). Throw Error{kInvalidArgument} /
/// Error{kExecution} on failure.
std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view bytes);

}  // namespace r2r::cli
