// r2r::ir — reference interpreter.
//
// Executes a lifted module directly against guest memory, with the same
// syscall surface as the machine emulator. Used for differential testing:
// machine(binary) ≡ interpret(lift(binary)) ≡ machine(lower(lift(binary)))
// on observable behaviour (output + exit code).
#pragma once

#include <cstdint>
#include <string>

#include "emu/memory.h"
#include "ir/ir.h"

namespace r2r::ir {

enum class InterpStop : std::uint8_t {
  kExited,    ///< r2r.syscall exit
  kTrapped,   ///< r2r.trap fired (fault response)
  kReturned,  ///< entry function returned without exiting
  kCrashed,   ///< memory violation or malformed execution
  kFuel,      ///< step budget exhausted
};

struct InterpResult {
  InterpStop stop = InterpStop::kCrashed;
  std::int64_t exit_code = -1;
  std::string output;
  std::string crash_detail;
  std::uint64_t steps = 0;
};

struct InterpConfig {
  std::uint64_t fuel = 8'000'000;
};

/// Runs `module` from its entry function. `memory` must already contain the
/// guest's data segments; the globals region is mapped by this call.
InterpResult interpret(const Module& module, emu::Memory& memory,
                       std::string stdin_data, const InterpConfig& config = {});

}  // namespace r2r::ir
