// r2r::sim — full machine snapshots.
//
// A MachineSnapshot freezes everything that determines the future of a
// deterministic emu::Machine: architectural CPU state, the page-granular
// copy-on-write memory image, the step counter (the trace-index clock),
// the stdin cursor, and the accumulated output. Restoring a snapshot and
// resuming is therefore indistinguishable from replaying from entry —
// the property the fault-simulation engine's checkpointing rests on.
#pragma once

#include <cstdint>
#include <string>

#include "emu/cpu.h"
#include "emu/machine.h"
#include "emu/memory.h"

namespace r2r::sim {

struct MachineSnapshot {
  emu::Cpu cpu;
  std::uint64_t steps = 0;  ///< dynamic instruction index at capture time
  std::size_t stdin_pos = 0;
  std::string output;
  emu::Memory::Snapshot memory;
};

/// Captures the machine's full state. Memory pages untouched since the
/// machine's previous capture/restore are shared, not copied.
MachineSnapshot capture(emu::Machine& machine);

/// Rewinds (or fast-forwards) the machine to `snapshot`. Only memory pages
/// that can differ from the snapshot are rewritten.
void restore(const MachineSnapshot& snapshot, emu::Machine& machine);

/// True when the machine's guest-visible state is identical to `snapshot`
/// — i.e. a deterministic continuation from here replays the snapshot's
/// future exactly. Used for convergence pruning of masked faults.
[[nodiscard]] bool same_state(const MachineSnapshot& snapshot, const emu::Machine& machine) noexcept;

/// The same compare between two live machines: `machine` and `reference`
/// are at the same step in the same guest-visible state. Cheapest when
/// both were restored from one snapshot (emu::Memory::equals).
[[nodiscard]] bool same_state(const emu::Machine& machine, const emu::Machine& reference) noexcept;

}  // namespace r2r::sim
