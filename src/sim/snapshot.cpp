#include "sim/snapshot.h"

namespace r2r::sim {

MachineSnapshot capture(emu::Machine& machine) {
  MachineSnapshot snapshot;
  snapshot.cpu = machine.cpu();
  snapshot.steps = machine.steps();
  snapshot.stdin_pos = machine.stdin_pos();
  snapshot.output = machine.output();
  snapshot.memory = machine.memory().capture();
  return snapshot;
}

void restore(const MachineSnapshot& snapshot, emu::Machine& machine) {
  machine.cpu() = snapshot.cpu;
  machine.set_steps(snapshot.steps);
  machine.set_stdin_pos(snapshot.stdin_pos);
  machine.set_output(snapshot.output);
  machine.memory().restore(snapshot.memory);
}

bool same_state(const MachineSnapshot& snapshot, const emu::Machine& machine) noexcept {
  const emu::Cpu& cpu = machine.cpu();
  return machine.steps() == snapshot.steps && cpu.rip == snapshot.cpu.rip &&
         cpu.flags == snapshot.cpu.flags && cpu.gpr == snapshot.cpu.gpr &&
         machine.stdin_pos() == snapshot.stdin_pos &&
         machine.output() == snapshot.output && machine.memory().equals(snapshot.memory);
}

bool same_state(const emu::Machine& machine, const emu::Machine& reference) noexcept {
  const emu::Cpu& cpu = machine.cpu();
  const emu::Cpu& golden = reference.cpu();
  return machine.steps() == reference.steps() && cpu.rip == golden.rip &&
         cpu.flags == golden.flags && cpu.gpr == golden.gpr &&
         machine.stdin_pos() == reference.stdin_pos() &&
         machine.output() == reference.output() &&
         machine.memory().equals(reference.memory());
}

}  // namespace r2r::sim
