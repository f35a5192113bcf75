// r2r::emu — the deterministic x86-64-subset machine.
//
// This is the substrate the paper gets from Qiling/Unicorn: load an ELF,
// run it with a given stdin, capture stdout/exit-code, optionally record an
// instruction trace, and optionally inject one transient fault (skip or
// encoding bit flip) at a chosen trace offset.
//
// One micro-op executor. Every step runs a MicroOp (emu/block_cache.h)
// through one handler table. Entry 0, the generic entry, is the reference
// semantics of every instruction: a switch over the mnemonic with eager
// flags. The other entries are specialized handlers for the hot 64-bit
// shapes (register/immediate/memory forms of mov, movzx, lea, add, and,
// or, xor, cmp, imul, inc/dec, and the direct branches, which
// emu.generic_steps picked); they record the arithmetic flags
// lazily, as the last flag-writing operation with its operands and result
// (QEMU's cc_op), and je/jne read ZF straight from that record. The record
// is materialized into Cpu::flags by the generic entry (which also serves
// pushfq, mvflags and syscall's r11), by a flag-flip fault, and at every
// run end or pause, so the flags are architectural whenever run() or
// advance() is not executing. Only cached blocks use specialized handlers:
// the faulted step and every uncached step compile on their own and take
// the generic entry, so set_block_cache_enabled(false) is the oracle for
// each specialized handler and for lazy flags.
//
// Loop fast-forward. When a whole cached iteration of a counted self-loop
// (emu::LoopSummary) comes back to its start on a run that records no
// trace, the machine skips, in closed form, every whole iteration but one
// before the loop's exit or the run's fuel or fault step, so the state at
// every stop is exact (docs/architecture.md). The uncached machine never
// skips, which keeps it the oracle for this too.
//
// How a run ends. Every run end is recorded as machine status, not
// thrown: a guest exit(2), the run's first failed memory access (load,
// store or fetch), a failed decode (isa::Target::try_decode), a trap
// (hlt, int3, ud2), a bit flip planned past the fetched encoding, and
// the output limit. The first one wins. The instruction that raised it
// makes no further memory or output side effect, the dispatch loop stops
// after it, and run() formats `crash_detail` once, through one cold
// formatter, with the text of the Error that Memory::read/write/fetch,
// isa::Target::decode or the trap would throw. The Cpu state after a
// crash is unspecified: registers the crashing instruction writes may or
// may not hold its result. Callers that reuse a machine restore a
// snapshot first, as the sim:: engine always does.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "elf/image.h"
#include "emu/cpu.h"
#include "emu/memory.h"
#include "isa/instruction.h"
#include "isa/target.h"

namespace r2r::emu {

class BlockCache;
struct LoopSummary;
struct MicroOp;
struct MicroOperand;

/// A single transient fault to inject during one run. kSkip and kBitFlip
/// are the paper's fault models (Section V); kRegisterBitFlip and
/// kFlagFlip are r2r extensions modelling data-path and status-register
/// glitches.
struct FaultSpec {
  enum class Kind : std::uint8_t {
    kSkip,             ///< the dynamic instruction does not execute
    kBitFlip,          ///< one bit of the fetched encoding flips (transient)
    kRegisterBitFlip,  ///< one GPR bit flips just before the instruction
    kFlagFlip,         ///< one arithmetic flag flips just before the instruction
  };
  Kind kind = Kind::kSkip;
  std::uint64_t trace_index = 0;  ///< which dynamic instruction to fault
  /// kBitFlip: bit within the fetched encoding.
  /// kRegisterBitFlip: register number * 64 + bit.
  /// kFlagFlip: 0=CF 1=PF 2=AF 3=ZF 4=SF 5=OF.
  std::uint32_t bit_offset = 0;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

enum class StopReason : std::uint8_t {
  kExited,         ///< guest called exit()
  kCrashed,        ///< memory fault, invalid opcode, trap, bad state
  kFuelExhausted,  ///< ran past the step budget (treated as hang)
};

struct TraceEntry {
  std::uint64_t address = 0;
  std::uint8_t length = 0;
};

struct RunResult {
  StopReason reason = StopReason::kCrashed;
  std::int64_t exit_code = -1;
  std::string output;        ///< stdout+stderr interleaved as written
  std::string crash_detail;  ///< populated when reason == kCrashed
  /// Attempted instructions since machine construction (or the last
  /// snapshot restore that reset the counter) — the trace-index clock.
  std::uint64_t steps = 0;
  std::vector<TraceEntry> trace;  ///< filled only when requested

  /// Observable behaviour: what an attacker (or the oracle) can see.
  [[nodiscard]] bool observably_equal(const RunResult& other) const noexcept;
};

/// RunResult::observably_equal for a run given as how it stopped, its exit
/// code and its output, so a paused machine's status compares without a
/// RunResult being built.
[[nodiscard]] inline bool observably_equal(StopReason reason, std::int64_t exit_code,
                                           std::string_view output,
                                           const RunResult& reference) noexcept {
  return reason == reference.reason && exit_code == reference.exit_code &&
         output == reference.output;
}

inline bool RunResult::observably_equal(const RunResult& other) const noexcept {
  return emu::observably_equal(reason, exit_code, output, other);
}

struct RunConfig {
  /// Absolute step budget: run() stops once the machine's step counter
  /// reaches this value. Fresh machines start at step 0, so for the
  /// common one-shot use this is simply "max instructions to execute".
  std::uint64_t fuel = 2'000'000;
  bool record_trace = false;
  std::optional<FaultSpec> fault;
};

class Machine {
 public:
  /// Loads `image` plus a 1 MiB stack; `stdin_data` backs read(2).
  Machine(const elf::Image& image, std::string stdin_data);
  ~Machine();

  // Movable, not assignable (the block cache is a unique_ptr; the
  // out-of-line definition keeps BlockCache an incomplete type here).
  Machine(Machine&&) noexcept;

  /// Runs until exit/crash or until the step counter reaches config.fuel.
  /// Calling run() again on a fuel-exhausted machine resumes execution.
  /// After a crash the Cpu state is unspecified (see the header comment).
  RunResult run(const RunConfig& config);

  /// run() with `fuel` and `fault` but without the RunResult (no output
  /// copy, no crash_detail text, no trace): returns how the run stopped.
  /// The run's status stays readable through exit_code(), output() and
  /// steps() until the next run()/advance(). The sim:: engine pauses at
  /// checkpoint boundaries and classifies through this.
  StopReason advance(std::uint64_t fuel, const std::optional<FaultSpec>& fault);

  /// The exit code of a run that ended in exit(2), else -1 (RunResult's
  /// convention).
  [[nodiscard]] std::int64_t exit_code() const noexcept {
    return end_ == End::kExit ? exit_code_ : -1;
  }

  /// Compiles one decoded instruction into a micro-op. With
  /// `specialize_for`, the op gets that target's specialized handler when
  /// its shape has one; without, it runs the generic entry.
  [[nodiscard]] static MicroOp compile(const isa::Instruction& instr, std::uint8_t length,
                                       const isa::Target* specialize_for = nullptr);

  /// The summary of a compiled block of `count` ops starting at `start`
  /// when it is a counted self-loop the cached machine may fast-forward:
  /// its last op is a direct `jne start`; every other op is a specialized
  /// 64-bit `add reg, imm`, `inc reg`, `dec reg`, `mov qword ptr
  /// [base+disp], reg` on a base the block never writes, or `cmp reg, imm`;
  /// no op writes rsp; and the last flag writer is a `cmp` on a register
  /// whose net change per iteration is +1 or -1. Anything else: nullopt.
  [[nodiscard]] static std::optional<LoopSummary> summarize_loop(const MicroOp* ops,
                                                                 std::size_t count,
                                                                 std::uint64_t start);

  /// The decoded-block cache is on by default; turning it off reverts to
  /// per-step fetch+decode (the bench baseline and the differential-test
  /// reference). Both modes are step-for-step observably identical.
  void set_block_cache_enabled(bool enabled);
  [[nodiscard]] bool block_cache_enabled() const noexcept { return cache_ != nullptr; }
  [[nodiscard]] BlockCache* block_cache() noexcept { return cache_.get(); }

  /// The instruction set this machine executes (from the image's e_machine).
  [[nodiscard]] const isa::Target& target() const noexcept { return *target_; }

  [[nodiscard]] Cpu& cpu() noexcept { return cpu_; }
  [[nodiscard]] const Cpu& cpu() const noexcept { return cpu_; }
  [[nodiscard]] Memory& memory() noexcept { return memory_; }
  [[nodiscard]] const Memory& memory() const noexcept { return memory_; }

  // --- snapshot hooks (used by sim::MachineSnapshot) ------------------------
  // The full guest-visible machine state is (cpu, memory, steps, stdin_pos,
  // output); capturing and restoring all five makes a resumed run
  // indistinguishable from one replayed from entry. The run-end status is
  // not part of it: run() clears it on entry.
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
  void set_steps(std::uint64_t steps) noexcept { steps_ = steps; }
  [[nodiscard]] std::size_t stdin_pos() const noexcept { return stdin_pos_; }
  void set_stdin_pos(std::size_t pos) noexcept { stdin_pos_ = pos; }
  [[nodiscard]] const std::string& output() const noexcept { return output_; }
  /// Assigns into the existing output buffer (no allocation once it has
  /// grown to the guest's output size).
  void set_output(std::string_view output) { output_.assign(output); }

  /// x86-64 stack top; other targets place theirs at target().stack_base().
  static constexpr std::uint64_t kStackBase = 0x7FFF'0000'0000ULL;
  static constexpr std::uint64_t kStackSize = 1ULL << 20;

 private:
  friend struct Handlers;

  /// Attempted instructions, generic-entry steps and fast-forwarded steps
  /// not yet added to the `emu.instructions`, `emu.generic_steps` and
  /// `emu.fast_forward_steps` counters, which the machine's teardown
  /// flushes. A move hands the tallies over, so every step is counted once.
  class StepTally {
   public:
    StepTally() = default;
    StepTally(StepTally&& other) noexcept
        : instructions(std::exchange(other.instructions, 0)),
          generic_steps(std::exchange(other.generic_steps, 0)),
          fast_forward_steps(std::exchange(other.fast_forward_steps, 0)) {}
    ~StepTally() { flush(); }

    std::uint64_t instructions = 0;
    std::uint64_t generic_steps = 0;
    std::uint64_t fast_forward_steps = 0;

   private:
    void flush() noexcept;
  };

  /// The last flag-writing operation of a specialized (64-bit) handler,
  /// not yet materialized into cpu_.flags.
  struct PendingFlags {
    enum class Op : std::uint8_t { kNone, kAdd, kSub, kLogic, kInc, kDec, kMul };
    Op op = Op::kNone;
    /// kInc/kDec: the CF they preserve; kMul: signed overflow (CF = OF).
    bool carry = false;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t result = 0;
  };

  /// The dispatch loop shared by run() and advance(); appends to `trace`
  /// when it is non-null.
  StopReason loop(std::uint64_t fuel, const FaultSpec* fault, std::vector<TraceEntry>* trace);
  /// Executes one instruction through the per-step slow path (fetch,
  /// decode, compile, generic entry). When `entry` is non-null the decoded
  /// length is recorded there before execution (so the trace is complete
  /// even for instructions that exit or crash).
  void step(bool faulted_this_step, const FaultSpec* fault, TraceEntry* entry);
  /// Executes as many steps of the block at rip as possible through the
  /// decoded-block cache, stopping before fuel, before the faulted step,
  /// after any store into code, and after an instruction that ends the
  /// run. Returns false when nothing could be executed (no block at rip) —
  /// the caller then takes the per-step slow path.
  bool run_cached(std::uint64_t fuel, const FaultSpec* fault,
                  std::vector<TraceEntry>* trace);
  /// Called when a whole cached iteration of `loop` (`length` ops) has just
  /// ended back at its start: skips, in closed form, every whole iteration
  /// but one before the loop's exit or before step `limit`.
  void fast_forward(const LoopSummary& loop, std::uint64_t length, std::uint64_t limit) noexcept;
  /// The generic entry: materializes pending flags, then executes `op`
  /// with eager flags. rip already points past the instruction.
  void execute(const MicroOp& op);
  [[nodiscard]] std::uint64_t effective_address(const MicroOperand& mem) const noexcept;
  std::uint64_t read(const MicroOperand& op, isa::Width width);
  void write(const MicroOperand& op, isa::Width width, std::uint64_t value);
  void do_syscall();
  void push64(std::uint64_t value);
  std::uint64_t pop64();

  // Lazy flags.
  void materialize_flags() noexcept;
  /// CF as the pending record (or cpu_.flags) defines it.
  [[nodiscard]] bool carry_flag() const noexcept;
  /// Evaluates `cond`; je/jne read ZF from a pending record directly.
  [[nodiscard]] bool condition(isa::Cond cond) noexcept;

  // Guest memory accesses: a failure records the run's memory fault and a
  // load then yields 0. Once the run has ended, a store changes nothing.
  std::uint64_t load(std::uint64_t address, unsigned bytes);
  void store(std::uint64_t address, std::uint64_t value, unsigned bytes);

  // Run-end recorders: the first one to run ends the run; later calls
  // change nothing.
  void record_fault(AccessFault fault, std::uint64_t address) noexcept;
  void record_decode_failure(const isa::DecodeStatus& status) noexcept;
  void trap(const char* what) noexcept;
  [[nodiscard]] bool ended() const noexcept { return end_ != End::kNone; }
  /// The crash_detail text of a crashed run; cold, runs once per crash.
  [[nodiscard]] std::string crash_detail() const;

  const isa::Target* target_;
  Cpu cpu_;
  Memory memory_;
  std::string stdin_data_;
  std::size_t stdin_pos_ = 0;
  std::string output_;
  std::uint64_t steps_ = 0;
  std::unique_ptr<BlockCache> cache_;  ///< null when the cache is disabled
  StepTally tally_;
  PendingFlags pending_;

  // Run-end status, reset by run(). `end_` says how the run ended, and
  // the fields named beside each kind hold what its message needs.
  enum class End : std::uint8_t {
    kNone,    ///< still running
    kExit,    ///< exit(2): `exit_code_`
    kMemory,  ///< the first failed memory access: `fault_`, `fault_address_`
    kDecode,  ///< an undecodable instruction: `decode_status_`
    kTrap,    ///< hlt, int3, ud2, a bit flip past the window, the output limit: `trap_`
  };
  End end_ = End::kNone;
  std::int64_t exit_code_ = 0;
  AccessFault fault_ = AccessFault::kNone;
  std::uint64_t fault_address_ = 0;
  isa::DecodeStatus decode_status_;
  const char* trap_ = "";  ///< static Error{kExecution} message
};

/// Convenience wrapper used everywhere: fresh machine, one run.
RunResult run_image(const elf::Image& image, std::string stdin_data,
                    const RunConfig& config = {});

}  // namespace r2r::emu
