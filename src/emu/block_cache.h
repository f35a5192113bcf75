// r2r::emu — the micro-op and the decoded-block cache that stores it.
//
// Every instruction the machine executes runs as a MicroOp: the decoded
// isa::Instruction compiled once into a flat record (mnemonic, condition,
// width, encoded length, operands pre-resolved to register numbers,
// immediates and base/index/scale/displacement) plus the index of its
// handler in the machine's one handler table. Handler 0 is the generic
// entry, the reference semantics of every instruction with eager flags;
// the other entries are specialized copies of a few hot 64-bit shapes
// that record flags lazily (emu/machine.cpp lists them).
//
// The cache decodes and compiles each basic block once into a flat arena
// of MicroOps, picking a specialized handler where one exists, and lets
// the machine dispatch through an indexed loop instead of per-step
// fetch+decode. Blocks are keyed by their exact start address (a branch
// into the middle of an existing block simply builds a second,
// overlapping block). The uncached machine compiles each step on its own
// and runs only the generic entry, so it is an independent oracle for
// every specialized handler and for lazy flags.
//
// Correctness rules (see docs/architecture.md):
//  - any code write empties the whole cache: a store into an executable
//    region, or a restore() that rewrites an executable page, bumps
//    Memory's code-write epoch, and sync() drops every block when the
//    epoch moved;
//  - a faulted step never executes from the cache — Machine routes it
//    through the per-step slow path, so mutated encodings are re-decoded
//    against the live fetch window and the cache only ever holds
//    architectural bytes;
//  - an address whose first instruction cannot be fetched or decoded yields
//    no block, and the cache remembers that until it empties (bit flips
//    send runs to such addresses on every sweep); the machine's slow path
//    then reproduces the exact crash with identical step accounting.
//
// The build also decides, once per block, whether the block is a counted
// self-loop whose whole iterations the machine may skip in closed form
// (LoopSummary; Machine::summarize_loop has the shape rules).
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/instruction.h"
#include "isa/target.h"

namespace r2r::emu {

class Memory;

/// One pre-resolved operand.
struct MicroOperand {
  enum class Kind : std::uint8_t {
    kNone,  ///< absent, or a symbolic label (no decoder produces one)
    kReg,
    kImm,
    kMem,
  };
  Kind kind = Kind::kNone;
  std::uint8_t reg = 0;      ///< kReg: register number; kMem: base register
  bool has_base = false;     ///< kMem: `reg` holds a base register
  std::uint8_t index = 0;    ///< kMem: index register
  std::uint8_t scale = 0;    ///< kMem: index scale; 0 when there is no index
  /// kImm: the immediate; kMem: the displacement (the absolute address
  /// for RIP-relative operands, whose PC the decoder already resolved).
  std::uint64_t value = 0;
};

/// One compiled instruction: the arena payload.
struct MicroOp {
  isa::Mnemonic mnemonic = isa::Mnemonic::kNop;
  isa::Cond cond = isa::Cond::none;
  isa::Width width = isa::Width::b64;
  std::uint8_t length = 0;   ///< encoded bytes, for rip advance + trace
  std::uint8_t handler = 0;  ///< handler-table index; 0 is the generic entry
  std::array<MicroOperand, 2> ops{};
};

/// A counted self-loop block: what one whole iteration does to the
/// registers, and its exit test `cmp counter, bound; jne start`. Each
/// iteration adds delta[r] to register r (mod 2^64); the counter's delta
/// is 1 or 2^64 - 1, and nothing the exit test reads changes after it.
struct LoopSummary {
  std::array<std::uint64_t, isa::kRegCount> delta{};
  std::uint64_t bound = 0;
  std::uint8_t counter = 0;
};

/// A decoded basic block: `count` consecutive arena entries, the first at
/// guest address `start`. Only the final instruction may be control flow.
/// A cached block with `count` 0 records that no block starts at `start`.
struct DecodedBlock {
  std::uint64_t start = 0;
  std::uint32_t first = 0;  ///< arena index of the first micro-op
  std::uint32_t count = 0;
  std::uint32_t loop = 0;   ///< 1 + index of the block's LoopSummary; 0: none
};

class BlockCache {
 public:
  explicit BlockCache(const isa::Target& target) : target_(&target) {}

  /// Block-length bound: long straight-line runs split into several blocks,
  /// which keeps the fault-window slow-path handoff (stop mid-block at the
  /// faulted step) from ever skipping a cached tail.
  static constexpr std::size_t kMaxBlockInstructions = 64;
  /// Arena and block-count bound; reaching either clears the whole cache
  /// (guests are small — this is a safety valve, not a working-set tuner).
  static constexpr std::size_t kMaxCachedInstructions = std::size_t{1} << 16;

  /// Empties the cache when `memory`'s code-write epoch moved since the
  /// last call, adding the blocks it dropped to invalidations(). Cheap
  /// otherwise (one integer compare).
  void sync(Memory& memory);

  /// Returns the block starting exactly at `rip`, building it on miss.
  /// nullptr when no instruction at `rip` is fetchable/decodable — the
  /// caller must fall back to single-step execution. Either answer is
  /// cached: a hit decodes nothing. The pointer stays valid until the next
  /// sync()/clear().
  const DecodedBlock* lookup(std::uint64_t rip, Memory& memory);

  /// The block's `count` micro-ops, in execution order.
  [[nodiscard]] const MicroOp* ops(const DecodedBlock& block) const noexcept {
    return arena_.data() + block.first;
  }

  /// The summary of a block whose `loop` is non-zero.
  [[nodiscard]] const LoopSummary& loop(const DecodedBlock& block) const noexcept {
    return loops_[block.loop - 1];
  }

  void clear();

  // --- tallies (flushed to obs counters by Machine teardown) ----------------
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t invalidations() const noexcept { return invalidations_; }

  /// Adds the tallies accumulated since the previous flush to the
  /// `emu.block_cache.*` counters. Idempotent between accumulations.
  void flush_metrics();

 private:
  const DecodedBlock* build(std::uint64_t rip, Memory& memory);

  const isa::Target* target_;
  std::unordered_map<std::uint64_t, DecodedBlock> blocks_;
  std::vector<MicroOp> arena_;
  std::vector<LoopSummary> loops_;  ///< cleared with the arena
  std::uint64_t synced_epoch_ = 0;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t flushed_hits_ = 0;
  std::uint64_t flushed_misses_ = 0;
  std::uint64_t flushed_invalidations_ = 0;
};

}  // namespace r2r::emu
