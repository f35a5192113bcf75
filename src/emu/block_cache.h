// r2r::emu — decoded-superblock cache.
//
// Every workload (campaigns, order-2 fixpoint, synth sweeps) bottoms out in
// Machine::step calling isa::Target::try_decode on raw bytes for each executed
// instruction. The cache decodes each basic block once into a flat arena of
// CachedInstr and lets the machine dispatch through an indexed loop instead
// of per-step fetch+decode. Blocks are keyed by their exact start address
// (a branch into the middle of an existing block simply builds a second,
// overlapping block).
//
// Correctness rules (see docs/architecture.md):
//  - any store overlapping an executable region invalidates every cached
//    block whose byte range the store touches (Memory's code-write epoch +
//    range log, drained by sync());
//  - a faulted step never executes from the cache — Machine routes it
//    through the per-step slow path, so mutated encodings are re-decoded
//    against the live fetch window and the cache only ever holds
//    architectural bytes;
//  - an address whose first instruction cannot be fetched or decoded yields
//    no block; the machine's slow path then reproduces the exact crash with
//    identical step accounting.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/instruction.h"
#include "isa/target.h"

namespace r2r::emu {

class Memory;

/// One pre-decoded instruction: the arena payload.
struct CachedInstr {
  isa::Instruction instr;
  std::uint8_t length = 0;  ///< encoded bytes, for rip advance + trace
};

/// A decoded basic block: `count` consecutive arena entries covering guest
/// bytes [start, end). Only the final instruction may be control flow.
struct DecodedBlock {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t first = 0;  ///< arena index of the first instruction
  std::uint32_t count = 0;
};

class BlockCache {
 public:
  explicit BlockCache(const isa::Target& target) : target_(&target) {}

  /// Block-length bound: long straight-line runs split into several blocks,
  /// which keeps the fault-window slow-path handoff (stop mid-block at the
  /// faulted step) from ever skipping a cached tail.
  static constexpr std::size_t kMaxBlockInstructions = 64;
  /// Arena bound; reaching it clears the whole cache (guests are small —
  /// this is a safety valve, not a working-set tuner).
  static constexpr std::size_t kMaxCachedInstructions = std::size_t{1} << 16;

  /// Drains pending code-write invalidations from `memory`. Cheap when no
  /// code write happened since the last call (one integer compare).
  void sync(Memory& memory);

  /// Returns the block starting exactly at `rip`, building it on miss.
  /// nullptr when no instruction at `rip` is fetchable/decodable — the
  /// caller must fall back to single-step execution. The pointer stays
  /// valid until the next sync()/clear().
  const DecodedBlock* lookup(std::uint64_t rip, Memory& memory);

  [[nodiscard]] const CachedInstr& instr(const DecodedBlock& block,
                                         std::uint32_t i) const noexcept {
    return arena_[block.first + i];
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
  void invalidate_range(std::uint64_t begin, std::uint64_t end);

  const isa::Target* target_;
  std::unordered_map<std::uint64_t, DecodedBlock> blocks_;
  std::vector<CachedInstr> arena_;
  std::uint64_t synced_epoch_ = 0;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t flushed_hits_ = 0;
  std::uint64_t flushed_misses_ = 0;
  std::uint64_t flushed_invalidations_ = 0;
};

}  // namespace r2r::emu
