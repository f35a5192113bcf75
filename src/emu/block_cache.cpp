#include "emu/block_cache.h"

#include <array>
#include <span>

#include "emu/machine.h"
#include "emu/memory.h"
#include "isa/decoder.h"
#include "obs/metrics.h"

namespace r2r::emu {

namespace {

bool is_terminator(isa::Mnemonic mnemonic) noexcept {
  switch (mnemonic) {
    case isa::Mnemonic::kJmp:
    case isa::Mnemonic::kJcc:
    case isa::Mnemonic::kCall:
    case isa::Mnemonic::kJmpReg:
    case isa::Mnemonic::kCallReg:
    case isa::Mnemonic::kRet:
    // Unconditional traps end the block too; caching past them would only
    // ever hold dead entries.
    case isa::Mnemonic::kHlt:
    case isa::Mnemonic::kInt3:
    case isa::Mnemonic::kUd2:
      return true;
    default:
      // kSyscall stays mid-block: it does not redirect rip (exit() ends the
      // run through the machine's run-end status, after the instruction).
      return false;
  }
}

}  // namespace

void BlockCache::sync(Memory& memory) {
  const std::uint64_t epoch = memory.code_write_epoch();
  if (epoch == synced_epoch_) return;
  synced_epoch_ = epoch;
  invalidations_ += blocks_.size();
  clear();
}

const DecodedBlock* BlockCache::lookup(std::uint64_t rip, Memory& memory) {
  const auto it = blocks_.find(rip);
  if (it != blocks_.end()) {
    ++hits_;
    return &it->second;
  }
  ++misses_;
  return build(rip, memory);
}

const DecodedBlock* BlockCache::build(std::uint64_t rip, Memory& memory) {
  if (arena_.size() >= kMaxCachedInstructions) clear();

  DecodedBlock block;
  block.start = rip;
  block.first = static_cast<std::uint32_t>(arena_.size());

  std::uint64_t address = rip;
  std::array<std::uint8_t, isa::kMaxInstructionLength> window{};
  while (block.count < kMaxBlockInstructions) {
    // Unfetchable or undecodable: end the block here. The slow path hits
    // the identical fault or error when execution actually reaches this
    // address.
    std::size_t fetched = 0;
    if (memory.try_fetch(address, window, fetched) != AccessFault::kNone) break;
    const std::span<const std::uint8_t> bytes(window.data(), fetched);
    isa::Decoded decoded;
    if (!target_->try_decode(bytes, address, decoded).ok()) break;
    arena_.push_back(Machine::compile(decoded.instr, decoded.length, target_));
    ++block.count;
    address += decoded.length;
    if (is_terminator(decoded.instr.mnemonic)) break;
  }

  if (block.count == 0) return nullptr;
  if (const auto loop = Machine::summarize_loop(ops(block), block.count, rip)) {
    loops_.push_back(*loop);
    block.loop = static_cast<std::uint32_t>(loops_.size());
  }
  return &blocks_.emplace(rip, block).first->second;
}

void BlockCache::clear() {
  blocks_.clear();
  arena_.clear();
  loops_.clear();
}

void BlockCache::flush_metrics() {
  obs::Metrics& metrics = obs::Metrics::instance();
  if (hits_ != flushed_hits_) {
    metrics.counter("emu.block_cache.hits").add(hits_ - flushed_hits_);
    flushed_hits_ = hits_;
  }
  if (misses_ != flushed_misses_) {
    metrics.counter("emu.block_cache.misses").add(misses_ - flushed_misses_);
    flushed_misses_ = misses_;
  }
  if (invalidations_ != flushed_invalidations_) {
    metrics.counter("emu.block_cache.invalidations")
        .add(invalidations_ - flushed_invalidations_);
    flushed_invalidations_ = invalidations_;
  }
}

}  // namespace r2r::emu
