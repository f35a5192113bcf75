// ISA property tests: encode/decode round-trips over a seeded random
// corpus, swept across every registered isa::Target. The hand-written cases
// in test_isa.cpp pin the envelope; this sweep hunts encoder/decoder
// disagreements in the interior — for every randomly generated instruction
// the target's encoder accepts, its decoder must reproduce the instruction
// exactly, and re-encoding the decoded form must reproduce the bytes
// exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "isa/target.h"
#include "support/error.h"
#include "support/rng.h"

// This binary replaces the global operator new/delete with a counting
// pair, so the IsaAllocations tests can pin that a path allocates nothing.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace r2r::isa {
namespace {

constexpr std::uint64_t kAddr = 0x401000;
constexpr std::size_t kCorpusSize = 10'000;

/// Deterministic generator of x86-64 candidate instructions. Not every
/// candidate is encodable (mem/mem, rsp index, b8 lea, ...) — the encoder is
/// the gatekeeper and rejected candidates are skipped, which is itself part
/// of the property: encode() must either throw or produce bytes that decode
/// back to the same instruction.
class X64Gen {
 public:
  explicit X64Gen(std::uint64_t seed) : rng_(seed) {}

  Instruction next() {
    switch (rng_.next_below(12)) {
      case 0: return two_op(Mnemonic::kMov);
      case 1:
        return two_op(pick({Mnemonic::kAdd, Mnemonic::kSub, Mnemonic::kAnd,
                            Mnemonic::kOr, Mnemonic::kXor, Mnemonic::kCmp,
                            Mnemonic::kTest, Mnemonic::kImul}));
      case 2: return make2(pick({Mnemonic::kMovzx, Mnemonic::kMovsx}), reg(),
                           rng_.next_bool() ? Operand{reg()} : mem_operand());
      case 3: return make2(Mnemonic::kLea, reg(), mem_operand());
      case 4:
        return make1(pick({Mnemonic::kNot, Mnemonic::kNeg, Mnemonic::kInc,
                           Mnemonic::kDec}),
                     rng_.next_bool() ? Operand{reg()} : mem_operand(), width());
      case 5:
        return make2(pick({Mnemonic::kShl, Mnemonic::kShr, Mnemonic::kSar}), reg(),
                     rng_.next_bool()
                         ? imm(static_cast<std::int64_t>(rng_.next_below(64)))
                         : Operand{Reg::rcx},
                     width());
      case 6:
        return rng_.next_bool()
                   ? make1(Mnemonic::kPush,
                           rng_.next_bool()
                               ? Operand{reg()}
                               : imm(static_cast<std::int32_t>(rng_.next())))
                   : make1(Mnemonic::kPop, reg());
      case 7: {  // direct branches: absolute targets within rel32 reach
        const std::int64_t target =
            static_cast<std::int64_t>(kAddr) +
            static_cast<std::int32_t>(rng_.next() & 0xFFFFF) - 0x80000;
        Instruction instr = make1(pick({Mnemonic::kJmp, Mnemonic::kCall,
                                        Mnemonic::kJcc}),
                                  imm(target));
        if (instr.mnemonic == Mnemonic::kJcc) instr.cond = cond();
        return instr;
      }
      case 8:
        return make1(pick({Mnemonic::kJmpReg, Mnemonic::kCallReg}),
                     rng_.next_bool() ? Operand{reg()} : mem_operand());
      case 9: {
        Instruction instr = make1(Mnemonic::kSetcc, reg(), Width::b8);
        instr.cond = cond();
        return instr;
      }
      case 10: {
        Instruction instr = make2(Mnemonic::kCmovcc, reg(),
                                  rng_.next_bool() ? Operand{reg()} : mem_operand(),
                                  rng_.next_bool() ? Width::b64 : Width::b32);
        instr.cond = cond();
        return instr;
      }
      default:
        return make0(pick({Mnemonic::kRet, Mnemonic::kNop, Mnemonic::kPushfq,
                           Mnemonic::kPopfq, Mnemonic::kHlt, Mnemonic::kInt3,
                           Mnemonic::kUd2, Mnemonic::kSyscall}));
    }
  }

 private:
  Instruction two_op(Mnemonic m) {
    const Width w = width();
    // dst: reg or mem; src: reg, mem or imm (encoder rejects mem/mem).
    const Operand dst = rng_.next_bool() ? Operand{reg()} : mem_operand();
    Operand src;
    switch (rng_.next_below(3)) {
      case 0: src = reg(); break;
      case 1: src = mem_operand(); break;
      default: src = immediate(m, w); break;
    }
    return make2(m, dst, src, w);
  }

  Operand immediate(Mnemonic m, Width w) {
    // mov reg, imm64 has the movabs form; everything else is imm32 at most.
    if (m == Mnemonic::kMov && w == Width::b64 && rng_.next_below(4) == 0) {
      return imm(static_cast<std::int64_t>(rng_.next()));
    }
    const auto raw = static_cast<std::int32_t>(rng_.next());
    switch (rng_.next_below(3)) {
      case 0: return imm(static_cast<std::int8_t>(raw));  // imm8 form
      case 1: return imm(static_cast<std::int16_t>(raw));
      default: return imm(raw);
    }
  }

  Reg reg() { return reg_from_number(static_cast<unsigned>(rng_.next_below(16))); }

  Width width() {
    switch (rng_.next_below(4)) {
      case 0: return Width::b8;
      case 1: return Width::b32;
      default: return Width::b64;
    }
  }

  Cond cond() { return static_cast<Cond>(rng_.next_below(16)); }

  Operand mem_operand() {
    MemOperand mem;
    if (rng_.next_below(8) == 0) {
      // RIP-relative with the displacement resolved to an absolute target.
      mem.rip_relative = true;
      mem.disp = static_cast<std::int64_t>(kAddr) +
                 static_cast<std::int32_t>(rng_.next() & 0xFFFF);
      return mem;
    }
    if (rng_.next_below(4) != 0) mem.base = reg();
    if (rng_.next_below(3) == 0) {
      mem.index = reg();
      mem.scale = static_cast<std::uint8_t>(1U << rng_.next_below(4));
    }
    switch (rng_.next_below(3)) {
      case 0: mem.disp = 0; break;
      case 1: mem.disp = static_cast<std::int8_t>(rng_.next()); break;
      default: mem.disp = static_cast<std::int32_t>(rng_.next()); break;
    }
    if (!mem.base && !mem.index) mem.disp &= 0x7FFFFFFF;  // absolute form
    return mem;
  }

  template <typename T>
  T pick(std::initializer_list<T> values) {
    return values.begin()[rng_.next_below(values.size())];
  }

  support::Rng rng_;
};

/// RV32I candidate generator: same spirit, but the draws follow the
/// target's envelope — b8/b32 widths, base+simm12 addressing, no
/// index/scale/rip, simm12 ALU immediates, u32 mov immediates (fused
/// lui+addi), 4-byte-aligned branch targets, and the custom-space flag
/// instructions the x64 encoder rejects.
class Rv32iGen {
 public:
  explicit Rv32iGen(std::uint64_t seed) : rng_(seed) {}

  Instruction next() {
    switch (rng_.next_below(12)) {
      case 0: return mov_form();
      case 1: {  // two-operand ALU (rv32i subtracts registers only)
        const Mnemonic m = pick({Mnemonic::kAdd, Mnemonic::kAnd, Mnemonic::kOr,
                                 Mnemonic::kXor});
        if (rng_.next_bool()) return make2(m, reg(), reg(), Width::b32);
        std::int64_t value = simm12();
        if (m == Mnemonic::kXor && value == -1) value = 0;  // spelled kNot
        return make2(m, reg(), imm(value), Width::b32);
      }
      case 2: return make2(Mnemonic::kSub, reg(), reg(), Width::b32);
      case 3: {  // compare family (register/immediate; b8 or b32)
        const Width w = rng_.next_bool() ? Width::b8 : Width::b32;
        if (rng_.next_below(3) == 0) return test(reg(), reg(), w);
        if (rng_.next_bool()) return cmp(reg(), reg(), w);
        return cmp(reg(), imm(simm12()), w);
      }
      case 4:
        return make2(pick({Mnemonic::kMovzx, Mnemonic::kMovsx}), reg(),
                     rng_.next_bool() ? Operand{reg()} : mem_operand(), Width::b32);
      case 5: {  // lea: nonzero displacement, distinct base
        const Reg dst = reg();
        Reg base = reg();
        while (reg_number(base) == reg_number(dst)) base = reg();
        std::int64_t disp = simm12();
        if (disp == 0) disp = 4;
        return lea(dst, mem(base, disp), Width::b32);
      }
      case 6:
        return make1(pick({Mnemonic::kNot, Mnemonic::kNeg}), reg(), Width::b32);
      case 7:  // shifts: immediate shamt 0..31 or any register count
        return make2(pick({Mnemonic::kShl, Mnemonic::kShr, Mnemonic::kSar}), reg(),
                     rng_.next_bool()
                         ? imm(static_cast<std::int64_t>(rng_.next_below(32)))
                         : Operand{reg()},
                     Width::b32);
      case 8: {  // direct branches: 4-byte-aligned targets in jal range
        const std::int64_t target =
            static_cast<std::int64_t>(kAddr) +
            static_cast<std::int64_t>(rng_.next_below(0x40000)) * 4 - 0x80000;
        Instruction instr = make1(pick({Mnemonic::kJmp, Mnemonic::kCall,
                                        Mnemonic::kJcc}),
                                  imm(target), Width::b32);
        if (instr.mnemonic == Mnemonic::kJcc) instr.cond = cond();
        return instr;
      }
      case 9: {  // indirect: jalr (jmp through ra is ret, so redraw it)
        if (rng_.next_bool()) return make1(Mnemonic::kCallReg, reg(), Width::b32);
        Reg target = reg();
        while (target == Reg::r12) target = reg();
        return make1(Mnemonic::kJmpReg, target, Width::b32);
      }
      case 10:
        switch (rng_.next_below(3)) {
          case 0: return setcc(cond(), reg());
          case 1: return read_flags(reg(), Width::b32);
          default: return write_flags(reg(), Width::b32);
        }
      default:
        return make0(pick({Mnemonic::kRet, Mnemonic::kNop, Mnemonic::kHlt,
                           Mnemonic::kInt3, Mnemonic::kUd2, Mnemonic::kSyscall}));
    }
  }

 private:
  Instruction mov_form() {
    switch (rng_.next_below(5)) {
      case 0: {  // reg <- reg: b8 rides custom-0; b32 mv needs distinct regs
        const Reg dst = reg();
        Reg src = reg();
        if (rng_.next_bool()) return mov(dst, src, Width::b8);
        while (reg_number(src) == reg_number(dst)) src = reg();
        return mov(dst, src, Width::b32);
      }
      case 1: return mov(reg(), imm(simm12()), Width::b32);  // addi form
      case 2:  // wide u32: the fused lui+addi form
        return mov(reg(), imm(static_cast<std::int64_t>(rng_.next() & 0xFFFFFFFF)),
                   Width::b32);
      case 3:  // load (b8 keeps x86 merge semantics via custom-0)
        return mov(reg(), mem_operand(), rng_.next_bool() ? Width::b8 : Width::b32);
      default:  // store (sb/sw)
        return mov(mem_operand(), reg(), rng_.next_bool() ? Width::b8 : Width::b32);
    }
  }

  std::int64_t simm12() {
    return static_cast<std::int64_t>(rng_.next_below(4096)) - 2048;
  }

  Reg reg() { return reg_from_number(static_cast<unsigned>(rng_.next_below(16))); }

  Cond cond() { return static_cast<Cond>(rng_.next_below(16)); }

  Operand mem_operand() {
    MemOperand mem;
    mem.base = reg();
    mem.disp = simm12();
    return mem;
  }

  template <typename T>
  T pick(std::initializer_list<T> values) {
    return values.begin()[rng_.next_below(values.size())];
  }

  support::Rng rng_;
};

/// `corpus_size` candidate instructions for `target`, drawn from `seed`.
std::vector<Instruction> candidates(const Target& target, std::uint64_t seed,
                                    std::size_t corpus_size) {
  std::vector<Instruction> out;
  const auto draw = [&out, corpus_size](auto gen) {
    for (std::size_t i = 0; i < corpus_size; ++i) out.push_back(gen.next());
  };
  switch (target.arch()) {
    case Arch::kX64: draw(X64Gen(seed)); break;
    case Arch::kRv32i: draw(Rv32iGen(seed)); break;
  }
  if (out.empty()) ADD_FAILURE() << "unhandled arch " << to_string(target.arch());
  return out;
}

/// The round-trip property, target-generically: for every candidate the
/// target's encoder accepts, decode(encode(i)) == i consuming exactly the
/// emitted bytes, and encode(decode(bytes)) == bytes. A Decoded reused
/// across the corpus, which still holds the previous instruction, decodes
/// the same as a fresh one.
std::size_t sweep_target(const Target& target, std::uint64_t seed,
                         std::size_t corpus_size) {
  std::size_t encoded_count = 0;
  const std::vector<Instruction> corpus = candidates(target, seed, corpus_size);
  Decoded reused;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Instruction& instr = corpus[i];

    Encoding bytes;
    try {
      bytes = target.encode(instr, kAddr);
    } catch (const support::Error&) {
      continue;  // outside the encodable subset; the generator over-approximates
    }
    ++encoded_count;

    Decoded decoded;
    EXPECT_NO_THROW(decoded = target.decode(bytes, kAddr))
        << "#" << i << " " << target.print(instr)
        << ": encoder emitted undecodable bytes";
    EXPECT_EQ(decoded.length, bytes.size()) << "#" << i << " " << target.print(instr);
    EXPECT_EQ(decoded.instr, instr)
        << "#" << i << " decoder disagreed: " << target.print(instr) << " -> "
        << target.print(decoded.instr);

    EXPECT_TRUE(target.try_decode(bytes, kAddr, reused).ok());
    EXPECT_EQ(reused.instr, decoded.instr) << "#" << i << " " << target.print(instr);
    EXPECT_EQ(reused.length, decoded.length) << "#" << i << " " << target.print(instr);

    // encode(decode(bytes)) == bytes: re-encoding is byte-stable.
    EXPECT_EQ(target.encode(decoded.instr, kAddr), bytes)
        << "#" << i << " " << target.print(instr);
    if (::testing::Test::HasFailure()) break;
  }
  return encoded_count;
}

TEST(IsaProperty, DecodeEncodeRoundTripOverRandomCorpus) {
  for (const Target* target : all_targets()) {
    SCOPED_TRACE(std::string("target ") + std::string(target->name()));
    const std::size_t encoded_count =
        sweep_target(*target, 0xDECDE5EEDULL, kCorpusSize);
    // The generator must not degenerate into rejects-only; keep the sweep
    // honest on every target.
    EXPECT_GE(encoded_count, kCorpusSize / 2)
        << target->name() << " generator produces too few encodable instructions";
  }
}

TEST(IsaProperty, RoundTripIsSeedStableAcrossStreams) {
  // Distinct Rng streams explore distinct corpora; a second stream doubles
  // coverage and guards the for_stream() substream contract in passing.
  for (const Target* target : all_targets()) {
    SCOPED_TRACE(std::string("target ") + std::string(target->name()));
    sweep_target(*target, support::Rng::for_stream(0xDECDE5EEDULL, 1).next(), 2'000);
  }
}

// ---- allocation counting ------------------------------------------------------

std::size_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// The corpus instructions `target` encodes, and their encodings.
struct Encoded {
  std::vector<Instruction> instrs;
  std::vector<Encoding> bytes;
};

Encoded encodable_corpus(const Target& target) {
  Encoded out;
  for (Instruction& instr : candidates(target, 0xDECDE5EEDULL, kCorpusSize)) {
    try {
      out.bytes.push_back(target.encode(instr, kAddr));
    } catch (const support::Error&) {
      continue;
    }
    out.instrs.push_back(std::move(instr));
  }
  return out;
}

TEST(IsaAllocations, EncodeAllocatesNothing) {
  for (const Target* target : all_targets()) {
    SCOPED_TRACE(std::string("target ") + std::string(target->name()));
    const Encoded corpus = encodable_corpus(*target);
    std::vector<Encoding> again(corpus.instrs.size());
    const std::size_t before = allocations();
    for (std::size_t i = 0; i < corpus.instrs.size(); ++i) {
      again[i] = target->encode(corpus.instrs[i], kAddr);
    }
    EXPECT_EQ(allocations() - before, 0u);
    EXPECT_EQ(again, corpus.bytes);
  }
}

TEST(IsaAllocations, WarmTryDecodeAllocatesNothing) {
  // Every encoding of the corpus and every single-bit flip of it (mostly
  // junk on rv32i, whose custom words carry parity), decoded into one
  // Decoded whose operand list already has room for two operands.
  for (const Target* target : all_targets()) {
    SCOPED_TRACE(std::string("target ") + std::string(target->name()));
    const Encoded corpus = encodable_corpus(*target);
    Decoded decoded;
    ASSERT_TRUE(target->try_decode(target->encode(add(Reg::rax, Reg::rcx,
                                                      target->natural_width()),
                                                  kAddr),
                                   kAddr, decoded)
                    .ok());
    std::size_t ok = 0;
    std::size_t failed = 0;
    const std::size_t before = allocations();
    for (const Encoding& bytes : corpus.bytes) {
      ok += target->try_decode(bytes, kAddr, decoded).ok() ? 1 : 0;
      Encoding flipped = bytes;
      for (std::size_t bit = 0; bit < flipped.size() * 8; ++bit) {
        flipped.data()[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
        failed += target->try_decode(flipped, kAddr, decoded).ok() ? 0 : 1;
        flipped.data()[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
      }
    }
    EXPECT_EQ(allocations() - before, 0u);
    EXPECT_EQ(ok, corpus.bytes.size());
    EXPECT_GT(failed, corpus.bytes.size());
  }
}

}  // namespace
}  // namespace r2r::isa
