#include "emu/machine.h"

#include <array>

#include "emu/block_cache.h"
#include "isa/decoder.h"
#include "obs/metrics.h"
#include "support/bits.h"
#include "support/error.h"
#include "support/strings.h"

namespace r2r::emu {

namespace {

using isa::Cond;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Reg;
using isa::Width;
using support::bit;
using support::ErrorKind;
using support::parity_even_low8;
using support::truncate;

constexpr std::uint64_t kOutputLimit = 1 << 20;

unsigned bits_of(Width w) noexcept { return isa::width_bits(w); }

bool msb(std::uint64_t value, Width w) noexcept { return bit(value, bits_of(w) - 1); }

void set_result_flags(Flags& f, std::uint64_t result, Width w) noexcept {
  f.zf = truncate(result, bits_of(w)) == 0;
  f.sf = msb(result, w);
  f.pf = parity_even_low8(result);
}

void set_logic_flags(Flags& f, std::uint64_t result, Width w) noexcept {
  set_result_flags(f, result, w);
  f.cf = false;
  f.of = false;
  f.af = false;  // architecturally undefined; pinned for determinism
}

void set_add_flags(Flags& f, std::uint64_t a, std::uint64_t b, std::uint64_t result,
                   Width w) noexcept {
  const unsigned n = bits_of(w);
  const std::uint64_t r = truncate(result, n);
  set_result_flags(f, r, w);
  f.cf = r < truncate(a, n);
  f.of = bit((a ^ ~b) & (a ^ r), n - 1);
  f.af = bit(a ^ b ^ r, 4);
}

void set_sub_flags(Flags& f, std::uint64_t a, std::uint64_t b, std::uint64_t result,
                   Width w) noexcept {
  const unsigned n = bits_of(w);
  const std::uint64_t r = truncate(result, n);
  set_result_flags(f, r, w);
  f.cf = truncate(a, n) < truncate(b, n);
  f.of = bit((a ^ b) & (a ^ r), n - 1);
  f.af = bit(a ^ b ^ r, 4);
}

}  // namespace

Machine::Machine(const elf::Image& image, std::string stdin_data)
    : stdin_data_(std::move(stdin_data)) {
  const auto arch = isa::arch_from_elf_machine(image.machine);
  support::check(arch.has_value(), ErrorKind::kElf,
                 "image has an e_machine no registered target handles");
  target_ = &isa::target(*arch);
  memory_.map_image(image);
  const std::uint64_t stack_base = target_->stack_base();
  memory_.map("[stack]", stack_base - kStackSize, kStackSize, elf::kRead | elf::kWrite);
  cpu_.rip = image.entry;
  cpu_.gpr[isa::reg_number(Reg::rsp)] = stack_base - 16;
  cache_ = std::make_unique<BlockCache>(*target_);
}

Machine::~Machine() {
  if (cache_ != nullptr) cache_->flush_metrics();
}

Machine::Machine(Machine&&) noexcept = default;

void Machine::set_block_cache_enabled(bool enabled) {
  if (enabled == (cache_ != nullptr)) return;
  if (enabled) {
    cache_ = std::make_unique<BlockCache>(*target_);
  } else {
    cache_->flush_metrics();
    cache_.reset();
  }
}

std::uint64_t Machine::effective_address(const MicroOperand& mem) const noexcept {
  std::uint64_t address = mem.value;
  if (mem.has_base) address += cpu_.gpr[mem.reg];
  if (mem.scale != 0) address += cpu_.gpr[mem.index] * mem.scale;
  return address;
}

std::uint64_t Machine::read(const MicroOperand& op, Width width) {
  switch (op.kind) {
    case MicroOperand::Kind::kReg: return truncate(cpu_.gpr[op.reg], bits_of(width));
    case MicroOperand::Kind::kImm: return truncate(op.value, bits_of(width));
    case MicroOperand::Kind::kMem:
      return load(effective_address(op), isa::width_bytes(width));
    case MicroOperand::Kind::kNone: break;
  }
  trap("label operand reached the executor");
  return 0;
}

void Machine::write(const MicroOperand& op, Width width, std::uint64_t value) {
  switch (op.kind) {
    case MicroOperand::Kind::kReg: cpu_.write(isa::reg_from_number(op.reg), width, value); return;
    case MicroOperand::Kind::kMem:
      store(effective_address(op), value, isa::width_bytes(width));
      return;
    case MicroOperand::Kind::kImm:
    case MicroOperand::Kind::kNone: break;
  }
  trap("bad destination operand");
}

void Machine::push64(std::uint64_t value) {
  std::uint64_t& rsp = cpu_.gpr[isa::reg_number(Reg::rsp)];
  rsp -= 8;
  store(rsp, value, 8);
}

std::uint64_t Machine::pop64() {
  std::uint64_t& rsp = cpu_.gpr[isa::reg_number(Reg::rsp)];
  const std::uint64_t value = load(rsp, 8);
  rsp += 8;
  return value;
}

std::uint64_t Machine::load(std::uint64_t address, unsigned bytes) {
  std::uint64_t value = 0;
  const AccessFault fault = memory_.try_read(address, bytes, Access::kRead, value);
  if (fault != AccessFault::kNone) [[unlikely]] record_fault(fault, address);
  return value;
}

void Machine::store(std::uint64_t address, std::uint64_t value, unsigned bytes) {
  if (ended()) return;
  const AccessFault fault = memory_.try_write(address, value, bytes);
  if (fault != AccessFault::kNone) [[unlikely]] record_fault(fault, address);
}

void Machine::record_fault(AccessFault fault, std::uint64_t address) noexcept {
  if (ended()) return;
  end_ = End::kMemory;
  fault_ = fault;
  fault_address_ = address;
}

void Machine::record_decode_failure(const isa::DecodeStatus& status) noexcept {
  if (ended()) return;
  end_ = End::kDecode;
  decode_status_ = status;
}

void Machine::trap(const char* what) noexcept {
  if (ended()) return;
  end_ = End::kTrap;
  trap_ = what;
}

[[gnu::cold]] std::string Machine::crash_detail() const {
  switch (end_) {
    case End::kMemory: return access_error(fault_, fault_address_).what();
    case End::kDecode: return isa::decode_error(decode_status_).what();
    case End::kTrap: return support::Error(ErrorKind::kExecution, trap_).what();
    case End::kNone:
    case End::kExit: break;
  }
  return {};
}

void Machine::do_syscall() {
  const std::uint64_t number = cpu_.read(Reg::rax, Width::b64);
  const std::uint64_t a0 = cpu_.read(Reg::rdi, Width::b64);
  const std::uint64_t a1 = cpu_.read(Reg::rsi, Width::b64);
  const std::uint64_t a2 = cpu_.read(Reg::rdx, Width::b64);
  std::int64_t result = 0;
  switch (number) {
    case 0: {  // read(fd, buf, len) — only stdin
      if (a0 != 0) {
        result = -9;  // EBADF
        break;
      }
      std::uint64_t count = a2;
      const std::uint64_t available = stdin_data_.size() - stdin_pos_;
      if (count > available) count = available;
      for (std::uint64_t i = 0; i < count; ++i) {
        store(a1 + i, static_cast<std::uint8_t>(stdin_data_[stdin_pos_ + i]), 1);
        if (ended()) return;  // the bytes before the fault stay written
      }
      stdin_pos_ += count;
      result = static_cast<std::int64_t>(count);
      break;
    }
    case 1: {  // write(fd, buf, len) — stdout and stderr both captured
      if (a0 != 1 && a0 != 2) {
        result = -9;
        break;
      }
      // Compared as room left, which cannot wrap for any length.
      if (output_.size() > kOutputLimit || a2 > kOutputLimit - output_.size()) {
        trap("guest output limit exceeded");
        return;
      }
      for (std::uint64_t i = 0; i < a2; ++i) {
        const std::uint64_t byte = load(a1 + i, 1);
        if (ended()) return;  // the bytes before the fault stay written
        output_.push_back(static_cast<char>(byte));
      }
      result = static_cast<std::int64_t>(a2);
      break;
    }
    case 60:  // exit(code)
      end_ = End::kExit;
      exit_code_ = static_cast<std::int64_t>(a0);
      return;
    default:
      result = -38;  // ENOSYS
      break;
  }
  cpu_.write(Reg::rax, Width::b64, static_cast<std::uint64_t>(result));
  // Real syscall clobbers rcx (return rip) and r11 (rflags).
  cpu_.write(Reg::rcx, Width::b64, cpu_.rip);
  cpu_.write(Reg::r11, Width::b64, cpu_.flags.to_rflags());
}

void Machine::execute(const MicroOp& op) {
  materialize_flags();
  const Width w = op.width;
  Flags& f = cpu_.flags;
  const std::uint64_t next_rip = cpu_.rip;  // control flow overrides rip below

  switch (op.mnemonic) {
    case Mnemonic::kMov:
      write(op.ops[0], w, read(op.ops[1], w));
      break;

    case Mnemonic::kMovzx:
      write(op.ops[0], w, read(op.ops[1], Width::b8));
      break;

    case Mnemonic::kMovsx: {
      const std::uint64_t v = read(op.ops[1], Width::b8);
      write(op.ops[0], w, static_cast<std::uint64_t>(support::sign_extend(v, 8)));
      break;
    }

    case Mnemonic::kLea:
      write(op.ops[0], w, effective_address(op.ops[1]));
      break;

    case Mnemonic::kAdd: {
      const std::uint64_t a = read(op.ops[0], w);
      const std::uint64_t b = read(op.ops[1], w);
      const std::uint64_t r = truncate(a + b, bits_of(w));
      set_add_flags(f, a, b, r, w);
      write(op.ops[0], w, r);
      break;
    }
    case Mnemonic::kSub: {
      const std::uint64_t a = read(op.ops[0], w);
      const std::uint64_t b = read(op.ops[1], w);
      const std::uint64_t r = truncate(a - b, bits_of(w));
      set_sub_flags(f, a, b, r, w);
      write(op.ops[0], w, r);
      break;
    }
    case Mnemonic::kCmp: {
      const std::uint64_t a = read(op.ops[0], w);
      const std::uint64_t b = read(op.ops[1], w);
      set_sub_flags(f, a, b, truncate(a - b, bits_of(w)), w);
      break;
    }
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
    case Mnemonic::kXor:
    case Mnemonic::kTest: {
      const std::uint64_t a = read(op.ops[0], w);
      const std::uint64_t b = read(op.ops[1], w);
      std::uint64_t r = 0;
      switch (op.mnemonic) {
        case Mnemonic::kAnd:
        case Mnemonic::kTest: r = a & b; break;
        case Mnemonic::kOr: r = a | b; break;
        default: r = a ^ b; break;
      }
      r = truncate(r, bits_of(w));
      set_logic_flags(f, r, w);
      if (op.mnemonic != Mnemonic::kTest) write(op.ops[0], w, r);
      break;
    }

    case Mnemonic::kNot: {
      const std::uint64_t a = read(op.ops[0], w);
      write(op.ops[0], w, truncate(~a, bits_of(w)));
      break;  // not does not affect flags
    }
    case Mnemonic::kNeg: {
      const std::uint64_t a = read(op.ops[0], w);
      const std::uint64_t r = truncate(0 - a, bits_of(w));
      set_sub_flags(f, 0, a, r, w);
      f.cf = truncate(a, bits_of(w)) != 0;
      write(op.ops[0], w, r);
      break;
    }
    case Mnemonic::kInc:
    case Mnemonic::kDec: {
      const std::uint64_t a = read(op.ops[0], w);
      const bool inc = op.mnemonic == Mnemonic::kInc;
      const std::uint64_t r = truncate(inc ? a + 1 : a - 1, bits_of(w));
      const bool saved_cf = f.cf;  // inc/dec preserve CF
      if (inc) {
        set_add_flags(f, a, 1, r, w);
      } else {
        set_sub_flags(f, a, 1, r, w);
      }
      f.cf = saved_cf;
      write(op.ops[0], w, r);
      break;
    }

    case Mnemonic::kImul: {
      const auto a = static_cast<__int128>(
          support::sign_extend(read(op.ops[0], w), bits_of(w)));
      const auto b = static_cast<__int128>(
          support::sign_extend(read(op.ops[1], w), bits_of(w)));
      const __int128 full = a * b;
      const std::uint64_t r = truncate(static_cast<std::uint64_t>(full), bits_of(w));
      const auto back = static_cast<__int128>(support::sign_extend(r, bits_of(w)));
      set_result_flags(f, r, w);  // architecturally undefined; pinned
      f.cf = f.of = (back != full);
      f.af = false;
      write(op.ops[0], w, r);
      break;
    }

    case Mnemonic::kShl:
    case Mnemonic::kShr:
    case Mnemonic::kSar: {
      const unsigned n = bits_of(w);
      const std::uint64_t a = read(op.ops[0], w);
      const std::uint64_t raw_count = read(op.ops[1], Width::b8);
      const unsigned count = static_cast<unsigned>(raw_count) & (n == 64 ? 63 : 31);
      if (count == 0) break;  // flags unchanged
      std::uint64_t r = 0;
      if (op.mnemonic == Mnemonic::kShl) {
        r = count >= n ? 0 : truncate(a << count, n);
        f.cf = count <= n && bit(a, n - count);
        f.of = count == 1 ? (msb(r, w) != f.cf) : false;
      } else if (op.mnemonic == Mnemonic::kShr) {
        r = count >= n ? 0 : truncate(a, n) >> count;
        f.cf = count <= n && bit(a, count - 1);
        f.of = count == 1 ? msb(a, w) : false;
      } else {
        const std::int64_t sa = support::sign_extend(a, n);
        r = truncate(static_cast<std::uint64_t>(sa >> (count >= n ? n - 1 : count)), n);
        f.cf = bit(static_cast<std::uint64_t>(sa), count >= n ? n - 1 : count - 1);
        f.of = false;
      }
      set_result_flags(f, r, w);
      f.af = false;
      write(op.ops[0], w, r);
      break;
    }

    case Mnemonic::kPush:
      push64(read(op.ops[0], Width::b64));
      break;
    case Mnemonic::kPop:
      write(op.ops[0], Width::b64, pop64());
      break;
    case Mnemonic::kPushfq:
      push64(f.to_rflags());
      break;
    case Mnemonic::kPopfq:
      f = Flags::from_rflags(pop64());
      break;

    case Mnemonic::kJmp:
      cpu_.rip = read(op.ops[0], Width::b64);
      break;
    case Mnemonic::kJcc:
      if (evaluate(op.cond, f)) cpu_.rip = read(op.ops[0], Width::b64);
      break;
    case Mnemonic::kCall:
      if (target_->link_register_calls()) {
        cpu_.write(target_->link_register(), Width::b64, next_rip);
      } else {
        push64(next_rip);
      }
      cpu_.rip = read(op.ops[0], Width::b64);
      break;
    case Mnemonic::kJmpReg:
      cpu_.rip = read(op.ops[0], Width::b64);
      break;
    case Mnemonic::kCallReg: {
      const std::uint64_t target = read(op.ops[0], Width::b64);
      if (target_->link_register_calls()) {
        cpu_.write(target_->link_register(), Width::b64, next_rip);
      } else {
        push64(next_rip);
      }
      cpu_.rip = target;
      break;
    }
    case Mnemonic::kRet:
      cpu_.rip = target_->link_register_calls()
                     ? cpu_.read(target_->link_register(), Width::b64)
                     : pop64();
      break;

    case Mnemonic::kSetcc:
      write(op.ops[0], Width::b8, evaluate(op.cond, f) ? 1 : 0);
      break;

    case Mnemonic::kCmovcc: {
      // In 32-bit width cmov writes (zero-extends) even when the condition
      // is false, exactly like hardware.
      if (evaluate(op.cond, f)) {
        write(op.ops[0], w, read(op.ops[1], w));
      } else if (w == Width::b32) {
        write(op.ops[0], w, read(op.ops[0], w));
      }
      break;
    }

    case Mnemonic::kSyscall:
      do_syscall();
      break;

    case Mnemonic::kNop:
      break;
    case Mnemonic::kHlt:
      trap("hlt in user mode");
      break;
    case Mnemonic::kInt3:
      trap("breakpoint trap");
      break;
    case Mnemonic::kUd2:
      trap("ud2 invalid opcode");
      break;

    case Mnemonic::kReadFlags:
      write(op.ops[0], w, f.to_rflags());
      break;
    case Mnemonic::kWriteFlags:
      f = Flags::from_rflags(read(op.ops[0], w));
      break;
  }
}

void Machine::step(bool faulted_this_step, const FaultSpec* fault, TraceEntry* entry) {
  ++tally_.generic_steps;
  materialize_flags();  // a flag flip acts on architectural flags
  if (faulted_this_step && fault->kind == FaultSpec::Kind::kRegisterBitFlip) {
    const unsigned reg = (fault->bit_offset / 64) % isa::kRegCount;
    cpu_.gpr[reg] ^= std::uint64_t{1} << (fault->bit_offset % 64);
  }
  if (faulted_this_step && fault->kind == FaultSpec::Kind::kFlagFlip) {
    switch (fault->bit_offset % 6) {
      case 0: cpu_.flags.cf = !cpu_.flags.cf; break;
      case 1: cpu_.flags.pf = !cpu_.flags.pf; break;
      case 2: cpu_.flags.af = !cpu_.flags.af; break;
      case 3: cpu_.flags.zf = !cpu_.flags.zf; break;
      case 4: cpu_.flags.sf = !cpu_.flags.sf; break;
      case 5: cpu_.flags.of = !cpu_.flags.of; break;
    }
  }
  std::array<std::uint8_t, isa::kMaxInstructionLength> window{};
  std::size_t fetched = 0;
  const AccessFault fetch_fault = memory_.try_fetch(cpu_.rip, window, fetched);
  if (fetch_fault != AccessFault::kNone) {
    record_fault(fetch_fault, cpu_.rip);
    return;
  }

  if (faulted_this_step && fault->kind == FaultSpec::Kind::kBitFlip) {
    // Transient fault: flip one bit of the fetched encoding; memory keeps
    // the original bytes (mirrors a glitch on the instruction bus).
    // Enumeration plans offsets against the golden instruction's length.
    // In a higher-order run an earlier fault can move control, so the
    // planned step may fetch fewer bytes: near the end of .text the fetch
    // window is short. Such a flip crashes the run rather than silently
    // running the fault-free instruction and counting a phantom fault.
    // (A same-sized mismatch mid-.text lands inside the longer window and
    // flips a byte of whatever follows; docs/higher-order.md records the
    // open question.)
    const std::uint32_t byte_index = fault->bit_offset / 8;
    if (byte_index >= fetched) {
      trap("bit-flip fault offset past the fetched encoding");
      return;
    }
    window[byte_index] =
        static_cast<std::uint8_t>(window[byte_index] ^ (1U << (fault->bit_offset % 8)));
  }

  const isa::DecodeStatus status = target_->try_decode(
      std::span<const std::uint8_t>(window.data(), fetched), cpu_.rip, decoded_);
  if (!status.ok()) {
    record_decode_failure(status);
    return;
  }
  if (entry != nullptr) entry->length = decoded_.length;

  cpu_.rip += decoded_.length;
  if (faulted_this_step && fault->kind == FaultSpec::Kind::kSkip) return;
  execute(compile(decoded_.instr, decoded_.length));
}

// ---- lazy flags --------------------------------------------------------------

void Machine::materialize_flags() noexcept {
  const PendingFlags& p = pending_;
  Flags& f = cpu_.flags;
  constexpr Width w = Width::b64;
  switch (p.op) {
    case PendingFlags::Op::kNone: return;
    case PendingFlags::Op::kAdd: set_add_flags(f, p.a, p.b, p.result, w); break;
    case PendingFlags::Op::kSub: set_sub_flags(f, p.a, p.b, p.result, w); break;
    case PendingFlags::Op::kLogic: set_logic_flags(f, p.result, w); break;
    case PendingFlags::Op::kInc:
      set_add_flags(f, p.a, 1, p.result, w);
      f.cf = p.carry;
      break;
    case PendingFlags::Op::kDec:
      set_sub_flags(f, p.a, 1, p.result, w);
      f.cf = p.carry;
      break;
    case PendingFlags::Op::kMul:
      set_result_flags(f, p.result, w);  // architecturally undefined; pinned
      f.cf = f.of = p.carry;
      f.af = false;
      break;
  }
  pending_.op = PendingFlags::Op::kNone;
}

bool Machine::carry_flag() const noexcept {
  const PendingFlags& p = pending_;
  switch (p.op) {
    case PendingFlags::Op::kNone: break;
    case PendingFlags::Op::kAdd: return p.result < p.a;
    case PendingFlags::Op::kSub: return p.a < p.b;
    case PendingFlags::Op::kLogic: return false;
    case PendingFlags::Op::kInc:
    case PendingFlags::Op::kDec:
    case PendingFlags::Op::kMul: return p.carry;
  }
  return cpu_.flags.cf;
}

bool Machine::condition(Cond cond) noexcept {
  if (pending_.op != PendingFlags::Op::kNone) {
    if (cond == Cond::e) return pending_.result == 0;
    if (cond == Cond::ne) return pending_.result != 0;
    materialize_flags();
  }
  return evaluate(cond, cpu_.flags);
}

// ---- the handler table ---------------------------------------------------------
//
// Entry 0 is the generic entry. The specialized entries are the 64-bit
// register/immediate/memory shapes that the `emu.generic_steps` counter
// found in the sweeps (campaign_o2, the Faulter+Patcher ladder), plus the
// direct branches and stack call/ret at any width. Each one does exactly
// what the generic entry does for its shape, except that flags stay
// pending.

struct Handlers {
  using Fn = void (*)(Machine&, const MicroOp&);
  using PendingFlags = Machine::PendingFlags;

  /// Handler-table indices, in table order. RR/RI/RM/MR: destination and
  /// source are a register, an immediate or memory.
  enum Id : std::uint8_t {
    kGeneric,
    kMovRI, kMovRM, kMovMR, kMovzxRM, kLeaRM,
    kAddRI, kAndRI, kOrRR, kXorRR, kXorRI, kCmpRR, kCmpRI, kCmpRM,
    kInc, kDec, kImulRR, kJcc, kJmp, kCall, kRet,
    kCount,
  };

  static void generic(Machine& m, const MicroOp& op) {
    ++m.tally_.generic_steps;
    m.execute(op);
  }

  static std::uint64_t& gpr(Machine& m, const MicroOperand& op) { return m.cpu_.gpr[op.reg]; }

  static void mov_ri(Machine& m, const MicroOp& op) { gpr(m, op.ops[0]) = op.ops[1].value; }
  static void mov_rm(Machine& m, const MicroOp& op) {
    gpr(m, op.ops[0]) = m.load(m.effective_address(op.ops[1]), 8);
  }
  static void mov_mr(Machine& m, const MicroOp& op) {
    m.store(m.effective_address(op.ops[0]), gpr(m, op.ops[1]), 8);
  }
  static void movzx_rm(Machine& m, const MicroOp& op) {
    gpr(m, op.ops[0]) = m.load(m.effective_address(op.ops[1]), 1);
  }
  static void lea_rm(Machine& m, const MicroOp& op) {
    gpr(m, op.ops[0]) = m.effective_address(op.ops[1]);
  }

  /// add/and/or/xor/cmp of a register with a register (kSrc == kReg), an
  /// immediate or a memory operand.
  template <Mnemonic kOp, MicroOperand::Kind kSrc>
  static void alu(Machine& m, const MicroOp& op) {
    std::uint64_t& dst = gpr(m, op.ops[0]);
    const std::uint64_t a = dst;
    std::uint64_t b = 0;
    if constexpr (kSrc == MicroOperand::Kind::kReg) b = gpr(m, op.ops[1]);
    if constexpr (kSrc == MicroOperand::Kind::kImm) b = op.ops[1].value;
    if constexpr (kSrc == MicroOperand::Kind::kMem) b = m.load(m.effective_address(op.ops[1]), 8);
    PendingFlags& p = m.pending_;
    p.a = a;
    p.b = b;
    if constexpr (kOp == Mnemonic::kAdd) {
      p.op = PendingFlags::Op::kAdd;
      p.result = a + b;
    } else if constexpr (kOp == Mnemonic::kCmp) {
      p.op = PendingFlags::Op::kSub;
      p.result = a - b;
    } else {
      p.op = PendingFlags::Op::kLogic;
      if constexpr (kOp == Mnemonic::kAnd) p.result = a & b;
      if constexpr (kOp == Mnemonic::kOr) p.result = a | b;
      if constexpr (kOp == Mnemonic::kXor) p.result = a ^ b;
    }
    if constexpr (kOp != Mnemonic::kCmp) dst = p.result;
  }

  template <bool kIncrement>
  static void inc_dec(Machine& m, const MicroOp& op) {
    std::uint64_t& dst = gpr(m, op.ops[0]);
    PendingFlags& p = m.pending_;
    p.carry = m.carry_flag();  // before the record below replaces it
    p.op = kIncrement ? PendingFlags::Op::kInc : PendingFlags::Op::kDec;
    p.a = dst;
    p.b = 1;
    p.result = kIncrement ? dst + 1 : dst - 1;
    dst = p.result;
  }

  static void imul_rr(Machine& m, const MicroOp& op) {
    std::uint64_t& dst = gpr(m, op.ops[0]);
    PendingFlags& p = m.pending_;
    std::int64_t product = 0;
    p.carry = __builtin_mul_overflow(static_cast<std::int64_t>(dst),
                                     static_cast<std::int64_t>(gpr(m, op.ops[1])), &product);
    p.op = PendingFlags::Op::kMul;
    p.result = static_cast<std::uint64_t>(product);
    dst = p.result;
  }

  static void jcc(Machine& m, const MicroOp& op) {
    if (m.condition(op.cond)) m.cpu_.rip = op.ops[0].value;
  }
  static void jmp(Machine& m, const MicroOp& op) { m.cpu_.rip = op.ops[0].value; }
  static void call(Machine& m, const MicroOp& op) {
    m.push64(m.cpu_.rip);
    m.cpu_.rip = op.ops[0].value;
  }
  static void ret(Machine& m, const MicroOp&) { m.cpu_.rip = m.pop64(); }

  /// The specialized handler for `op`'s shape on `target`, or kGeneric.
  static Id select(const MicroOp& op, const isa::Target& target) noexcept {
    using Kind = MicroOperand::Kind;
    const Kind dst = op.ops[0].kind;
    const Kind src = op.ops[1].kind;
    const bool stack_calls = !target.link_register_calls();
    // Branch targets are read at 64 bits whatever the instruction width.
    switch (op.mnemonic) {
      case Mnemonic::kJcc: return dst == Kind::kImm ? kJcc : kGeneric;
      case Mnemonic::kJmp: return dst == Kind::kImm ? kJmp : kGeneric;
      case Mnemonic::kCall: return dst == Kind::kImm && stack_calls ? kCall : kGeneric;
      case Mnemonic::kRet: return stack_calls ? kRet : kGeneric;
      default: break;
    }
    if (op.width != Width::b64) return kGeneric;
    // The handler for a register destination and each source kind.
    const auto to_reg = [&](Id from_reg, Id from_imm, Id from_mem) {
      if (dst != Kind::kReg) return kGeneric;
      switch (src) {
        case Kind::kReg: return from_reg;
        case Kind::kImm: return from_imm;
        case Kind::kMem: return from_mem;
        case Kind::kNone: break;
      }
      return kGeneric;
    };
    switch (op.mnemonic) {
      case Mnemonic::kMov:
        if (dst == Kind::kMem) return src == Kind::kReg ? kMovMR : kGeneric;
        return to_reg(kGeneric, kMovRI, kMovRM);
      case Mnemonic::kMovzx: return to_reg(kGeneric, kGeneric, kMovzxRM);
      case Mnemonic::kLea: return to_reg(kGeneric, kGeneric, kLeaRM);
      case Mnemonic::kAdd: return to_reg(kGeneric, kAddRI, kGeneric);
      case Mnemonic::kAnd: return to_reg(kGeneric, kAndRI, kGeneric);
      case Mnemonic::kOr: return to_reg(kOrRR, kGeneric, kGeneric);
      case Mnemonic::kXor: return to_reg(kXorRR, kXorRI, kGeneric);
      case Mnemonic::kCmp: return to_reg(kCmpRR, kCmpRI, kCmpRM);
      case Mnemonic::kImul: return to_reg(kImulRR, kGeneric, kGeneric);
      case Mnemonic::kInc: return dst == Kind::kReg ? kInc : kGeneric;
      case Mnemonic::kDec: return dst == Kind::kReg ? kDec : kGeneric;
      default: return kGeneric;
    }
  }
};

namespace {

using Kind = MicroOperand::Kind;

constexpr std::array<Handlers::Fn, Handlers::kCount> kHandlers = {
    &Handlers::generic,
    &Handlers::mov_ri, &Handlers::mov_rm, &Handlers::mov_mr, &Handlers::movzx_rm,
    &Handlers::lea_rm,
    &Handlers::alu<Mnemonic::kAdd, Kind::kImm>, &Handlers::alu<Mnemonic::kAnd, Kind::kImm>,
    &Handlers::alu<Mnemonic::kOr, Kind::kReg>, &Handlers::alu<Mnemonic::kXor, Kind::kReg>,
    &Handlers::alu<Mnemonic::kXor, Kind::kImm>, &Handlers::alu<Mnemonic::kCmp, Kind::kReg>,
    &Handlers::alu<Mnemonic::kCmp, Kind::kImm>, &Handlers::alu<Mnemonic::kCmp, Kind::kMem>,
    &Handlers::inc_dec<true>, &Handlers::inc_dec<false>, &Handlers::imul_rr,
    &Handlers::jcc, &Handlers::jmp, &Handlers::call, &Handlers::ret,
};

MicroOperand compile_operand(const isa::Operand& operand) {
  MicroOperand out;
  if (const auto* reg = std::get_if<Reg>(&operand)) {
    out.kind = Kind::kReg;
    out.reg = static_cast<std::uint8_t>(isa::reg_number(*reg));
  } else if (const auto* imm = std::get_if<isa::ImmOperand>(&operand)) {
    out.kind = Kind::kImm;
    out.value = static_cast<std::uint64_t>(imm->value);
  } else if (const auto* mem = std::get_if<MemOperand>(&operand)) {
    out.kind = Kind::kMem;
    out.value = static_cast<std::uint64_t>(mem->disp);
    if (!mem->rip_relative) {
      if (mem->base) {
        out.has_base = true;
        out.reg = static_cast<std::uint8_t>(isa::reg_number(*mem->base));
      }
      if (mem->index) {
        out.index = static_cast<std::uint8_t>(isa::reg_number(*mem->index));
        out.scale = mem->scale;
      }
    }
  }
  return out;
}

}  // namespace

MicroOp Machine::compile(const isa::Instruction& instr, std::uint8_t length,
                         const isa::Target* specialize_for) {
  MicroOp op;
  op.mnemonic = instr.mnemonic;
  op.cond = instr.cond;
  op.width = instr.width;
  op.length = length;
  for (std::size_t i = 0; i < op.ops.size() && i < instr.operands.size(); ++i) {
    op.ops[i] = compile_operand(instr.operands[i]);
  }
  if (specialize_for != nullptr) op.handler = Handlers::select(op, *specialize_for);
  return op;
}

std::optional<LoopSummary> Machine::summarize_loop(const MicroOp* ops, std::size_t count,
                                                   std::uint64_t start) {
  if (count < 2) return std::nullopt;
  const MicroOp& back_edge = ops[count - 1];
  if (back_edge.handler != Handlers::kJcc || back_edge.cond != Cond::ne ||
      back_edge.ops[0].value != start) {
    return std::nullopt;
  }
  LoopSummary loop;
  std::uint32_t written = 0;  // register bit set
  std::uint32_t bases = 0;
  const MicroOp* exit_test = nullptr;  // the last flag writer, if a cmp
  for (std::size_t i = 0; i + 1 < count; ++i) {
    const MicroOp& op = ops[i];
    const MicroOperand& dst = op.ops[0];
    switch (op.handler) {
      case Handlers::kAddRI: loop.delta[dst.reg] += op.ops[1].value; break;
      case Handlers::kInc: loop.delta[dst.reg] += 1; break;
      case Handlers::kDec: loop.delta[dst.reg] -= 1; break;
      case Handlers::kCmpRI: exit_test = &op; continue;
      case Handlers::kMovMR:
        // [base+disp] only: rip-relative and absolute stores have no base.
        if (!dst.has_base || dst.scale != 0) return std::nullopt;
        bases |= 1U << dst.reg;
        continue;
      default: return std::nullopt;
    }
    if (dst.reg == isa::reg_number(Reg::rsp)) return std::nullopt;
    written |= 1U << dst.reg;
    exit_test = nullptr;  // add, inc and dec write flags too
  }
  if (exit_test == nullptr || (written & bases) != 0) return std::nullopt;
  loop.counter = exit_test->ops[0].reg;
  loop.bound = exit_test->ops[1].value;
  const std::uint64_t step = loop.delta[loop.counter];
  if (step != 1 && step != ~std::uint64_t{0}) return std::nullopt;
  return loop;
}

// ---- dispatch ------------------------------------------------------------------

bool Machine::run_cached(std::uint64_t fuel, const FaultSpec* fault,
                         std::vector<TraceEntry>* trace) {
  cache_->sync(memory_);
  const DecodedBlock* block = cache_->lookup(cpu_.rip, memory_);
  if (block == nullptr) return false;

  // Stop before the faulted step: the faulted instruction always goes
  // through the slow path, so the cache never serves a mutated encoding
  // and pre-step register/flag flips land exactly where they would
  // uncached.
  std::uint64_t limit = fuel;
  if (fault != nullptr && fault->trace_index >= steps_ && fault->trace_index < limit) {
    limit = fault->trace_index;
  }
  if (steps_ >= limit) return false;

  const std::uint64_t epoch = memory_.code_write_epoch();
  const std::uint64_t count = std::min<std::uint64_t>(block->count, limit - steps_);
  const MicroOp* ops = cache_->ops(*block);
  for (std::uint64_t i = 0; i < count; ++i) {
    const MicroOp& op = ops[i];
    if (trace != nullptr) trace->push_back(TraceEntry{cpu_.rip, op.length});
    ++steps_;
    cpu_.rip += op.length;
    kHandlers[op.handler](*this, op);
    // A store into code empties the cache (this block too): return so
    // the next iteration re-syncs before touching the cache again.
    if (ended() || memory_.code_write_epoch() != epoch) break;
  }
  // Only the back edge returns rip to the start of a loop block, and the
  // loop above stops before it after a store into code or a run end: here
  // a whole untraced iteration just ran, every store landed, none in code.
  if (block->loop != 0 && trace == nullptr && cpu_.rip == block->start) {
    fast_forward(cache_->loop(*block), count, limit);
  }
  return true;
}

void Machine::fast_forward(const LoopSummary& loop, std::uint64_t length,
                           std::uint64_t limit) noexcept {
  // The jne just taken saw counter != bound, and the n-th iteration from
  // here compares counter + n·step, so n = (bound - counter)·step is the
  // exiting iteration (step = ±1 is its own inverse mod 2^64).
  const std::uint64_t step = loop.delta[loop.counter];
  const std::uint64_t to_exit = (loop.bound - cpu_.gpr[loop.counter]) * step;
  const std::uint64_t iterations = std::min(to_exit, (limit - steps_) / length);
  if (iterations < 2) return;
  // Leave one whole iteration to run for real: it rewrites every store
  // address and, through the exit test, every flag the skipped ones wrote,
  // and it is the exiting one when the exit comes first.
  const std::uint64_t skipped = iterations - 1;
  for (std::size_t r = 0; r < loop.delta.size(); ++r) cpu_.gpr[r] += skipped * loop.delta[r];
  steps_ += skipped * length;
  tally_.fast_forward_steps += skipped * length;
}

StopReason Machine::loop(std::uint64_t fuel, const FaultSpec* fault,
                         std::vector<TraceEntry>* trace) {
  const std::uint64_t first_step = steps_;
  end_ = End::kNone;
  while (steps_ < fuel && !ended()) {
    const bool faulted = fault != nullptr && steps_ == fault->trace_index;
    if (cache_ != nullptr && !faulted && run_cached(fuel, fault, trace)) continue;
    TraceEntry* entry = nullptr;
    if (trace != nullptr) {
      // The entry is created before execution so the trace covers
      // instructions that exit or crash; step() fills in the length.
      trace->push_back(TraceEntry{cpu_.rip, 0});
      entry = &trace->back();
    }
    ++steps_;  // count attempted instructions, including the last
    step(faulted, fault, entry);
  }
  materialize_flags();  // flags are architectural outside run()/advance()
  tally_.instructions += steps_ - first_step;
  if (!ended()) return StopReason::kFuelExhausted;
  return end_ == End::kExit ? StopReason::kExited : StopReason::kCrashed;
}

StopReason Machine::advance(std::uint64_t fuel, const std::optional<FaultSpec>& fault) {
  return loop(fuel, fault ? &*fault : nullptr, nullptr);
}

RunResult Machine::run(const RunConfig& config) {
  RunResult result;
  result.reason = loop(config.fuel, config.fault ? &*config.fault : nullptr,
                       config.record_trace ? &result.trace : nullptr);
  if (result.reason == StopReason::kExited) result.exit_code = exit_code_;
  if (result.reason == StopReason::kCrashed) result.crash_detail = crash_detail();
  result.steps = steps_;
  result.output = output_;
  return result;
}

void Machine::StepTally::flush() noexcept {
  static obs::Counter& instructions_counter =
      obs::Metrics::instance().counter("emu.instructions");
  static obs::Counter& generic_counter =
      obs::Metrics::instance().counter("emu.generic_steps");
  static obs::Counter& fast_forward_counter =
      obs::Metrics::instance().counter("emu.fast_forward_steps");
  if (instructions != 0) instructions_counter.add(instructions);
  if (generic_steps != 0) generic_counter.add(generic_steps);
  if (fast_forward_steps != 0) fast_forward_counter.add(fast_forward_steps);
  instructions = 0;
  generic_steps = 0;
  fast_forward_steps = 0;
}

RunResult run_image(const elf::Image& image, std::string stdin_data,
                    const RunConfig& config) {
  Machine machine(image, std::move(stdin_data));
  return machine.run(config);
}

}  // namespace r2r::emu
