#include "emu/machine.h"

#include <array>

#include "emu/block_cache.h"
#include "isa/decoder.h"
#include "isa/semantics.h"
#include "obs/metrics.h"
#include "support/bits.h"
#include "support/error.h"
#include "support/strings.h"

namespace r2r::emu {

namespace {

using isa::Cond;
using isa::Instruction;
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
  memory_.set_code_write_tracking(true);
}

Machine::~Machine() {
  if (cache_ != nullptr) cache_->flush_metrics();
}

Machine::Machine(Machine&&) noexcept = default;
Machine& Machine::operator=(Machine&&) noexcept = default;

void Machine::set_block_cache_enabled(bool enabled) {
  if (enabled == (cache_ != nullptr)) return;
  if (enabled) {
    cache_ = std::make_unique<BlockCache>(*target_);
    memory_.set_code_write_tracking(true);
  } else {
    cache_->flush_metrics();
    cache_.reset();
    memory_.set_code_write_tracking(false);
  }
}

std::uint64_t Machine::effective_address(const MemOperand& mem) const {
  if (mem.rip_relative) {
    // The decoder resolved RIP-relative displacements to absolute targets.
    return static_cast<std::uint64_t>(mem.disp);
  }
  std::uint64_t address = static_cast<std::uint64_t>(mem.disp);
  if (mem.base) address += cpu_.read(*mem.base, Width::b64);
  if (mem.index) address += cpu_.read(*mem.index, Width::b64) * mem.scale;
  return address;
}

std::uint64_t Machine::read_operand(const isa::Operand& op, Width width) {
  if (isa::is_reg(op)) return cpu_.read(std::get<Reg>(op), width);
  if (isa::is_imm(op)) {
    return truncate(static_cast<std::uint64_t>(std::get<isa::ImmOperand>(op).value),
                    bits_of(width));
  }
  if (isa::is_mem(op)) {
    return load(effective_address(std::get<MemOperand>(op)), isa::width_bytes(width));
  }
  support::fail(ErrorKind::kExecution, "label operand reached the executor");
}

void Machine::write_operand(const isa::Operand& op, Width width, std::uint64_t value) {
  if (isa::is_reg(op)) {
    cpu_.write(std::get<Reg>(op), width, value);
    return;
  }
  if (isa::is_mem(op)) {
    store(effective_address(std::get<MemOperand>(op)), value, isa::width_bytes(width));
    return;
  }
  support::fail(ErrorKind::kExecution, "bad destination operand");
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

void Machine::execute(const Instruction& instr, std::uint64_t next_rip) {
  const Width w = instr.width;
  Flags& f = cpu_.flags;
  cpu_.rip = next_rip;  // default; control flow overrides below

  switch (instr.mnemonic) {
    case Mnemonic::kMov:
      write_operand(instr.op(0), w, read_operand(instr.op(1), w));
      break;

    case Mnemonic::kMovzx:
      write_operand(instr.op(0), w, read_operand(instr.op(1), Width::b8));
      break;

    case Mnemonic::kMovsx: {
      const std::uint64_t v = read_operand(instr.op(1), Width::b8);
      write_operand(instr.op(0), w,
                    static_cast<std::uint64_t>(support::sign_extend(v, 8)));
      break;
    }

    case Mnemonic::kLea:
      cpu_.write(std::get<Reg>(instr.op(0)), w,
                 effective_address(std::get<MemOperand>(instr.op(1))));
      break;

    case Mnemonic::kAdd: {
      const std::uint64_t a = read_operand(instr.op(0), w);
      const std::uint64_t b = read_operand(instr.op(1), w);
      const std::uint64_t r = truncate(a + b, bits_of(w));
      set_add_flags(f, a, b, r, w);
      write_operand(instr.op(0), w, r);
      break;
    }
    case Mnemonic::kSub: {
      const std::uint64_t a = read_operand(instr.op(0), w);
      const std::uint64_t b = read_operand(instr.op(1), w);
      const std::uint64_t r = truncate(a - b, bits_of(w));
      set_sub_flags(f, a, b, r, w);
      write_operand(instr.op(0), w, r);
      break;
    }
    case Mnemonic::kCmp: {
      const std::uint64_t a = read_operand(instr.op(0), w);
      const std::uint64_t b = read_operand(instr.op(1), w);
      set_sub_flags(f, a, b, truncate(a - b, bits_of(w)), w);
      break;
    }
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
    case Mnemonic::kXor:
    case Mnemonic::kTest: {
      const std::uint64_t a = read_operand(instr.op(0), w);
      const std::uint64_t b = read_operand(instr.op(1), w);
      std::uint64_t r = 0;
      switch (instr.mnemonic) {
        case Mnemonic::kAnd:
        case Mnemonic::kTest: r = a & b; break;
        case Mnemonic::kOr: r = a | b; break;
        default: r = a ^ b; break;
      }
      r = truncate(r, bits_of(w));
      set_logic_flags(f, r, w);
      if (instr.mnemonic != Mnemonic::kTest) write_operand(instr.op(0), w, r);
      break;
    }

    case Mnemonic::kNot: {
      const std::uint64_t a = read_operand(instr.op(0), w);
      write_operand(instr.op(0), w, truncate(~a, bits_of(w)));
      break;  // not does not affect flags
    }
    case Mnemonic::kNeg: {
      const std::uint64_t a = read_operand(instr.op(0), w);
      const std::uint64_t r = truncate(0 - a, bits_of(w));
      set_sub_flags(f, 0, a, r, w);
      f.cf = truncate(a, bits_of(w)) != 0;
      write_operand(instr.op(0), w, r);
      break;
    }
    case Mnemonic::kInc:
    case Mnemonic::kDec: {
      const std::uint64_t a = read_operand(instr.op(0), w);
      const bool inc = instr.mnemonic == Mnemonic::kInc;
      const std::uint64_t r = truncate(inc ? a + 1 : a - 1, bits_of(w));
      const bool saved_cf = f.cf;  // inc/dec preserve CF
      if (inc) {
        set_add_flags(f, a, 1, r, w);
      } else {
        set_sub_flags(f, a, 1, r, w);
      }
      f.cf = saved_cf;
      write_operand(instr.op(0), w, r);
      break;
    }

    case Mnemonic::kImul: {
      const auto a = static_cast<__int128>(
          support::sign_extend(read_operand(instr.op(0), w), bits_of(w)));
      const auto b = static_cast<__int128>(
          support::sign_extend(read_operand(instr.op(1), w), bits_of(w)));
      const __int128 full = a * b;
      const std::uint64_t r = truncate(static_cast<std::uint64_t>(full), bits_of(w));
      const auto back = static_cast<__int128>(support::sign_extend(r, bits_of(w)));
      set_result_flags(f, r, w);  // architecturally undefined; pinned
      f.cf = f.of = (back != full);
      f.af = false;
      write_operand(instr.op(0), w, r);
      break;
    }

    case Mnemonic::kShl:
    case Mnemonic::kShr:
    case Mnemonic::kSar: {
      const unsigned n = bits_of(w);
      const std::uint64_t a = read_operand(instr.op(0), w);
      const std::uint64_t raw_count = read_operand(instr.op(1), Width::b8);
      const unsigned count = static_cast<unsigned>(raw_count) & (n == 64 ? 63 : 31);
      if (count == 0) break;  // flags unchanged
      std::uint64_t r = 0;
      if (instr.mnemonic == Mnemonic::kShl) {
        r = count >= n ? 0 : truncate(a << count, n);
        f.cf = count <= n && bit(a, n - count);
        f.of = count == 1 ? (msb(r, w) != f.cf) : false;
      } else if (instr.mnemonic == Mnemonic::kShr) {
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
      write_operand(instr.op(0), w, r);
      break;
    }

    case Mnemonic::kPush:
      push64(read_operand(instr.op(0), Width::b64));
      break;
    case Mnemonic::kPop:
      cpu_.write(std::get<Reg>(instr.op(0)), Width::b64, pop64());
      break;
    case Mnemonic::kPushfq:
      push64(f.to_rflags());
      break;
    case Mnemonic::kPopfq:
      f = Flags::from_rflags(pop64());
      break;

    case Mnemonic::kJmp:
      cpu_.rip = read_operand(instr.op(0), Width::b64);
      break;
    case Mnemonic::kJcc:
      if (evaluate(instr.cond, f)) cpu_.rip = read_operand(instr.op(0), Width::b64);
      break;
    case Mnemonic::kCall:
      if (target_->link_register_calls()) {
        cpu_.write(target_->link_register(), Width::b64, next_rip);
      } else {
        push64(next_rip);
      }
      cpu_.rip = read_operand(instr.op(0), Width::b64);
      break;
    case Mnemonic::kJmpReg:
      cpu_.rip = read_operand(instr.op(0), Width::b64);
      break;
    case Mnemonic::kCallReg: {
      const std::uint64_t target = read_operand(instr.op(0), Width::b64);
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
      write_operand(instr.op(0), Width::b8, evaluate(instr.cond, f) ? 1 : 0);
      break;

    case Mnemonic::kCmovcc: {
      // In 32-bit width cmov writes (zero-extends) even when the condition
      // is false, exactly like hardware.
      if (evaluate(instr.cond, f)) {
        write_operand(instr.op(0), w, read_operand(instr.op(1), w));
      } else if (w == Width::b32) {
        write_operand(instr.op(0), w, cpu_.read(std::get<Reg>(instr.op(0)), w));
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
      write_operand(instr.op(0), w, f.to_rflags());
      break;
    case Mnemonic::kWriteFlags:
      f = Flags::from_rflags(read_operand(instr.op(0), w));
      break;
  }
}

void Machine::step(bool faulted_this_step, const FaultSpec* fault, TraceEntry* entry) {
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

  isa::Decoded decoded;
  const isa::DecodeStatus status = target_->try_decode(
      std::span<const std::uint8_t>(window.data(), fetched), cpu_.rip, decoded);
  if (!status.ok()) {
    record_decode_failure(status);
    return;
  }
  if (entry != nullptr) entry->length = decoded.length;

  if (faulted_this_step && fault->kind == FaultSpec::Kind::kSkip) {
    cpu_.rip += decoded.length;
    return;
  }
  execute(decoded.instr, cpu_.rip + decoded.length);
}

bool Machine::run_cached(const RunConfig& config, const FaultSpec* fault,
                         RunResult& result) {
  cache_->sync(memory_);
  const DecodedBlock* block = cache_->lookup(cpu_.rip, memory_);
  if (block == nullptr) return false;

  // Stop before the faulted step: the faulted instruction always goes
  // through the slow path, so the cache never serves a mutated encoding
  // and pre-step register/flag flips land exactly where they would
  // uncached.
  std::uint64_t limit = config.fuel;
  if (fault != nullptr && fault->trace_index >= steps_ && fault->trace_index < limit) {
    limit = fault->trace_index;
  }

  const std::uint64_t epoch = memory_.code_write_epoch();
  bool executed = false;
  for (std::uint32_t i = 0; i < block->count && steps_ < limit; ++i) {
    const CachedInstr& ci = cache_->instr(*block, i);
    if (config.record_trace) result.trace.push_back(TraceEntry{cpu_.rip, ci.length});
    ++steps_;
    executed = true;
    execute(ci.instr, cpu_.rip + ci.length);
    // A store into code invalidates blocks — break out so the next
    // iteration re-syncs before touching the cache again.
    if (ended() || memory_.code_write_epoch() != epoch) break;
  }
  return executed;
}

RunResult Machine::run(const RunConfig& config) {
  RunResult result;
  const FaultSpec* fault = config.fault ? &*config.fault : nullptr;
  const std::uint64_t first_step = steps_;
  end_ = End::kNone;
  try {
    while (steps_ < config.fuel && !ended()) {
      const bool faulted = fault != nullptr && steps_ == fault->trace_index;
      if (cache_ != nullptr && !faulted && run_cached(config, fault, result)) {
        continue;
      }
      TraceEntry* entry = nullptr;
      if (config.record_trace) {
        // The entry is created before execution so the trace covers
        // instructions that exit or crash; step() fills in the length.
        result.trace.push_back(TraceEntry{cpu_.rip, 0});
        entry = &result.trace.back();
      }
      ++steps_;  // count attempted instructions, including the last
      step(faulted, fault, entry);
    }
    if (!ended()) {
      result.reason = StopReason::kFuelExhausted;
    } else if (end_ == End::kExit) {
      result.reason = StopReason::kExited;
      result.exit_code = exit_code_;
    } else {
      result.reason = StopReason::kCrashed;
      result.crash_detail = crash_detail();
    }
  } catch (const support::Error& error) {
    // Backstop for internal invariant errors ("label operand reached the
    // executor"); every guest-caused run end is status.
    result.reason = StopReason::kCrashed;
    result.crash_detail = error.what();
  }
  instructions_.add(steps_ - first_step);
  result.steps = steps_;
  result.output = output_;
  return result;
}

Machine::InstructionTally& Machine::InstructionTally::operator=(
    InstructionTally&& other) noexcept {
  if (this != &other) {
    flush();
    pending_ = std::exchange(other.pending_, 0);
  }
  return *this;
}

void Machine::InstructionTally::flush() noexcept {
  if (pending_ == 0) return;
  static obs::Counter& instructions = obs::Metrics::instance().counter("emu.instructions");
  instructions.add(pending_);
  pending_ = 0;
}

RunResult run_image(const elf::Image& image, std::string stdin_data,
                    const RunConfig& config) {
  Machine machine(image, std::move(stdin_data));
  return machine.run(config);
}

}  // namespace r2r::emu
