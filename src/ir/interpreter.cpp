#include "ir/interpreter.h"

#include <map>

#include "support/bits.h"
#include "support/error.h"

namespace r2r::ir {

namespace {

using support::ErrorKind;
using support::sign_extend;
using support::truncate;

constexpr unsigned kMaxCallDepth = 64;
/// Where the interpreter maps the module's globals.
constexpr std::uint64_t kGlobalsBase = 0xA0'0000;

struct ExitRequested {
  std::int64_t code;
};
struct TrapRequested {};

class Engine {
 public:
  Engine(const Module& module, emu::Memory& memory, std::string stdin_data,
         const InterpConfig& config)
      : module_(module), memory_(memory), stdin_(std::move(stdin_data)), config_(config) {}

  InterpResult run() {
    InterpResult result;
    try {
      map_globals();
      const Function* entry = module_.find_function(module_.entry_function);
      support::check(entry != nullptr, ErrorKind::kIr,
                     "entry function not found: " + module_.entry_function);
      execute_function(*entry, 0);
      result.stop = InterpStop::kReturned;
    } catch (const ExitRequested& exit) {
      result.stop = InterpStop::kExited;
      result.exit_code = exit.code;
    } catch (const TrapRequested&) {
      result.stop = InterpStop::kTrapped;
    } catch (const FuelExhausted&) {
      result.stop = InterpStop::kFuel;
    } catch (const support::Error& error) {
      result.stop = InterpStop::kCrashed;
      result.crash_detail = error.what();
    }
    result.output = std::move(output_);
    result.steps = steps_;
    return result;
  }

 private:
  struct FuelExhausted {};

  void map_globals() {
    std::uint64_t total = 0;
    for (const auto& global : module_.globals) {
      global->address = kGlobalsBase + total;
      total += (global->size() + 15) & ~std::uint64_t{15};
    }
    if (total > 0) {
      memory_.map("[ir-globals]", kGlobalsBase, total,
                  elf::kRead | elf::kWrite);
      for (const auto& global : module_.globals) {
        if (!global->init().empty()) memory_.write_block(global->address, global->init());
      }
    }
  }

  static unsigned bytes_of(Type type) {
    if (type == Type::kI8) return 1;
    if (type == Type::kI32) return 4;
    return 8;
  }

  std::uint64_t eval(const std::map<const Instr*, std::uint64_t>& frame,
                     const Value* value) {
    switch (value->kind()) {
      case Value::Kind::kConstant:
        return static_cast<const Constant*>(value)->value();
      case Value::Kind::kGlobal:
        return static_cast<const GlobalVariable*>(value)->address;
      case Value::Kind::kInstr: {
        const auto it = frame.find(static_cast<const Instr*>(value));
        support::check(it != frame.end(), ErrorKind::kIr,
                       "interpreter: use of undefined value");
        return it->second;
      }
    }
    return 0;
  }

  std::uint64_t intrinsic_syscall(std::uint64_t number, std::uint64_t a0,
                                  std::uint64_t a1, std::uint64_t a2) {
    switch (number) {
      case 0: {  // read
        if (a0 != 0) return static_cast<std::uint64_t>(-9);
        std::uint64_t count = a2;
        const std::uint64_t available = stdin_.size() - stdin_pos_;
        if (count > available) count = available;
        for (std::uint64_t i = 0; i < count; ++i) {
          memory_.write(a1 + i, static_cast<std::uint8_t>(stdin_[stdin_pos_ + i]), 1);
        }
        stdin_pos_ += count;
        return count;
      }
      case 1: {  // write
        if (a0 != 1 && a0 != 2) return static_cast<std::uint64_t>(-9);
        for (std::uint64_t i = 0; i < a2; ++i) {
          output_.push_back(static_cast<char>(memory_.read(a1 + i, 1)));
        }
        return a2;
      }
      case 60:
        throw ExitRequested{static_cast<std::int64_t>(a0)};
      default:
        return static_cast<std::uint64_t>(-38);  // ENOSYS
    }
  }

  void execute_function(const Function& fn, unsigned depth) {
    support::check(depth < kMaxCallDepth, ErrorKind::kIr,
                   "interpreter: call depth exceeded");
    support::check(!fn.is_intrinsic() && fn.entry() != nullptr, ErrorKind::kIr,
                   "interpreter: cannot execute intrinsic or empty function");

    std::map<const Instr*, std::uint64_t> frame;
    const BasicBlock* block = fn.entry();
    while (true) {
      const BasicBlock* next = nullptr;
      for (const auto& instr_ptr : block->instrs) {
        const Instr& instr = *instr_ptr;
        if (++steps_ > config_.fuel) throw FuelExhausted{};
        const unsigned bits = type_bits(instr.type());

        switch (instr.opcode()) {
          case Opcode::kAdd:
          case Opcode::kSub:
          case Opcode::kMul:
          case Opcode::kAnd:
          case Opcode::kOr:
          case Opcode::kXor:
          case Opcode::kShl:
          case Opcode::kLShr:
          case Opcode::kAShr: {
            const std::uint64_t a = eval(frame, instr.operands[0]);
            const std::uint64_t b = eval(frame, instr.operands[1]);
            std::uint64_t r = 0;
            switch (instr.opcode()) {
              case Opcode::kAdd: r = a + b; break;
              case Opcode::kSub: r = a - b; break;
              case Opcode::kMul: r = a * b; break;
              case Opcode::kAnd: r = a & b; break;
              case Opcode::kOr: r = a | b; break;
              case Opcode::kXor: r = a ^ b; break;
              case Opcode::kShl: r = (b & 63) >= bits ? 0 : a << (b & 63); break;
              case Opcode::kLShr:
                r = (b & 63) >= bits ? 0 : truncate(a, bits) >> (b & 63);
                break;
              case Opcode::kAShr: {
                const std::int64_t sa = sign_extend(a, bits);
                const unsigned count = static_cast<unsigned>(b & 63);
                r = static_cast<std::uint64_t>(sa >> (count >= bits ? bits - 1 : count));
                break;
              }
              default: break;
            }
            frame[&instr] = truncate(r, bits);
            break;
          }
          case Opcode::kICmp: {
            const unsigned opbits = type_bits(instr.operands[0]->type());
            const std::uint64_t a = truncate(eval(frame, instr.operands[0]), opbits);
            const std::uint64_t b = truncate(eval(frame, instr.operands[1]), opbits);
            const std::int64_t sa = sign_extend(a, opbits);
            const std::int64_t sb = sign_extend(b, opbits);
            bool r = false;
            switch (instr.pred) {
              case Pred::kEq: r = a == b; break;
              case Pred::kNe: r = a != b; break;
              case Pred::kUlt: r = a < b; break;
              case Pred::kUle: r = a <= b; break;
              case Pred::kUgt: r = a > b; break;
              case Pred::kUge: r = a >= b; break;
              case Pred::kSlt: r = sa < sb; break;
              case Pred::kSle: r = sa <= sb; break;
              case Pred::kSgt: r = sa > sb; break;
              case Pred::kSge: r = sa >= sb; break;
            }
            frame[&instr] = r ? 1 : 0;
            break;
          }
          case Opcode::kZExt:
            frame[&instr] = truncate(eval(frame, instr.operands[0]),
                                     type_bits(instr.operands[0]->type()));
            break;
          case Opcode::kSExt:
            frame[&instr] = truncate(
                static_cast<std::uint64_t>(
                    sign_extend(eval(frame, instr.operands[0]),
                                type_bits(instr.operands[0]->type()))),
                bits);
            break;
          case Opcode::kTrunc:
            frame[&instr] = truncate(eval(frame, instr.operands[0]), bits);
            break;
          case Opcode::kSelect:
            frame[&instr] = eval(frame, instr.operands[0]) != 0
                                ? eval(frame, instr.operands[1])
                                : eval(frame, instr.operands[2]);
            break;
          case Opcode::kLoad:
            frame[&instr] =
                memory_.read(eval(frame, instr.operands[0]), bytes_of(instr.type()));
            break;
          case Opcode::kStore:
            memory_.write(eval(frame, instr.operands[1]),
                          eval(frame, instr.operands[0]),
                          bytes_of(instr.operands[0]->type()));
            break;
          case Opcode::kBr:
            next = instr.targets[0];
            break;
          case Opcode::kCondBr:
            next = eval(frame, instr.operands[0]) != 0 ? instr.targets[0]
                                                       : instr.targets[1];
            break;
          case Opcode::kSwitch: {
            const std::uint64_t value = eval(frame, instr.operands[0]);
            next = instr.targets[0];
            for (std::size_t c = 0; c < instr.case_values.size(); ++c) {
              if (instr.case_values[c] == value) {
                next = instr.targets[c + 1];
                break;
              }
            }
            break;
          }
          case Opcode::kRet:
            return;
          case Opcode::kUnreachable:
            support::fail(ErrorKind::kIr, "interpreter: reached unreachable");
          case Opcode::kCall: {
            const Function& callee = *instr.callee;
            if (callee.is_intrinsic()) {
              if (callee.name() == kSyscallIntrinsic) {
                frame[&instr] = intrinsic_syscall(eval(frame, instr.operands[0]),
                                                  eval(frame, instr.operands[1]),
                                                  eval(frame, instr.operands[2]),
                                                  eval(frame, instr.operands[3]));
              } else if (callee.name() == kTrapIntrinsic) {
                throw TrapRequested{};
              } else {
                support::fail(ErrorKind::kIr,
                              "interpreter: unknown intrinsic " + callee.name());
              }
            } else {
              execute_function(callee, depth + 1);
            }
            break;
          }
        }
      }
      support::check(next != nullptr, ErrorKind::kIr,
                     "interpreter: block fell through without terminator");
      block = next;
    }
  }

  const Module& module_;
  emu::Memory& memory_;
  std::string stdin_;
  std::size_t stdin_pos_ = 0;
  std::string output_;
  std::uint64_t steps_ = 0;
  const InterpConfig& config_;
};

}  // namespace

InterpResult interpret(const Module& module, emu::Memory& memory,
                       std::string stdin_data, const InterpConfig& config) {
  Engine engine(module, memory, std::move(stdin_data), config);
  return engine.run();
}

}  // namespace r2r::ir
