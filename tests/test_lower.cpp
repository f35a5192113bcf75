// Lowering: hand-built IR functions executed on the machine after code
// generation must match the interpreter (property sweeps over operations
// and operand values), plus structural checks on fusion and frames.
#include <gtest/gtest.h>

#include "bir/assemble.h"
#include "emu/machine.h"
#include "ir/builder.h"
#include "ir/interpreter.h"
#include "ir/verifier.h"
#include "isa/target.h"
#include "lower/lower.h"
#include "support/error.h"
#include "support/rng.h"

namespace r2r::lower {
namespace {

using ir::BasicBlock;
using ir::Builder;
using ir::Function;
using ir::GlobalVariable;
using ir::Instr;
using ir::Opcode;
using ir::Pred;
using ir::Type;

/// Runs `module` (entry must exit via the syscall intrinsic) on the
/// machine after lowering and returns the result.
emu::RunResult run_lowered(const ir::Module& module, std::string input = {}) {
  const elf::Image image = lower_to_image(module, {});
  return emu::run_image(image, std::move(input));
}

/// Appends exit(code_value) via the syscall intrinsic.
void emit_exit(Builder& builder, ir::Module& module, ir::Value* code) {
  Function* syscall_fn = module.get_intrinsic(ir::kSyscallIntrinsic, Type::kI64, 4);
  builder.call(syscall_fn, {builder.const_i64(60), code, builder.const_i64(0),
                            builder.const_i64(0)});
  builder.unreachable();
}

struct OpCase {
  Opcode opcode;
  std::uint64_t a;
  std::uint64_t b;
};

class LoweredBinaryOps : public testing::TestWithParam<OpCase> {};

TEST_P(LoweredBinaryOps, MachineMatchesHostArithmetic) {
  const auto [opcode, a, b] = GetParam();
  ir::Module module;
  Function* main = module.add_function("_start");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  const std::uint64_t count = b & 63;
  Instr* result =
      builder.binary(opcode, builder.const_i64(a),
                     (opcode == Opcode::kShl || opcode == Opcode::kLShr ||
                      opcode == Opcode::kAShr)
                         ? builder.const_i64(count)
                         : builder.const_i64(b));
  // Exit with the low 8 bits of an avalanche of the result so every bit of
  // the computation influences the observable exit code.
  Instr* folded = builder.xor_(result, builder.lshr(result, builder.const_i64(32)));
  folded = builder.xor_(folded, builder.lshr(folded, builder.const_i64(16)));
  folded = builder.xor_(folded, builder.lshr(folded, builder.const_i64(8)));
  Instr* low = builder.and_(folded, builder.const_i64(0xFF));
  emit_exit(builder, module, low);
  module.entry_function = "_start";
  ir::verify(module);

  std::uint64_t expected = 0;
  switch (opcode) {
    case Opcode::kAdd: expected = a + b; break;
    case Opcode::kSub: expected = a - b; break;
    case Opcode::kMul: expected = a * b; break;
    case Opcode::kAnd: expected = a & b; break;
    case Opcode::kOr: expected = a | b; break;
    case Opcode::kXor: expected = a ^ b; break;
    case Opcode::kShl: expected = a << count; break;
    case Opcode::kLShr: expected = a >> count; break;
    case Opcode::kAShr:
      expected = static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >> count);
      break;
    default: FAIL();
  }
  expected ^= expected >> 32;
  expected ^= expected >> 16;
  expected ^= expected >> 8;
  expected &= 0xFF;

  const emu::RunResult run = run_lowered(module);
  ASSERT_EQ(run.reason, emu::StopReason::kExited) << run.crash_detail;
  EXPECT_EQ(static_cast<std::uint64_t>(run.exit_code), expected);
}

std::vector<OpCase> op_cases() {
  std::vector<OpCase> cases;
  support::Rng rng(7);
  for (const Opcode opcode : {Opcode::kAdd, Opcode::kSub, Opcode::kMul, Opcode::kAnd,
                              Opcode::kOr, Opcode::kXor, Opcode::kShl, Opcode::kLShr,
                              Opcode::kAShr}) {
    cases.push_back({opcode, 0, 0});
    cases.push_back({opcode, ~0ULL, 1});
    for (int i = 0; i < 3; ++i) cases.push_back({opcode, rng.next(), rng.next()});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LoweredBinaryOps, testing::ValuesIn(op_cases()));

class LoweredPredicates : public testing::TestWithParam<Pred> {};

TEST_P(LoweredPredicates, ICmpMatchesInterpreter) {
  const Pred pred = GetParam();
  support::Rng rng(static_cast<std::uint64_t>(pred) + 1);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t a = i == 0 ? 5 : rng.next();
    const std::uint64_t b = i == 0 ? 5 : rng.next();
    ir::Module module;
    Function* main = module.add_function("_start");
    Builder builder(module);
    builder.set_insert_point(main->add_block("entry"));
    Instr* cmp = builder.icmp(pred, builder.const_i64(a), builder.const_i64(b));
    emit_exit(builder, module, builder.zext(cmp, Type::kI64));
    module.entry_function = "_start";

    emu::Memory memory;
    ir::Module reference_copy;  // interpret the same module
    const ir::InterpResult expected = ir::interpret(module, memory, "");
    const emu::RunResult run = run_lowered(module);
    ASSERT_EQ(run.reason, emu::StopReason::kExited) << run.crash_detail;
    EXPECT_EQ(run.exit_code, expected.exit_code)
        << ir::to_string(pred) << " " << a << " " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPreds, LoweredPredicates,
                         testing::Values(Pred::kEq, Pred::kNe, Pred::kUlt, Pred::kUle,
                                         Pred::kUgt, Pred::kUge, Pred::kSlt, Pred::kSle,
                                         Pred::kSgt, Pred::kSge));

TEST(Lowering, SelectAndConversions) {
  ir::Module module;
  Function* main = module.add_function("_start");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  Instr* cond = builder.icmp(Pred::kUgt, builder.const_i64(10), builder.const_i64(3));
  Instr* chosen = builder.select(cond, builder.const_i64(0x155), builder.const_i64(9));
  Instr* narrow = builder.trunc(chosen, Type::kI8);        // 0x55
  Instr* wide = builder.sext(narrow, Type::kI64);          // 0x55 (positive)
  emit_exit(builder, module, wide);
  module.entry_function = "_start";
  const emu::RunResult run = run_lowered(module);
  EXPECT_EQ(run.exit_code, 0x55);
}

TEST(Lowering, SignExtensionOfNegativeByte) {
  ir::Module module;
  Function* main = module.add_function("_start");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  Instr* narrow = builder.trunc(builder.const_i64(0x80), Type::kI8);
  Instr* wide = builder.sext(narrow, Type::kI64);  // 0xFFFF...FF80
  Instr* check = builder.icmp(Pred::kEq, wide, builder.const_i64(~0ULL - 0x7F));
  emit_exit(builder, module, builder.zext(check, Type::kI64));
  module.entry_function = "_start";
  EXPECT_EQ(run_lowered(module).exit_code, 1);
}

TEST(Lowering, GlobalLoadsAndStores) {
  ir::Module module;
  GlobalVariable* counter = module.add_global("counter", 8);
  Function* main = module.add_function("_start");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(41), counter);
  Instr* value = builder.load(Type::kI64, counter);
  Instr* incremented = builder.add(value, builder.const_i64(1));
  builder.store(incremented, counter);
  emit_exit(builder, module, builder.load(Type::kI64, counter));
  module.entry_function = "_start";
  EXPECT_EQ(run_lowered(module).exit_code, 42);
}

TEST(Lowering, CrossBlockValuesSurviveBranches) {
  // A value defined in the entry block is consumed after a branch: it must
  // be spilled to the frame and reloaded.
  ir::Module module;
  Function* main = module.add_function("_start");
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* left = main->add_block("left");
  BasicBlock* right = main->add_block("right");
  Builder builder(module);
  builder.set_insert_point(entry);
  Instr* value = builder.mul(builder.const_i64(6), builder.const_i64(7));
  Instr* cond = builder.icmp(Pred::kEq, builder.const_i64(1), builder.const_i64(1));
  builder.cond_br(cond, left, right);
  builder.set_insert_point(left);
  emit_exit(builder, module, value);
  builder.set_insert_point(right);
  emit_exit(builder, module, builder.const_i64(0));
  module.entry_function = "_start";
  EXPECT_EQ(run_lowered(module).exit_code, 42);
}

TEST(Lowering, ManyLiveValuesForceSpills) {
  // More simultaneously-live values than pool registers: correctness must
  // survive spilling.
  ir::Module module;
  Function* main = module.add_function("_start");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  std::vector<Instr*> values;
  for (int i = 0; i < 20; ++i) {
    values.push_back(builder.add(builder.const_i64(static_cast<std::uint64_t>(i)),
                                 builder.const_i64(1)));
  }
  // Sum everything (keeps them all live until consumed).
  ir::Value* sum = builder.const_i64(0);
  for (Instr* v : values) sum = builder.add(sum, v);
  // 1+2+...+20 = 210
  emit_exit(builder, module, sum);
  module.entry_function = "_start";
  EXPECT_EQ(run_lowered(module).exit_code, 210);
}

TEST(Lowering, SwitchDispatch) {
  ir::Module module;
  Function* main = module.add_function("_start");
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* a = main->add_block("a");
  BasicBlock* b = main->add_block("b");
  BasicBlock* dflt = main->add_block("dflt");
  Builder builder(module);
  builder.set_insert_point(entry);
  builder.switch_(builder.const_i64(1000), dflt, {{999, a}, {1000, b}});
  builder.set_insert_point(a);
  emit_exit(builder, module, builder.const_i64(1));
  builder.set_insert_point(b);
  emit_exit(builder, module, builder.const_i64(2));
  builder.set_insert_point(dflt);
  emit_exit(builder, module, builder.const_i64(3));
  module.entry_function = "_start";
  EXPECT_EQ(run_lowered(module).exit_code, 2);
}

TEST(Lowering, FunctionCallsAndLoops) {
  // pow-ish: f() multiplies @acc by 3; called in a loop 4 times -> 81.
  ir::Module module;
  GlobalVariable* acc = module.add_global("acc", 8);
  GlobalVariable* i = module.add_global("i", 8);

  Function* f = module.add_function("f");
  Builder builder(module);
  builder.set_insert_point(f->add_block("entry"));
  builder.store(builder.mul(builder.load(Type::kI64, acc), builder.const_i64(3)), acc);
  builder.ret();

  Function* main = module.add_function("_start");
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* loop = main->add_block("loop");
  BasicBlock* done = main->add_block("done");
  builder.set_insert_point(entry);
  builder.store(builder.const_i64(1), acc);
  builder.store(builder.const_i64(4), i);
  builder.br(loop);
  builder.set_insert_point(loop);
  builder.call(f);
  Instr* next = builder.sub(builder.load(Type::kI64, i), builder.const_i64(1));
  builder.store(next, i);
  Instr* more = builder.icmp(Pred::kNe, next, builder.const_i64(0));
  builder.cond_br(more, loop, done);
  builder.set_insert_point(done);
  emit_exit(builder, module, builder.load(Type::kI64, acc));
  module.entry_function = "_start";
  ir::verify(module);
  EXPECT_EQ(run_lowered(module).exit_code, 81);
}

TEST(Lowering, TrapIntrinsicExitsWithDetectedCode) {
  ir::Module module;
  Function* main = module.add_function("_start");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.call(module.get_intrinsic(ir::kTrapIntrinsic, Type::kVoid, 0));
  builder.unreachable();
  module.entry_function = "_start";
  const emu::RunResult run = run_lowered(module);
  EXPECT_EQ(run.reason, emu::StopReason::kExited);
  EXPECT_EQ(run.exit_code, 42);
}

TEST(Lowering, FusedCompareBranchProducesNativeJcc) {
  // The [icmp][condbr] pattern must not materialize the i1: look for the
  // setcc-free encoding by checking the code size stays small.
  ir::Module module;
  Function* main = module.add_function("_start");
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* t = main->add_block("t");
  BasicBlock* f = main->add_block("f");
  Builder builder(module);
  builder.set_insert_point(entry);
  Instr* cond = builder.icmp(Pred::kEq, builder.const_i64(1), builder.const_i64(1));
  builder.cond_br(cond, t, f);
  builder.set_insert_point(t);
  emit_exit(builder, module, builder.const_i64(1));
  builder.set_insert_point(f);
  emit_exit(builder, module, builder.const_i64(0));
  module.entry_function = "_start";

  bir::Module lowered = lower(module, {});
  bool has_setcc = false;
  for (const auto& item : lowered.text) {
    if (item.is_instruction() && item.instr->mnemonic == isa::Mnemonic::kSetcc) {
      has_setcc = true;
    }
  }
  EXPECT_FALSE(has_setcc) << "icmp+condbr should fuse into cmp+jcc";
  EXPECT_EQ(run_lowered(module).exit_code, 1);
}

unsigned count_mnemonic(const bir::Module& lowered, isa::Mnemonic mnemonic) {
  unsigned count = 0;
  for (const auto& item : lowered.text) {
    if (item.is_instruction() && item.instr->mnemonic == mnemonic) ++count;
  }
  return count;
}

TEST(Lowering, JumpToTheNextBlockFallsThroughAndKeepsTheLabel) {
  // entry: br hop; hop: br body (falls through, emptying hop); body:
  // a loop back to hop, reached from afar, must still find hop's label.
  ir::Module module;
  GlobalVariable* counter = module.add_global("counter", 8);
  Function* main = module.add_function("_start");
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* hop = main->add_block("hop");
  BasicBlock* body = main->add_block("body");
  BasicBlock* done = main->add_block("done");
  Builder builder(module);
  builder.set_insert_point(entry);
  builder.br(hop);
  builder.set_insert_point(hop);
  builder.br(body);
  builder.set_insert_point(body);
  Instr* next = builder.add(builder.load(Type::kI64, counter), builder.const_i64(1));
  builder.store(next, counter);
  builder.cond_br(builder.icmp(Pred::kUlt, next, builder.const_i64(5)), hop, done);
  builder.set_insert_point(done);
  emit_exit(builder, module, builder.load(Type::kI64, counter));
  module.entry_function = "_start";

  for (const isa::Arch arch : {isa::Arch::kX64, isa::Arch::kRv32i}) {
    LowerOptions options;
    options.arch = arch;
    const bir::Module lowered = lower(module, {}, options);
    // Only the loop's `jcc hop` remains: entry and hop fall through, and
    // body's jmp to done is dropped after its jcc.
    EXPECT_EQ(count_mnemonic(lowered, isa::Mnemonic::kJmp), 0u);
    const auto hop_index = lowered.index_of_label("_start.hop");
    ASSERT_TRUE(hop_index.has_value());
    EXPECT_EQ(*hop_index, lowered.index_of_label("_start.body"));
    EXPECT_EQ(emu::run_image(lower_to_image(module, {}, options), "").exit_code, 5);
  }
}

TEST(Lowering, LowWordMaskIsARegisterAliasOnlyOn32BitTargets) {
  ir::Module module;
  GlobalVariable* value = module.add_global("value", 8, {7, 0, 0, 0, 1, 0, 0, 0});
  Function* main = module.add_function("_start");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  Instr* low = builder.and_(builder.load(Type::kI64, value), builder.const_i64(0xFFFF'FFFFULL));
  emit_exit(builder, module, low);
  module.entry_function = "_start";

  LowerOptions rv32i;
  rv32i.arch = isa::Arch::kRv32i;
  EXPECT_EQ(count_mnemonic(lower(module, {}, rv32i), isa::Mnemonic::kAnd), 0u);
  EXPECT_EQ(emu::run_image(lower_to_image(module, {}, rv32i), "").exit_code, 7);
  // On x64 the mask clears the high word.
  EXPECT_EQ(count_mnemonic(lower(module, {}), isa::Mnemonic::kAnd), 1u);
  EXPECT_EQ(run_lowered(module).exit_code, 7);
}

TEST(Lowering, SignExtensionOfNegative32BitValueOnX64) {
  ir::Module module;
  GlobalVariable* value = module.add_global("value", 8, {0xF0, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0});
  Function* main = module.add_function("_start");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  Instr* word = builder.trunc(builder.load(Type::kI64, value), Type::kI32);
  Instr* wide = builder.sext(word, Type::kI64);
  Instr* negative = builder.icmp(Pred::kEq, wide, builder.const_i64(~std::uint64_t{15}));
  emit_exit(builder, module, builder.zext(negative, Type::kI64));
  module.entry_function = "_start";
  EXPECT_EQ(run_lowered(module).exit_code, 1);
}

TEST(Lowering, ConstantsBelow2To32LoadAsZeroExtendingMovR32OnX64) {
  // Each constant reaches a register through value_to_reg (a + zero, then
  // a compare with the constant); the run checks the value came out whole.
  for (const std::uint64_t constant :
       {std::uint64_t{0}, std::uint64_t{0x7FFF'FFFF}, std::uint64_t{0x8000'0000},
        std::uint64_t{0xFFFF'FFFF}, std::uint64_t{0x1'0000'0000}, ~std::uint64_t{0}}) {
    SCOPED_TRACE(constant);
    ir::Module module;
    GlobalVariable* zero = module.add_global("zero", 8);
    Function* main = module.add_function("_start");
    Builder builder(module);
    builder.set_insert_point(main->add_block("entry"));
    Instr* sum = builder.add(builder.const_i64(constant), builder.load(Type::kI64, zero));
    Instr* same = builder.icmp(Pred::kEq, sum, builder.const_i64(constant));
    emit_exit(builder, module, builder.zext(same, Type::kI64));
    module.entry_function = "_start";
    EXPECT_EQ(run_lowered(module).exit_code, 1);

    // mov r32, imm32 exactly for the values in [0, 2^32).
    for (const bir::CodeItem& item : lower(module, {}).text) {
      const isa::Instruction& instr = *item.instr;
      if (instr.mnemonic != isa::Mnemonic::kMov || !isa::is_reg(instr.op(0)) ||
          !isa::is_imm(instr.op(1))) {
        continue;
      }
      const std::int64_t value = std::get<isa::ImmOperand>(instr.op(1)).value;
      const bool zero_extends = value >= 0 && value <= std::int64_t{0xFFFF'FFFF};
      EXPECT_EQ(instr.width, zero_extends ? isa::Width::b32 : isa::Width::b64) << value;
    }
  }
}

/// Number of `mov` instructions of `lowered` that write `reg`.
unsigned movs_into(const bir::Module& lowered, isa::Reg reg) {
  unsigned count = 0;
  for (const bir::CodeItem& item : lowered.text) {
    if (item.is_instruction() && item.instr->mnemonic == isa::Mnemonic::kMov &&
        item.instr->op(0) == isa::Operand{reg}) {
      ++count;
    }
  }
  return count;
}

TEST(Lowering, ExitLoadsOnlyTheNumberAndItsStatus) {
  // write(1, msg, 2) loads all four argument registers; exit(0) loads rax
  // and rdi only.
  ir::Module module;
  GlobalVariable* msg = module.add_global("msg", 8, {'o', 'k'});
  Function* main = module.add_function("_start");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  Function* syscall_fn = module.get_intrinsic(ir::kSyscallIntrinsic, Type::kI64, 4);
  builder.call(syscall_fn, {builder.const_i64(1), builder.const_i64(1), msg,
                            builder.const_i64(2)});
  emit_exit(builder, module, builder.const_i64(0));
  module.entry_function = "_start";
  for (const isa::Arch arch : {isa::Arch::kX64, isa::Arch::kRv32i}) {
    SCOPED_TRACE(std::string(isa::to_string(arch)));
    LowerOptions options;
    options.arch = arch;
    const bir::Module lowered = lower(module, {}, options);
    EXPECT_EQ(movs_into(lowered, isa::Reg::rax), 2u);
    EXPECT_EQ(movs_into(lowered, isa::Reg::rdi), 2u);
    EXPECT_EQ(movs_into(lowered, isa::Reg::rsi), 1u);
    EXPECT_EQ(movs_into(lowered, isa::Reg::rdx), 1u);
    const emu::RunResult run = emu::run_image(lower_to_image(module, {}, options), "");
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_EQ(run.output, "ok");
  }
}

TEST(Lowering, GuestDataSectionsKeepTheirBase) {
  ir::Module module;
  Function* main = module.add_function("_start");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  // Read the first byte of the guest data section at its original base.
  Instr* byte = builder.load(Type::kI8, builder.const_i64(0x600000));
  emit_exit(builder, module, builder.zext(byte, Type::kI64));
  module.entry_function = "_start";

  bir::DataSection guest;
  guest.name = ".data";
  guest.flags = elf::kRead | elf::kWrite;
  guest.base = 0x600000;
  bir::DataBlock block;
  block.bytes = {77};
  guest.blocks.push_back(block);

  const elf::Image image = lower_to_image(module, {guest});
  EXPECT_EQ(emu::run_image(image, "").exit_code, 77);
}

/// The what() of the Error{kLower} that lowering `module` throws, or
/// "lowered".
std::string lowering_error(const ir::Module& module) {
  try {
    (void)lower(module, {});
  } catch (const support::Error& error) {
    EXPECT_EQ(error.kind(), support::ErrorKind::kLower);
    return error.what();
  }
  return "lowered";
}

TEST(Lowering, RejectsAValueOfAnotherFunctionPastTheUsersInstructions) {
  // _start stores the sixth value of @helper; _start has two instructions.
  ir::Module module;
  GlobalVariable* out = module.add_global("out", 8);
  Builder builder(module);
  Function* helper = module.add_function("helper");
  builder.set_insert_point(helper->add_block("entry"));
  Instr* foreign = nullptr;
  for (std::uint64_t i = 0; i < 6; ++i) {
    foreign = builder.add(builder.const_i64(i), builder.const_i64(1));
  }
  builder.ret();
  Function* start = module.add_function("_start");
  builder.set_insert_point(start->add_block("entry"));
  builder.store(foreign, out);
  builder.ret();
  EXPECT_EQ(lowering_error(module),
            "lower: use of a value that was never defined or spilled");
}

TEST(Lowering, RejectsAValueOfAnotherFunctionInThePlaceOfAnOwnDefinedValue) {
  // @helper is lowered first. Its value is the first instruction of its
  // function, as _start's `own` is of _start, and `own` is defined and
  // has a frame slot (it crosses a block) when the foreign value is used.
  ir::Module module;
  GlobalVariable* in = module.add_global("in", 8);
  GlobalVariable* out = module.add_global("out", 8);
  Builder builder(module);
  Function* helper = module.add_function("helper");
  builder.set_insert_point(helper->add_block("entry"));
  Instr* foreign = builder.add(builder.const_i64(1), builder.const_i64(2));
  builder.ret();
  Function* start = module.add_function("_start");
  BasicBlock* entry = start->add_block("entry");
  BasicBlock* next = start->add_block("next");
  builder.set_insert_point(entry);
  Instr* own = builder.load(Type::kI64, in);
  builder.br(next);
  builder.set_insert_point(next);
  builder.store(own, out);
  builder.store(foreign, out);
  builder.ret();
  EXPECT_EQ(lowering_error(module),
            "lower: use of a value that was never defined or spilled");
}

}  // namespace
}  // namespace r2r::lower
