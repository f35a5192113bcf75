// Compiler IR: builder, verifier rejections, printer, interpreter
// semantics (property sweeps against host arithmetic).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "ir/builder.h"
#include "ir/interpreter.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/bits.h"
#include "support/rng.h"

namespace r2r::ir {
namespace {

/// Builds: @main stores op(a, b) to @out and returns.
Module binary_module(Opcode opcode, std::uint64_t a, std::uint64_t b) {
  Module module;
  GlobalVariable* out = module.add_global("out", 8);
  Function* main = module.add_function("main");
  BasicBlock* entry = main->add_block("entry");
  Builder builder(module);
  builder.set_insert_point(entry);
  Instr* result = builder.binary(opcode, builder.const_i64(a), builder.const_i64(b));
  builder.store(result, out);
  builder.ret();
  module.entry_function = "main";
  return module;
}

std::uint64_t interpret_out(const Module& module) {
  emu::Memory memory;
  const InterpResult result = interpret(module, memory, "");
  EXPECT_EQ(result.stop, InterpStop::kReturned) << result.crash_detail;
  return memory.read(module.find_global("out")->address, 8);
}

struct BinarySemanticsCase {
  std::uint64_t a;
  std::uint64_t b;
};

class BinarySemantics : public testing::TestWithParam<BinarySemanticsCase> {};

TEST_P(BinarySemantics, MatchesHostArithmetic) {
  const auto [a, b] = GetParam();
  EXPECT_EQ(interpret_out(binary_module(Opcode::kAdd, a, b)), a + b);
  EXPECT_EQ(interpret_out(binary_module(Opcode::kSub, a, b)), a - b);
  EXPECT_EQ(interpret_out(binary_module(Opcode::kMul, a, b)), a * b);
  EXPECT_EQ(interpret_out(binary_module(Opcode::kAnd, a, b)), a & b);
  EXPECT_EQ(interpret_out(binary_module(Opcode::kOr, a, b)), a | b);
  EXPECT_EQ(interpret_out(binary_module(Opcode::kXor, a, b)), a ^ b);
  const unsigned count = static_cast<unsigned>(b & 63);
  EXPECT_EQ(interpret_out(binary_module(Opcode::kShl, a, count)), a << count);
  EXPECT_EQ(interpret_out(binary_module(Opcode::kLShr, a, count)), a >> count);
  EXPECT_EQ(interpret_out(binary_module(Opcode::kAShr, a, count)),
            static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >> count));
}

std::vector<BinarySemanticsCase> semantics_cases() {
  std::vector<BinarySemanticsCase> cases = {
      {0, 0}, {1, 1}, {~0ULL, 1}, {0x8000000000000000ULL, 63}, {42, 7}};
  support::Rng rng(99);
  for (int i = 0; i < 16; ++i) cases.push_back({rng.next(), rng.next()});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BinarySemantics, testing::ValuesIn(semantics_cases()));

TEST(Interpreter, ICmpPredicates) {
  const auto check_icmp = [](Pred pred, std::uint64_t a, std::uint64_t b, bool expected) {
    Module module;
    GlobalVariable* out = module.add_global("out", 8);
    Function* main = module.add_function("main");
    Builder builder(module);
    builder.set_insert_point(main->add_block("entry"));
    Instr* cmp = builder.icmp(pred, builder.const_i64(a), builder.const_i64(b));
    builder.store(builder.zext(cmp, Type::kI64), out);
    builder.ret();
    module.entry_function = "main";
    emu::Memory memory;
    interpret(module, memory, "");
    EXPECT_EQ(memory.read(module.find_global("out")->address, 8), expected ? 1u : 0u)
        << to_string(pred) << " " << a << " " << b;
  };
  check_icmp(Pred::kEq, 5, 5, true);
  check_icmp(Pred::kNe, 5, 5, false);
  check_icmp(Pred::kUlt, 1, 2, true);
  check_icmp(Pred::kUgt, ~0ULL, 1, true);
  check_icmp(Pred::kSlt, ~0ULL, 1, true);   // -1 < 1 signed
  check_icmp(Pred::kSgt, ~0ULL, 1, false);
  check_icmp(Pred::kSge, 7, 7, true);
  check_icmp(Pred::kUle, 7, 7, true);
}

TEST(Interpreter, ControlFlowAndSwitch) {
  Module module;
  GlobalVariable* out = module.add_global("out", 8);
  Function* main = module.add_function("main");
  Builder builder(module);
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* a = main->add_block("a");
  BasicBlock* b = main->add_block("b");
  BasicBlock* dflt = main->add_block("dflt");
  BasicBlock* done = main->add_block("done");

  builder.set_insert_point(entry);
  builder.switch_(builder.const_i64(20), dflt, {{10, a}, {20, b}});
  builder.set_insert_point(a);
  builder.store(builder.const_i64(1), out);
  builder.br(done);
  builder.set_insert_point(b);
  builder.store(builder.const_i64(2), out);
  builder.br(done);
  builder.set_insert_point(dflt);
  builder.store(builder.const_i64(3), out);
  builder.br(done);
  builder.set_insert_point(done);
  builder.ret();
  module.entry_function = "main";
  verify(module);

  emu::Memory memory;
  interpret(module, memory, "");
  EXPECT_EQ(memory.read(module.find_global("out")->address, 8), 2u);
}

TEST(Interpreter, TrapIntrinsicStops) {
  Module module;
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.call(module.get_intrinsic(kTrapIntrinsic, Type::kVoid, 0));
  builder.unreachable();
  module.entry_function = "main";
  emu::Memory memory;
  const InterpResult result = interpret(module, memory, "");
  EXPECT_EQ(result.stop, InterpStop::kTrapped);
}

TEST(Interpreter, FuelLimitStopsLoops) {
  Module module;
  Function* main = module.add_function("main");
  Builder builder(module);
  BasicBlock* entry = main->add_block("entry");
  builder.set_insert_point(entry);
  builder.br(entry);
  module.entry_function = "main";
  emu::Memory memory;
  InterpConfig config;
  config.fuel = 100;
  const InterpResult result = interpret(module, memory, "", config);
  EXPECT_EQ(result.stop, InterpStop::kFuel);
}

TEST(Constants, AreInternedPerTypeAndValue) {
  Module module;
  EXPECT_EQ(module.get_constant(Type::kI64, 5), module.get_constant(Type::kI64, 5));
  EXPECT_NE(module.get_constant(Type::kI64, 5), module.get_constant(Type::kI8, 5));
  // Values normalize to the type width.
  EXPECT_EQ(module.get_constant(Type::kI8, 0x105), module.get_constant(Type::kI8, 5));
}

/// The full what() of the verifier's rejection of `module`, or "accepted".
std::string rejection(const Module& module) {
  try {
    verify(module);
  } catch (const support::Error& error) {
    EXPECT_EQ(error.kind(), support::ErrorKind::kIr);
    return error.what();
  }
  return "accepted";
}

TEST(Verifier, AcceptsWellFormedModule) {
  EXPECT_EQ(rejection(binary_module(Opcode::kAdd, 1, 2)), "accepted");
}

TEST(Verifier, RejectsMissingTerminator) {
  Module module;
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.add(builder.const_i64(1), builder.const_i64(2));
  EXPECT_EQ(rejection(module), "ir: function @main: block %entry: missing terminator");
}

TEST(Verifier, RejectsTerminatorInMiddle) {
  Module module;
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.ret();
  builder.add(builder.const_i64(1), builder.const_i64(2));
  EXPECT_EQ(rejection(module),
            "ir: function @main: block %entry: terminator in the middle");
}

TEST(Verifier, RejectsUseBeforeDefinitionInBlock) {
  Module module;
  Function* main = module.add_function("main");
  BasicBlock* entry = main->add_block("entry");
  Builder builder(module);
  builder.set_insert_point(entry);
  Instr* first = builder.add(builder.const_i64(1), builder.const_i64(2));
  Instr* second = builder.add(builder.const_i64(3), builder.const_i64(4));
  builder.ret();
  // `first` (position 0) now uses `second` (defined at position 1).
  first->operands[0] = second;
  EXPECT_EQ(rejection(module),
            "ir: function @main: block %entry: use before definition within block");
}

TEST(Verifier, RejectsAnInstructionThatUsesItself) {
  Module module;
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  Instr* value = builder.add(builder.const_i64(1), builder.const_i64(2));
  builder.ret();
  value->operands[1] = value;
  EXPECT_EQ(rejection(module),
            "ir: function @main: block %entry: use before definition within block");
}

TEST(Verifier, RejectsCrossFunctionOperands) {
  Module module;
  Function* f = module.add_function("f");
  Builder builder(module);
  builder.set_insert_point(f->add_block("entry"));
  Instr* value = builder.add(builder.const_i64(1), builder.const_i64(2));
  builder.ret();
  Function* g = module.add_function("g");
  builder.set_insert_point(g->add_block("entry"));
  builder.store(value, module.add_global("out", 8));
  builder.ret();
  EXPECT_EQ(rejection(module),
            "ir: function @g: block %entry: operand defined in another function");
}

TEST(Verifier, RejectsBranchTargetInAnotherFunction) {
  Module module;
  Function* f = module.add_function("f");
  Builder builder(module);
  BasicBlock* foreign = f->add_block("entry");
  builder.set_insert_point(foreign);
  builder.ret();
  Function* g = module.add_function("g");
  builder.set_insert_point(g->add_block("entry"));
  builder.br(foreign);
  EXPECT_EQ(rejection(module),
            "ir: function @g: block %entry: branch target outside function");
}

TEST(Verifier, RejectsCallArityMismatch) {
  Module module;
  Function* callee = module.get_intrinsic(kSyscallIntrinsic, Type::kI64, 4);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.call(callee, {builder.const_i64(60)});  // needs 4 args
  builder.ret();
  EXPECT_EQ(rejection(module),
            "ir: function @main: block %entry: call argument count mismatch");
}

TEST(Verifier, RejectsCalleeNotInModule) {
  Module module;
  Function stray("stray", Type::kVoid, 0, /*is_intrinsic=*/false);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.call(&stray);
  builder.ret();
  EXPECT_EQ(rejection(module),
            "ir: function @main: block %entry: callee not in module");
}

TEST(Verifier, RejectsBadSwitchShape) {
  Module module;
  Function* main = module.add_function("main");
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* other = main->add_block("other");
  Builder builder(module);
  builder.set_insert_point(other);
  builder.ret();
  builder.set_insert_point(entry);
  Instr* sw = builder.switch_(builder.const_i64(0), other, {{1, other}});
  sw->case_values.push_back(2);  // case without matching target
  EXPECT_EQ(rejection(module),
            "ir: function @main: block %entry: switch case/target mismatch");
}

TEST(Verifier, RejectsIntrinsicWithABody) {
  Module module;
  Function* trap = module.get_intrinsic(kTrapIntrinsic, Type::kVoid, 0);
  Builder builder(module);
  builder.set_insert_point(trap->add_block("entry"));
  builder.ret();
  EXPECT_EQ(rejection(module), "ir: function @r2r.trap: intrinsic with a body");
}

TEST(Verifier, RejectsEmptyBlock) {
  Module module;
  Function* main = module.add_function("main");
  Builder builder(module);
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* empty = main->add_block("empty");
  builder.set_insert_point(entry);
  builder.br(empty);
  EXPECT_EQ(rejection(module), "ir: function @main: block %empty: empty block");
}

TEST(Verifier, ReportsTheFirstOfTwoFaultsInABlock) {
  // Position 1 is a terminator in the middle; position 2 uses the value
  // that position 3 defines. The terminator is the first fault.
  Module module;
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.add(builder.const_i64(1), builder.const_i64(2));
  builder.ret();
  Instr* early = builder.add(builder.const_i64(3), builder.const_i64(4));
  Instr* late = builder.add(builder.const_i64(5), builder.const_i64(6));
  builder.ret();
  early->operands[0] = late;
  EXPECT_EQ(rejection(module),
            "ir: function @main: block %entry: terminator in the middle");
}

TEST(Verifier, RejectsDuplicateFunctionNames) {
  Module module;
  Builder builder(module);
  for (int i = 0; i < 2; ++i) {
    Function* f = module.add_function("dup");
    builder.set_insert_point(f->add_block("entry"));
    builder.ret();
  }
  EXPECT_EQ(rejection(module), "ir: duplicate function @dup");
}

TEST(Printer, RendersReadableIr) {
  const Module module = binary_module(Opcode::kXor, 7, 9);
  const std::string text = print(module);
  EXPECT_NE(text.find("define void @main()"), std::string::npos);
  EXPECT_NE(text.find("%0 = xor i64 7, 9"), std::string::npos);
  EXPECT_NE(text.find("store i64 %0, i64 @out"), std::string::npos);
  EXPECT_NE(text.find("ret void"), std::string::npos);
  EXPECT_NE(text.find("@out = global [8 x i8]"), std::string::npos);
}

TEST(Printer, RendersBranchesAndSwitches) {
  Module module;
  Function* main = module.add_function("main");
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* then = main->add_block("then");
  Builder builder(module);
  builder.set_insert_point(then);
  builder.ret();
  builder.set_insert_point(entry);
  Instr* cond = builder.icmp(Pred::kEq, builder.const_i64(1), builder.const_i64(1));
  builder.cond_br(cond, then, then);
  const std::string text = print(*main);
  EXPECT_NE(text.find("icmp eq i64 1, 1"), std::string::npos);
  EXPECT_NE(text.find("br i1 %0, label %then, label %then"), std::string::npos);
}

}  // namespace
}  // namespace r2r::ir
