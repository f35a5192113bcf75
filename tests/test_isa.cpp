// ISA layer: registers, conditions, encoder/decoder round-trips (property
// sweeps), printer/parser round-trips, semantics classification.
#include <gtest/gtest.h>

#include "isa/asm_parser.h"
#include "isa/decoder.h"
#include "isa/encoder.h"
#include "isa/printer.h"
#include "isa/semantics.h"
#include "isa/target.h"
#include "support/error.h"
#include "support/rng.h"

namespace r2r::isa {
namespace {

constexpr std::uint64_t kAddr = 0x401000;

Decoded roundtrip(const Instruction& instr) {
  const Encoding bytes = encode(instr, kAddr);
  const Decoded decoded = decode(bytes, kAddr);
  EXPECT_EQ(decoded.length, bytes.size());
  return decoded;
}

// ---- registers / conditions ---------------------------------------------------

TEST(Registers, NamesRoundTripAtEveryWidth) {
  for (unsigned n = 0; n < kRegCount; ++n) {
    for (const Width width : {Width::b8, Width::b16, Width::b32, Width::b64}) {
      const Reg reg = reg_from_number(n);
      const auto parsed = parse_reg_name(reg_name(reg, width));
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(parsed->first, reg);
      EXPECT_EQ(parsed->second, width);
    }
  }
}

TEST(Registers, EncodingNumbersMatchHardwareOrder) {
  EXPECT_EQ(reg_number(Reg::rax), 0u);
  EXPECT_EQ(reg_number(Reg::rsp), 4u);
  EXPECT_EQ(reg_number(Reg::r8), 8u);
  EXPECT_EQ(reg_number(Reg::r15), 15u);
}

TEST(Conditions, InvertFlipsLowBit) {
  EXPECT_EQ(invert(Cond::e), Cond::ne);
  EXPECT_EQ(invert(Cond::ne), Cond::e);
  EXPECT_EQ(invert(Cond::l), Cond::ge);
  EXPECT_EQ(invert(Cond::a), Cond::be);
  EXPECT_EQ(invert(Cond::none), Cond::none);
}

TEST(Conditions, SuffixRoundTrip) {
  for (unsigned cc = 0; cc < 16; ++cc) {
    const Cond cond = static_cast<Cond>(cc);
    const auto parsed = parse_cond_suffix(cond_suffix(cond));
    ASSERT_TRUE(parsed.has_value()) << cc;
    EXPECT_EQ(*parsed, cond);
  }
  EXPECT_EQ(parse_cond_suffix("z"), Cond::e);
  EXPECT_EQ(parse_cond_suffix("nz"), Cond::ne);
  EXPECT_EQ(parse_cond_suffix("c"), Cond::b);
  EXPECT_FALSE(parse_cond_suffix("xx").has_value());
}

// ---- encoder/decoder round-trip sweeps -------------------------------------------

class RegPairRoundTrip : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RegPairRoundTrip, MovRegReg) {
  const Reg dst = reg_from_number(static_cast<unsigned>(std::get<0>(GetParam())));
  const Reg src = reg_from_number(static_cast<unsigned>(std::get<1>(GetParam())));
  EXPECT_EQ(roundtrip(mov(dst, src)).instr, mov(dst, src));
}

TEST_P(RegPairRoundTrip, AluRegReg) {
  const Reg dst = reg_from_number(static_cast<unsigned>(std::get<0>(GetParam())));
  const Reg src = reg_from_number(static_cast<unsigned>(std::get<1>(GetParam())));
  for (const Mnemonic m : {Mnemonic::kAdd, Mnemonic::kSub, Mnemonic::kAnd, Mnemonic::kOr,
                           Mnemonic::kXor, Mnemonic::kCmp, Mnemonic::kTest}) {
    const Instruction instr = make2(m, dst, src);
    EXPECT_EQ(roundtrip(instr).instr, instr);
  }
}

TEST_P(RegPairRoundTrip, MemFormsWithDisplacements) {
  const Reg dst = reg_from_number(static_cast<unsigned>(std::get<0>(GetParam())));
  const Reg base = reg_from_number(static_cast<unsigned>(std::get<1>(GetParam())));
  for (const std::int64_t disp : {0LL, 4LL, -8LL, 127LL, 128LL, -129LL, 100000LL}) {
    const Instruction load = mov(dst, mem(base, disp));
    EXPECT_EQ(roundtrip(load).instr, load) << print(load);
    const Instruction store = mov(mem(base, disp), dst);
    EXPECT_EQ(roundtrip(store).instr, store) << print(store);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegPairs, RegPairRoundTrip,
                         testing::Combine(testing::Range(0, 16), testing::Range(0, 16)));

TEST(EncoderDecoder, SibFormsRoundTrip) {
  for (const std::uint8_t scale : {1, 2, 4, 8}) {
    for (const Reg index : {Reg::rax, Reg::rcx, Reg::rbp, Reg::r9, Reg::r13}) {
      const Instruction instr = mov(Reg::rbx, mem_index(Reg::rdx, index, scale, 24));
      EXPECT_EQ(roundtrip(instr).instr, instr) << print(instr);
    }
  }
}

TEST(EncoderDecoder, RspAndR12BasesNeedSib) {
  for (const Reg base : {Reg::rsp, Reg::r12, Reg::rbp, Reg::r13}) {
    const Instruction instr = mov(Reg::rax, mem(base, 0));
    EXPECT_EQ(roundtrip(instr).instr, instr) << print(instr);
  }
}

TEST(EncoderDecoder, RspIndexIsRejected) {
  const Instruction bad = mov(Reg::rax, mem_index(Reg::rbx, Reg::rsp, 2, 0));
  EXPECT_THROW(encode(bad, kAddr), support::Error);
}

TEST(EncoderDecoder, AbsoluteAddressing) {
  const Instruction instr = mov(Reg::rax, mem_abs(0x600010));
  EXPECT_EQ(roundtrip(instr).instr, instr);
}

TEST(EncoderDecoder, RipRelativeResolvesToAbsoluteTarget) {
  Instruction instr = mov(Reg::rax, MemOperand{std::nullopt, std::nullopt, 1,
                                               0x600040, true, {}});
  const Decoded decoded = roundtrip(instr);
  const auto& mem = std::get<MemOperand>(decoded.instr.op(1));
  EXPECT_TRUE(mem.rip_relative);
  EXPECT_EQ(mem.disp, 0x600040);
}

TEST(EncoderDecoder, ImmediateWidthSelection) {
  // Small immediates use the sign-extended imm8 form; large ones imm32;
  // 64-bit constants use movabs.
  EXPECT_LT(encode(add(Reg::rax, imm(5)), kAddr).size(),
            encode(add(Reg::rax, imm(500)), kAddr).size());
  const Instruction movabs = mov(Reg::rax, imm(0x1122334455667788LL));
  EXPECT_EQ(encode(movabs, kAddr).size(), 10u);
  EXPECT_EQ(roundtrip(movabs).instr, movabs);
}

TEST(EncoderDecoder, BranchesEncodeRelativeTargets) {
  for (const std::uint64_t target : {kAddr + 100, kAddr - 50, kAddr}) {
    const Instruction jump = make1(Mnemonic::kJmp, imm(static_cast<std::int64_t>(target)));
    const Decoded decoded = roundtrip(jump);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  std::get<ImmOperand>(decoded.instr.op(0)).value),
              target);
  }
}

TEST(EncoderDecoder, AllConditionalJumpsRoundTrip) {
  for (unsigned cc = 0; cc < 16; ++cc) {
    Instruction jump = make1(Mnemonic::kJcc, imm(kAddr + 64));
    jump.cond = static_cast<Cond>(cc);
    const Decoded decoded = roundtrip(jump);
    EXPECT_EQ(decoded.instr.cond, jump.cond);
    EXPECT_EQ(decoded.instr.mnemonic, Mnemonic::kJcc);
  }
}

TEST(EncoderDecoder, AllSetccRoundTrip) {
  for (unsigned cc = 0; cc < 16; ++cc) {
    for (const Reg reg : {Reg::rax, Reg::rcx, Reg::rsi, Reg::r9}) {
      const Instruction instr = setcc(static_cast<Cond>(cc), reg);
      const Decoded decoded = roundtrip(instr);
      EXPECT_EQ(decoded.instr, instr) << print(instr);
    }
  }
}

TEST(EncoderDecoder, ByteRegistersNeedRexForSilDil) {
  // sil/dil/bpl/spl are only addressable with a REX prefix.
  const Instruction instr = mov(Reg::rsi, imm(5), Width::b8);
  const Encoding bytes = encode(instr, kAddr);
  EXPECT_EQ(bytes[0], 0x40);  // bare REX
  EXPECT_EQ(roundtrip(instr).instr, instr);
}

TEST(EncoderDecoder, StackOpsRoundTrip) {
  for (unsigned n = 0; n < kRegCount; ++n) {
    const Reg reg = reg_from_number(n);
    EXPECT_EQ(roundtrip(push(reg)).instr, push(reg));
    EXPECT_EQ(roundtrip(pop(reg)).instr, pop(reg));
  }
  EXPECT_EQ(roundtrip(pushfq()).instr, pushfq());
  EXPECT_EQ(roundtrip(popfq()).instr, popfq());
  EXPECT_EQ(roundtrip(push(imm(1000))).instr, push(imm(1000)));
}

TEST(EncoderDecoder, ShiftFormsRoundTrip) {
  for (const Mnemonic m : {Mnemonic::kShl, Mnemonic::kShr, Mnemonic::kSar}) {
    const Instruction by_imm = make2(m, Reg::rbx, imm(7));
    EXPECT_EQ(roundtrip(by_imm).instr, by_imm);
    const Instruction by_cl = make2(m, Reg::rbx, Reg::rcx);
    EXPECT_EQ(roundtrip(by_cl).instr, by_cl);
  }
}

TEST(EncoderDecoder, ExtensionAndUnaryForms) {
  EXPECT_EQ(roundtrip(movzx(Reg::rax, Reg::rbx)).instr, movzx(Reg::rax, Reg::rbx));
  const Instruction msx = make2(Mnemonic::kMovsx, Reg::rax, Reg::rbx);
  EXPECT_EQ(roundtrip(msx).instr, msx);
  for (const Mnemonic m :
       {Mnemonic::kNot, Mnemonic::kNeg, Mnemonic::kInc, Mnemonic::kDec}) {
    const Instruction instr = make1(m, Reg::rdx);
    EXPECT_EQ(roundtrip(instr).instr, instr);
  }
  const Instruction imul = make2(Mnemonic::kImul, Reg::rax, Reg::rdi);
  EXPECT_EQ(roundtrip(imul).instr, imul);
}

TEST(EncoderDecoder, NullaryRoundTrip) {
  for (const Mnemonic m : {Mnemonic::kRet, Mnemonic::kSyscall, Mnemonic::kNop,
                           Mnemonic::kHlt, Mnemonic::kInt3, Mnemonic::kUd2}) {
    const Instruction instr = make0(m);
    EXPECT_EQ(roundtrip(instr).instr, instr);
  }
}

TEST(EncoderDecoder, IndirectBranchesRoundTrip) {
  const Instruction jmp_reg = make1(Mnemonic::kJmpReg, Reg::rax);
  EXPECT_EQ(roundtrip(jmp_reg).instr, jmp_reg);
  const Instruction call_mem = make1(Mnemonic::kCallReg, mem(Reg::rbx, 16));
  EXPECT_EQ(roundtrip(call_mem).instr, call_mem);
}

TEST(EncoderDecoder, ThirtyTwoBitForms) {
  const Instruction add32 = add(Reg::rax, Reg::rbx, Width::b32);
  EXPECT_EQ(roundtrip(add32).instr, add32);
  const Instruction mov32 = mov(Reg::r9, imm(0x7FFFFFFF), Width::b32);
  EXPECT_EQ(roundtrip(mov32).instr, mov32);
}

TEST(Decoder, RejectsJunk) {
  // Legacy-prefixed and truncated sequences are outside the subset.
  EXPECT_THROW(decode(std::vector<std::uint8_t>{0x66, 0x90}, kAddr), support::Error);
  EXPECT_THROW(decode(std::vector<std::uint8_t>{0x0F, 0xFF}, kAddr), support::Error);
  EXPECT_THROW(decode(std::vector<std::uint8_t>{0x48}, kAddr), support::Error);
  EXPECT_THROW(decode(std::vector<std::uint8_t>{}, kAddr), support::Error);
}

/// The message decode() throws for `bytes` on `target`, with try_decode()'s
/// status checked to be the failure it reports.
std::string decode_message(const Target& target, const std::vector<std::uint8_t>& bytes) {
  Decoded out;
  const DecodeStatus status = target.try_decode(bytes, kAddr, out);
  EXPECT_FALSE(status.ok());
  try {
    (void)target.decode(bytes, kAddr);
  } catch (const support::Error& error) {
    EXPECT_EQ(error.kind(), support::ErrorKind::kDecode);
    EXPECT_EQ(std::string(error.what()), decode_error(status).what());
    return error.what();
  }
  ADD_FAILURE() << "decode() did not throw";
  return {};
}

TEST(Decoder, FirstFailureFollowsTheSourceOrder) {
  // Each decoder reports its first failed check in source order, whatever
  // order a compiler evaluates function arguments in.
  const Target& x64 = target(Arch::kX64);
  // C0/C1 /6 is no shift, and its immediate is missing: the extension is
  // checked first, as for group 1 (80 /2 is adc).
  EXPECT_EQ(decode_message(x64, {0xC0, 0xF0}), "decode: unsupported shift-group extension");
  EXPECT_EQ(decode_message(x64, {0xC1, 0xF0}), "decode: unsupported shift-group extension");
  EXPECT_EQ(decode_message(x64, {0x80, 0xD0}),
            "decode: unsupported group-1 extension (adc/sbb)");
  EXPECT_EQ(decode_message(x64, {0xC0, 0xE0}), "decode: byte reader underrun");

  // rv32i custom-0 words whose register fields both lie outside the file
  // (x3 = gp, x4 = tp): rs1 is checked before rs2, and a byte load's rd
  // before its base.
  const Target& rv32i = target(Arch::kRv32i);
  EXPECT_EQ(decode_message(rv32i, {0x0B, 0x80, 0x41, 0x00}),  // cmp x3, x4
            "decode: register x3 is not in the rv32i register file");
  EXPECT_EQ(decode_message(rv32i, {0x0B, 0xA8, 0x41, 0x00}),  // test x3, x4
            "decode: register x3 is not in the rv32i register file");
  EXPECT_EQ(decode_message(rv32i, {0x8B, 0x31, 0x02, 0x00}),  // byte load x3, [x4]
            "decode: register x3 is not in the rv32i register file");
}

TEST(Decoder, StatusCarriesWhatTheMessageNeeds) {
  Decoded out;
  const DecodeStatus opcode = target(Arch::kX64).try_decode(
      std::vector<std::uint8_t>{0x06}, kAddr, out);
  EXPECT_EQ(opcode.form, DecodeStatus::Form::kReason);
  EXPECT_STREQ(opcode.reason, "unsupported opcode");

  const DecodeStatus word = target(Arch::kRv32i).try_decode(
      std::vector<std::uint8_t>{0x6F, 0x00, 0x00, 0x00}, kAddr, out);  // plain jal
  EXPECT_EQ(word.form, DecodeStatus::Form::kWord);
  EXPECT_EQ(word.value, 0x6Fu);
  EXPECT_EQ(std::string(decode_error(word).what()),
            "decode: rv32i direct jumps use the checked-jal extension word (word 111)");

  const DecodeStatus reg = target(Arch::kRv32i).try_decode(
      std::vector<std::uint8_t>{0x93, 0x81, 0x11, 0x00}, kAddr, out);  // addi x3, x3, 1
  EXPECT_EQ(reg.form, DecodeStatus::Form::kRegister);
  EXPECT_EQ(reg.value, 3u);
}

TEST(Decoder, DecodesShortBranchForms) {
  // rel8 jumps are decode-only (the encoder always emits rel32).
  const std::vector<std::uint8_t> jmp_rel8{0xEB, 0x10};
  const Decoded decoded = decode(jmp_rel8, kAddr);
  EXPECT_EQ(decoded.instr.mnemonic, Mnemonic::kJmp);
  EXPECT_EQ(static_cast<std::uint64_t>(std::get<ImmOperand>(decoded.instr.op(0)).value),
            kAddr + 2 + 0x10);
  const std::vector<std::uint8_t> je_rel8{0x74, 0xFE};
  const Decoded je = decode(je_rel8, kAddr);
  EXPECT_EQ(je.instr.mnemonic, Mnemonic::kJcc);
  EXPECT_EQ(je.instr.cond, Cond::e);
}

// ---- printer/parser round-trip -----------------------------------------------------

class PrintParseRoundTrip : public testing::TestWithParam<Instruction> {};

TEST_P(PrintParseRoundTrip, ParseOfPrintIsIdentity) {
  const Instruction& instr = GetParam();
  const std::string text = print(instr);
  const Instruction reparsed = parse_instruction(text);
  EXPECT_EQ(reparsed, instr) << text;
}

std::vector<Instruction> printer_cases() {
  std::vector<Instruction> cases;
  cases.push_back(mov(Reg::rax, Reg::rbx));
  cases.push_back(mov(Reg::rax, imm(42)));
  cases.push_back(mov(Reg::rsi, imm(5), Width::b8));
  cases.push_back(mov(Reg::rax, mem(Reg::rbx, 4)));
  cases.push_back(mov(mem(Reg::rbx, -8), Reg::rcx));
  cases.push_back(mov(Reg::rax, mem_index(Reg::rbx, Reg::rcx, 4, 16)));
  cases.push_back(movzx(Reg::rbx, mem(Reg::rsi, 0)));
  cases.push_back(lea(Reg::rsp, mem(Reg::rsp, -128)));
  cases.push_back(add(Reg::rax, imm(1)));
  cases.push_back(sub(Reg::rsp, imm(32)));
  cases.push_back(cmp(Reg::rcx, imm(0), Width::b8));
  cases.push_back(test(Reg::rax, Reg::rax));
  cases.push_back(push(Reg::rbp));
  cases.push_back(pop(Reg::r15));
  cases.push_back(pushfq());
  cases.push_back(jmp("target"));
  cases.push_back(jcc(Cond::ne, "loop"));
  cases.push_back(call("fn"));
  cases.push_back(ret());
  cases.push_back(setcc(Cond::g, Reg::rcx));
  cases.push_back(syscall_());
  cases.push_back(make2(Mnemonic::kShl, Reg::rax, imm(3)));
  cases.push_back(make2(Mnemonic::kShl, Reg::rax, Reg::rcx));
  cases.push_back(make2(Mnemonic::kImul, Reg::rax, Reg::rdi));
  cases.push_back(make1(Mnemonic::kNeg, Reg::rbx));
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, PrintParseRoundTrip, testing::ValuesIn(printer_cases()));

// ---- assembler --------------------------------------------------------------------

TEST(AsmParser, SectionsLabelsAndData) {
  const SourceProgram program = parse_assembly(
      ".global _start\n"
      ".section .text\n"
      "_start:\n"
      "  mov rax, 60\n"
      "  syscall\n"
      ".section .data\n"
      "value: .quad 0x1234, other\n"
      "other: .byte 1, 2, 3\n"
      "msg: .asciz \"hi\\n\"\n"
      "pad: .zero 4\n");
  ASSERT_EQ(program.sections.size(), 2u);
  EXPECT_EQ(program.globals.front(), "_start");
  const SourceSection* data = program.find_section(".data");
  ASSERT_NE(data, nullptr);
  ASSERT_EQ(data->items.size(), 4u);
  EXPECT_EQ(data->items[0].data.size(), 16u);
  ASSERT_EQ(data->items[0].data_symbol_refs.size(), 1u);
  EXPECT_EQ(data->items[0].data_symbol_refs[0].first, 8u);
  EXPECT_EQ(data->items[1].data, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(data->items[2].data.size(), 4u);  // h,i,\n,NUL
  EXPECT_EQ(data->items[3].data.size(), 4u);
}

TEST(AsmParser, CommentsAndBlankLines) {
  const SourceProgram program = parse_assembly(
      "; leading comment\n"
      "\n"
      "  mov rax, 1  # trailing comment\n"
      "  ; whole-line\n"
      "  ret\n");
  ASSERT_EQ(program.sections.size(), 1u);
  EXPECT_EQ(program.sections[0].items.size(), 2u);
}

TEST(AsmParser, MemoryOperandVariants) {
  EXPECT_EQ(parse_instruction("mov rax, [rbx]"), mov(Reg::rax, mem(Reg::rbx, 0)));
  EXPECT_EQ(parse_instruction("mov rax, [rbx+8]"), mov(Reg::rax, mem(Reg::rbx, 8)));
  EXPECT_EQ(parse_instruction("mov rax, [rbx - 8]"), mov(Reg::rax, mem(Reg::rbx, -8)));
  EXPECT_EQ(parse_instruction("mov rax, [rbx+rcx*4+16]"),
            mov(Reg::rax, mem_index(Reg::rbx, Reg::rcx, 4, 16)));
  EXPECT_EQ(parse_instruction("movzx rbx, byte ptr [rsi]"),
            movzx(Reg::rbx, mem(Reg::rsi, 0)));
  const Instruction rip = parse_instruction("lea rax, [rip+msg]");
  const auto& mem_op = std::get<MemOperand>(rip.op(1));
  EXPECT_TRUE(mem_op.rip_relative);
  EXPECT_EQ(mem_op.label, "msg");
}

TEST(AsmParser, OffsetImmediates) {
  const Instruction instr = parse_instruction("mov rsi, offset msg");
  const auto& imm_op = std::get<ImmOperand>(instr.op(1));
  EXPECT_EQ(imm_op.label, "msg");
}

TEST(AsmParser, RejectsMalformedInput) {
  EXPECT_THROW(parse_instruction("bogus rax"), support::Error);
  EXPECT_THROW(parse_instruction("mov rax, [rbx"), support::Error);
  EXPECT_THROW(parse_assembly(".section .text\n  .byte 999\n"), support::Error);
  EXPECT_THROW(parse_assembly("  .unknown 1\n"), support::Error);
}

// ---- semantics ------------------------------------------------------------------

TEST(Semantics, TerminatorsAndBranches) {
  const Target& x64 = target(Arch::kX64);
  EXPECT_EQ(effects(jmp("x"), x64).flow, Flow::kJump);
  EXPECT_EQ(effects(ret(), x64).flow, Flow::kReturn);
  EXPECT_EQ(effects(jcc(Cond::e, "x"), x64).flow, Flow::kBranch);
  EXPECT_EQ(effects(call("x"), x64).flow, Flow::kCall);
  EXPECT_EQ(effects(hlt(), x64).flow, Flow::kTrap);
  EXPECT_EQ(effects(syscall_(), x64).flow, Flow::kNext);
  EXPECT_FALSE(falls_through(Flow::kJump));
  EXPECT_FALSE(falls_through(Flow::kReturn));
  EXPECT_TRUE(falls_through(Flow::kBranch));
  EXPECT_TRUE(falls_through(Flow::kCall));
}

TEST(Semantics, FlagBehaviour) {
  const Target& x64 = target(Arch::kX64);
  EXPECT_EQ(effects(add(Reg::rax, imm(1)), x64).writes_flags, kAllFlags);
  EXPECT_EQ(effects(cmp(Reg::rax, imm(1)), x64).writes_flags, kAllFlags);
  EXPECT_EQ(effects(mov(Reg::rax, imm(1)), x64).writes_flags, 0);
  EXPECT_EQ(effects(lea(Reg::rax, mem(Reg::rbx, 0)), x64).writes_flags, 0);
  // A jcc, setcc or cmov reads the flags its condition tests, and no other.
  EXPECT_EQ(effects(jcc(Cond::b, "x"), x64).reads_flags, kCF);
  EXPECT_EQ(effects(jcc(Cond::b, "x"), x64).writes_flags, 0);
  EXPECT_EQ(effects(jcc(Cond::le, "x"), x64).reads_flags, kZF | kSF | kOF);
  EXPECT_EQ(effects(setcc(Cond::e, Reg::rax), x64).reads_flags, kZF);
  EXPECT_EQ(effects(pushfq(), x64).reads_flags, kAllFlags);
  EXPECT_EQ(effects(mov(Reg::rax, imm(1)), x64).reads_flags, 0);
  // inc passes CF through: it writes every other flag and reads none.
  const Effects inc = effects(make1(Mnemonic::kInc, Reg::rax), x64);
  EXPECT_EQ(inc.writes_flags, kPF | kAF | kZF | kSF | kOF);
  EXPECT_EQ(inc.reads_flags, 0);
  // A shift by a count that masks to 0 keeps every flag, so it reads them.
  EXPECT_EQ(effects(make2(Mnemonic::kShl, Reg::rax, imm(3)), x64).reads_flags, 0);
  EXPECT_EQ(effects(make2(Mnemonic::kShl, Reg::rax, imm(64)), x64).reads_flags, kAllFlags);
  EXPECT_EQ(effects(make2(Mnemonic::kShl, Reg::rax, Reg::rcx, Width::b64), x64).reads_flags,
            kAllFlags);
}

TEST(Semantics, RegisterEffects) {
  const Target& x64 = target(Arch::kX64);
  const Target& rv32i = target(Arch::kRv32i);
  const auto bits = [](std::initializer_list<Reg> regs) {
    RegSet set = 0;
    for (const Reg reg : regs) set |= reg_bit(reg);
    return set;
  };
  // Memory operands read their address registers; rip-relative ones none.
  const Effects store = effects(mov(mem_index(Reg::rbx, Reg::rcx, 8), Reg::rdx), x64);
  EXPECT_EQ(store.reads, bits({Reg::rbx, Reg::rcx, Reg::rdx}));
  EXPECT_EQ(store.writes, 0);
  MemOperand rip_relative{std::nullopt, std::nullopt, 1, 0x1000, true, {}};
  EXPECT_EQ(effects(mov(Reg::rax, rip_relative), x64).reads, 0);
  // An 8-bit write merges into its register; xor r, r reads nothing.
  EXPECT_EQ(effects(mov(Reg::rax, imm(1), Width::b8), x64).reads, bits({Reg::rax}));
  EXPECT_EQ(effects(mov(Reg::rax, imm(1), Width::b32), x64).reads, 0);
  EXPECT_EQ(effects(setcc(Cond::e, Reg::rcx), x64).reads, bits({Reg::rcx}));
  EXPECT_EQ(effects(xor_(Reg::rax, Reg::rax), x64).reads, 0);
  EXPECT_EQ(effects(xor_(Reg::rax, Reg::rbx), x64).reads, bits({Reg::rax, Reg::rbx}));
  // Implicit operands: the stack pointer, the link register, syscall's ABI.
  EXPECT_EQ(effects(push(Reg::rbx), x64).writes, bits({Reg::rsp}));
  EXPECT_EQ(effects(pop(Reg::rbx), x64).writes, bits({Reg::rbx, Reg::rsp}));
  EXPECT_EQ(effects(call("f"), x64).writes, bits({Reg::rsp}));
  EXPECT_EQ(effects(ret(), x64).reads, bits({Reg::rsp}));
  EXPECT_EQ(effects(call("f"), rv32i).writes, bits({rv32i.link_register()}));
  EXPECT_EQ(effects(ret(), rv32i).reads, bits({rv32i.link_register()}));
  EXPECT_EQ(effects(ret(), rv32i).writes, 0);
  const Effects sys = effects(syscall_(), x64);
  EXPECT_EQ(sys.reads, bits({Reg::rax, Reg::rdi, Reg::rsi, Reg::rdx}));
  EXPECT_EQ(sys.writes, bits({Reg::rax, Reg::rcx, Reg::r11}));
  EXPECT_EQ(sys.reads_flags, kAllFlags);  // r11 receives the flags image
}

}  // namespace
}  // namespace r2r::isa
