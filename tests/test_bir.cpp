// Binary IR: module editing, layout/assembly, structural recovery and
// reassembly identity, CFG construction.
#include <gtest/gtest.h>

#include "bir/assemble.h"
#include "bir/cfg.h"
#include "bir/module.h"
#include "bir/recover.h"
#include "emu/machine.h"
#include "guests/guests.h"
#include "support/error.h"

namespace r2r::bir {
namespace {

using isa::Cond;
using isa::Reg;

Module tiny_module() {
  return module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    mov rax, 60\n"
      "    mov rdi, 5\n"
      "    syscall\n");
}

TEST(ModuleEditing, InsertBeforeMovesLabels) {
  Module module = tiny_module();
  module.insert_before(0, {isa::nop()}, /*take_labels=*/true);
  EXPECT_TRUE(module.text[0].has_label("_start"));
  EXPECT_FALSE(module.text[1].has_label("_start"));
  EXPECT_EQ(module.text[0].instr->mnemonic, isa::Mnemonic::kNop);
}

TEST(ModuleEditing, InsertAfterKeepsLabels) {
  Module module = tiny_module();
  module.insert_after(0, {isa::nop()});
  EXPECT_TRUE(module.text[0].has_label("_start"));
  EXPECT_EQ(module.text[1].instr->mnemonic, isa::Mnemonic::kNop);
  EXPECT_EQ(module.text.size(), 4u);
}

TEST(ModuleEditing, ReplaceKeepsLabelsOnFirst) {
  Module module = tiny_module();
  module.replace(0, {isa::nop(), isa::nop()});
  EXPECT_TRUE(module.text[0].has_label("_start"));
  EXPECT_EQ(module.text.size(), 4u);
}

TEST(ModuleEditing, FreshLabelsAreUnique) {
  Module module = tiny_module();
  const std::string a = module.fresh_label("x");
  module.add_label(0, a);
  const std::string b = module.fresh_label("x");
  EXPECT_NE(a, b);
}

TEST(ModuleEditing, AppendingAnEmptyBlockIsATypedErrorNotALostLabel) {
  Module module = tiny_module();
  try {
    module.append_block("empty", {});
    FAIL() << "append_block accepted a block with no instructions";
  } catch (const support::Error& error) {
    EXPECT_EQ(error.kind(), support::ErrorKind::kInvalidArgument);
    EXPECT_NE(std::string(error.what()).find("'empty'"), std::string::npos) << error.what();
  }
  EXPECT_EQ(module.text.size(), 3u);
  EXPECT_FALSE(module.has_symbol("empty"));
}

TEST(ModuleEditing, IndexLookups) {
  Module module = tiny_module();
  assemble(module);
  EXPECT_TRUE(module.index_of_label("_start").has_value());
  EXPECT_FALSE(module.index_of_label("nope").has_value());
  const auto index = module.index_of_address(module.text[1].address);
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(*index, 1u);
}

TEST(Assemble, AssignsMonotonicAddresses) {
  Module module = tiny_module();
  const elf::Image image = assemble(module);
  EXPECT_EQ(module.text[0].address, module.text_base);
  for (std::size_t i = 1; i < module.text.size(); ++i) {
    EXPECT_GT(module.text[i].address, module.text[i - 1].address);
  }
  EXPECT_EQ(image.entry, module.text_base);
}

TEST(Assemble, IsDeterministic) {
  Module a = tiny_module();
  Module b = tiny_module();
  EXPECT_EQ(write_elf(assemble(a)), write_elf(assemble(b)));
}

TEST(Assemble, ResolvesDataSymbols) {
  Module module = module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    mov rsi, offset msg\n"
      "    mov rax, 60\n"
      "    mov rdi, 0\n"
      "    syscall\n"
      ".section .data\n"
      "msg: .asciz \"x\"\n");
  const elf::Image image = assemble(module);
  const elf::Symbol* msg = image.find_symbol("msg");
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->value, 0x600000u);
}

TEST(Assemble, UndefinedLabelFails) {
  Module module = module_from_assembly(
      ".global _start\n_start:\n    jmp nowhere\n");
  EXPECT_THROW(assemble(module), support::Error);
}

// ---- diagnostics: errors must name the source line and the offending token ---

/// Returns the message build_module/assemble fails with on `source`.
template <typename Fn>
std::string error_message(Fn&& fn) {
  try {
    fn();
  } catch (const support::Error& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected a support::Error";
  return {};
}

TEST(Diagnostics, UnknownMnemonicNamesLineAndToken) {
  // Line 1: .global, line 2: _start label, line 3: good mov, line 4: typo.
  const std::string message = error_message([] {
    module_from_assembly(
        ".global _start\n"
        "_start:\n"
        "    mov rax, 60\n"
        "    mvo rdi, 5\n"
        "    syscall\n");
  });
  EXPECT_NE(message.find("line 4"), std::string::npos) << message;
  EXPECT_NE(message.find("'mvo'"), std::string::npos) << message;
  // The offending source line is quoted after the token.
  EXPECT_NE(message.find("mvo rdi, 5"), std::string::npos) << message;
}

TEST(Diagnostics, BadOperandNamesLineAndToken) {
  const std::string message = error_message([] {
    module_from_assembly(
        ".global _start\n"
        "_start:\n"
        "    mov rax, [rbx*3]\n");
  });
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("'rbx*3'"), std::string::npos) << message;
}

TEST(Diagnostics, BadDirectiveValueNamesLineAndToken) {
  const std::string message = error_message([] {
    module_from_assembly(
        ".section .data\n"
        "x: .byte 1, 999\n");
  });
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("'999'"), std::string::npos) << message;
}

TEST(Diagnostics, UndefinedLabelAtLayoutNamesReferencingLine) {
  // The parse succeeds; the error only surfaces at assemble() time and must
  // still point back at line 3 and name the missing label.
  Module module = module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    jmp nowhere\n");
  const std::string message = error_message([&] { assemble(module); });
  EXPECT_NE(message.find("'nowhere'"), std::string::npos) << message;
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
}

TEST(Diagnostics, UndefinedDataSymbolNamesReferencingLine) {
  Module module = module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    nop\n"
      ".section .data\n"
      "ptr: .quad missing_symbol\n");
  const std::string message = error_message([&] { assemble(module); });
  EXPECT_NE(message.find("'missing_symbol'"), std::string::npos) << message;
  EXPECT_NE(message.find("line 5"), std::string::npos) << message;
}

TEST(Diagnostics, SynthesizedItemsCarryNoSourceLine) {
  // Patcher-inserted instructions have no source line; the context falls
  // back to printing the instruction instead of a bogus line number.
  Module module = tiny_module();
  module.insert_before(0, {isa::jmp("nowhere")}, /*take_labels=*/false);
  const std::string message = error_message([&] { assemble(module); });
  EXPECT_NE(message.find("'nowhere'"), std::string::npos) << message;
  EXPECT_EQ(message.find("line"), std::string::npos) << message;
}

TEST(Assemble, DuplicateLabelFails) {
  Module module = module_from_assembly(
      ".global _start\n_start:\n    nop\n_start:\n    nop\n");
  EXPECT_THROW(assemble(module), support::Error);
}

// ---- recovery -----------------------------------------------------------------

class RecoverGuests : public testing::TestWithParam<const guests::Guest*> {};

TEST_P(RecoverGuests, RecoverThenReassembleIsBehaviourIdentical) {
  const guests::Guest& guest = *GetParam();
  const elf::Image original = guests::build_image(guest);
  Module recovered = recover(original);
  const elf::Image rebuilt = assemble(recovered);

  for (const std::string& input : {guest.good_input, guest.bad_input}) {
    const emu::RunResult a = emu::run_image(original, input);
    const emu::RunResult b = emu::run_image(rebuilt, input);
    EXPECT_TRUE(a.observably_equal(b)) << guest.name;
    EXPECT_EQ(a.steps, b.steps) << "instruction stream should be identical";
  }
}

TEST_P(RecoverGuests, RecoveryIsIdempotentOnItsOwnOutput) {
  const guests::Guest& guest = *GetParam();
  Module first = recover(guests::build_image(guest));
  const elf::Image rebuilt = assemble(first);
  Module second = recover(rebuilt);
  EXPECT_EQ(first.instruction_count(), second.instruction_count());
  const elf::Image rebuilt_again = assemble(second);
  EXPECT_EQ(rebuilt.code_size(), rebuilt_again.code_size());
}

TEST_P(RecoverGuests, SymbolNamesSurviveRecovery) {
  const guests::Guest& guest = *GetParam();
  Module recovered = recover(guests::build_image(guest));
  EXPECT_TRUE(recovered.index_of_label("_start").has_value());
  EXPECT_EQ(recovered.entry_symbol, "_start");
}

INSTANTIATE_TEST_SUITE_P(AllGuests, RecoverGuests,
                         testing::ValuesIn(guests::all_guests()),
                         [](const testing::TestParamInfo<const guests::Guest*>& info) {
                           return info.param->name;
                         });

TEST(Recover, GrowingRewrittenCodeKeepsDataAddressesStable) {
  // Data bases must be layout-invariant (the no-data-symbolization design
  // relies on it): grow .text and check .data stays put.
  const guests::Guest& guest = guests::pincheck();
  Module module = recover(guests::build_image(guest));
  const elf::Image before = assemble(module);
  for (int i = 0; i < 50; ++i) module.insert_before(1, {isa::nop()}, false);
  const elf::Image after = assemble(module);
  const elf::Segment* data_before = before.find_segment(".data");
  const elf::Segment* data_after = after.find_segment(".data");
  ASSERT_NE(data_before, nullptr);
  ASSERT_NE(data_after, nullptr);
  EXPECT_EQ(data_before->vaddr, data_after->vaddr);
  EXPECT_GT(after.code_size(), before.code_size());
  // And behaviour still holds.
  EXPECT_EQ(emu::run_image(after, guest.good_input).output, guest.good_output);
}

// ---- CFG ---------------------------------------------------------------------------

TEST(Cfg, BlocksSplitAtLabelsAndTerminators) {
  Module module = module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    cmp rax, 1\n"
      "    jne other\n"
      "    mov rbx, 1\n"
      "other:\n"
      "    mov rax, 60\n"
      "    mov rdi, 0\n"
      "    syscall\n");
  const Cfg cfg = build_cfg(module);
  ASSERT_EQ(cfg.blocks.size(), 3u);
  // Block 0 (cmp/jne) has two successors: 'other' and fall-through.
  EXPECT_EQ(cfg.blocks[0].successors.size(), 2u);
  // Fall-through block flows into 'other'.
  EXPECT_EQ(cfg.blocks[1].successors.size(), 1u);
  const auto other = cfg.block_of_label(module, "other");
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(cfg.blocks[1].successors[0], *other);
}

TEST(Cfg, LoopBackEdge) {
  Module module = module_from_assembly(
      ".global _start\n"
      "_start:\n"
      "    mov rcx, 5\n"
      "loop:\n"
      "    dec rcx\n"
      "    cmp rcx, 0\n"
      "    jne loop\n"
      "    mov rax, 60\n"
      "    mov rdi, 0\n"
      "    syscall\n");
  const Cfg cfg = build_cfg(module);
  const auto loop_block = cfg.block_of_label(module, "loop");
  ASSERT_TRUE(loop_block.has_value());
  bool has_self_edge = false;
  for (const std::size_t succ : cfg.blocks[*loop_block].successors) {
    if (succ == *loop_block) has_self_edge = true;
  }
  EXPECT_TRUE(has_self_edge);
}

TEST(Cfg, RetHasNoSuccessors) {
  Module module = module_from_assembly(
      ".global _start\n_start:\n    call f\n    mov rax, 60\n    mov rdi, 0\n"
      "    syscall\nf:\n    ret\n");
  const Cfg cfg = build_cfg(module);
  const auto f_block = cfg.block_of_label(module, "f");
  ASSERT_TRUE(f_block.has_value());
  EXPECT_TRUE(cfg.blocks[*f_block].successors.empty());
}

}  // namespace
}  // namespace r2r::bir
