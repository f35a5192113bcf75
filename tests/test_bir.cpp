// Binary IR: module editing, layout/assembly, structural recovery and
// reassembly identity, CFG construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

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

TEST(Assemble, EachInstructionIsItsEncodingAtItsFinalAddress) {
  // Forward jmp, jcc and call; a backward branch and a branch to its own
  // label; a mov of a later text label (the fixed-size symbol form) and
  // a mov of a data label. Each instruction's bytes are what encode()
  // makes of it with every label resolved, placed at its address. Relaxed,
  // every jmp and jcc here reaches in the short form where the target
  // has one.
  for (const bool relax : {false, true}) for (const isa::Target* target : isa::all_targets()) {
    SCOPED_TRACE(std::string(target->name()) + (relax ? " relaxed" : ""));
    const isa::Width w = target->natural_width();
    Module module;
    module.arch = target->arch();
    module.relax_branches = relax;
    const auto add = [&module](std::vector<std::string> labels, isa::Instruction instr) {
      CodeItem item;
      item.labels = std::move(labels);
      item.instr = std::move(instr);
      module.text.push_back(std::move(item));
    };
    const auto mov_label = [w](Reg reg, std::string label) {
      return isa::mov(reg, isa::ImmOperand{0, std::move(label)}, w);
    };
    add({"_start"}, isa::jmp("fwd"));
    add({"back"}, isa::cmp(Reg::rax, isa::imm(1), w));
    add({}, isa::jcc(Cond::ne, "fwd"));
    add({}, isa::call("func"));
    add({"fwd"}, mov_label(Reg::rbx, "later"));
    add({}, mov_label(Reg::rsi, "msg"));
    add({}, isa::jmp("back"));
    add({"self"}, isa::jmp("self"));
    add({"func", "later"}, isa::ret());
    DataSection data;
    data.base = 0x600000;
    data.blocks.push_back(DataBlock{{"msg"}, {'x', 0}, {}, 0, 0, 0});
    module.data_sections.push_back(data);

    const elf::Image image = assemble(module);
    const elf::Segment& text = *image.find_segment(".text");
    const auto address_of = [&image](const std::string& name) {
      const elf::Symbol* symbol = image.find_symbol(name);
      EXPECT_NE(symbol, nullptr) << name;
      return symbol == nullptr ? 0 : static_cast<std::int64_t>(symbol->value);
    };
    std::size_t offset = 0;
    for (const CodeItem& item : module.text) {
      isa::Instruction resolved = *item.instr;
      for (isa::Operand& op : resolved.operands) {
        if (const auto* label = std::get_if<isa::LabelOperand>(&op)) {
          op = isa::ImmOperand{address_of(label->name), {}};
        } else if (auto* imm = std::get_if<isa::ImmOperand>(&op); imm && !imm->label.empty()) {
          imm->value = address_of(imm->label);  // the label keeps the mov's symbol form
        }
      }
      const bool short_branch = relax && target->short_branch_length() != 0 &&
                                (resolved.mnemonic == isa::Mnemonic::kJmp ||
                                 resolved.mnemonic == isa::Mnemonic::kJcc);
      const isa::Encoding expected = short_branch
                                         ? target->encode_short_branch(resolved, item.address)
                                         : target->encode(resolved, item.address);
      EXPECT_EQ(item.address, text.vaddr + offset);
      ASSERT_LE(offset + expected.size(), text.data.size());
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                             text.data.begin() + static_cast<std::ptrdiff_t>(offset)))
          << target->print(*item.instr);
      offset += expected.size();
    }
    EXPECT_EQ(offset, text.data.size());
  }
}

// ---- branch relaxation ---------------------------------------------------------

/// Appends an instruction item carrying `labels` to `module`.
void add_item(Module& module, std::vector<std::string> labels, isa::Instruction instr) {
  CodeItem item;
  item.labels = std::move(labels);
  item.instr = std::move(instr);
  module.text.push_back(std::move(item));
}

/// An x64 module whose one branch (jmp, or jne) targets the label
/// "target", `displacement` bytes from the branch's end in its short form;
/// nops fill the distance. Returns the branch's item index through
/// `branch_index`.
Module branch_at(bool conditional, std::int64_t displacement, bool relax,
                 std::size_t& branch_index) {
  Module module;
  module.relax_branches = relax;
  const isa::Instruction branch =
      conditional ? isa::jcc(Cond::ne, "target") : isa::jmp("target");
  if (displacement >= 0) {
    branch_index = 0;
    add_item(module, {"_start"}, branch);
    for (std::int64_t i = 0; i < displacement; ++i) add_item(module, {}, isa::nop());
    add_item(module, {"target"}, isa::ret());
  } else {
    // The target is the first nop; the short branch ends |displacement|
    // bytes after it.
    const std::int64_t nops = -displacement - static_cast<std::int64_t>(isa::kShortBranchLength);
    add_item(module, {"_start", "target"}, isa::nop());
    for (std::int64_t i = 1; i < nops; ++i) add_item(module, {}, isa::nop());
    branch_index = module.text.size();
    add_item(module, {}, branch);
    add_item(module, {}, isa::ret());
  }
  return module;
}

/// Length of the branch at `index` as assembled; fails unless its bytes
/// decode to a branch to the "target" label.
std::size_t assembled_branch_length(Module& module, std::size_t index) {
  const elf::Image image = assemble(module);
  const elf::Segment& text = *image.find_segment(".text");
  const std::uint64_t address = module.text[index].address;
  const std::span<const std::uint8_t> bytes(text.data.data() + (address - text.vaddr),
                                            text.data.size() - (address - text.vaddr));
  const isa::Decoded decoded = isa::target(module.arch).decode(bytes, address);
  EXPECT_EQ(static_cast<std::uint64_t>(std::get<isa::ImmOperand>(decoded.instr.op(0)).value),
            image.find_symbol("target")->value);
  return decoded.length;
}

TEST(Relaxation, ABranchStaysShortExactlyWhileRel8Reaches) {
  for (const bool conditional : {false, true}) {
    const std::size_t full = conditional ? 6 : 5;
    for (const auto& [displacement, length] :
         std::vector<std::pair<std::int64_t, std::size_t>>{
             {-128, 2}, {127, 2}, {-129, full}, {128, full}, {0, 2}}) {
      SCOPED_TRACE((conditional ? "jne at " : "jmp at ") + std::to_string(displacement));
      std::size_t index = 0;
      Module module = branch_at(conditional, displacement, true, index);
      EXPECT_EQ(assembled_branch_length(module, index), length);
    }
  }
}

TEST(Relaxation, ABranchPushedOutOfReachByAnotherGrowsToo) {
  // Short, b ends at 2 and reaches lb at +127; a ends at 4 and misses la
  // at +128. a grows by 3, which moves lb to +130 from b: both end long.
  Module module;
  module.relax_branches = true;
  add_item(module, {"_start"}, isa::jmp("lb"));
  add_item(module, {}, isa::jmp("la"));
  for (int i = 0; i < 125; ++i) add_item(module, {}, isa::nop());
  add_item(module, {"lb"}, isa::nop());
  add_item(module, {}, isa::nop());
  add_item(module, {}, isa::nop());
  add_item(module, {"la"}, isa::ret());
  const elf::Image image = assemble(module);
  EXPECT_EQ(module.text[1].address - module.text[0].address, 5u);
  EXPECT_EQ(module.text[2].address - module.text[1].address, 5u);
  EXPECT_EQ(image.find_symbol("lb")->value, module.text_base + 135);
  EXPECT_EQ(image.find_symbol("la")->value, module.text_base + 138);
  const elf::Segment& text = *image.find_segment(".text");
  EXPECT_EQ(text.data[0], 0xE9);
  EXPECT_EQ(text.data[5], 0xE9);
}

TEST(Relaxation, ABranchWhoseEndsBothMoveStaysShort) {
  // c grows; the backward branch b at -128 and its label both lie after
  // c, so b still reaches. Measuring b after c's growth against a label
  // placed before it would grow b too.
  Module module;
  module.relax_branches = true;
  add_item(module, {"_start"}, isa::jmp("far"));
  add_item(module, {"l"}, isa::nop());
  for (int i = 1; i < 126; ++i) add_item(module, {}, isa::nop());
  const std::size_t b = module.text.size();
  add_item(module, {}, isa::jmp("l"));
  for (int i = 0; i < 130; ++i) add_item(module, {}, isa::nop());
  add_item(module, {"far"}, isa::ret());
  assemble(module);
  EXPECT_EQ(module.text[1].address - module.text[0].address, 5u);
  EXPECT_EQ(module.text[b + 1].address - module.text[b].address, 2u);
}

TEST(Relaxation, AModuleNotRelaxedKeepsItsRel32Branches) {
  for (const bool conditional : {false, true}) {
    for (const std::int64_t displacement : {-128, 0, 127}) {
      std::size_t index = 0;
      Module plain = branch_at(conditional, displacement, false, index);
      EXPECT_EQ(assembled_branch_length(plain, index), conditional ? 6u : 5u);
    }
  }
}

TEST(Relaxation, Rv32iBranchesKeepTheirWidth) {
  // rv32i has no short form: a relaxed module assembles to the same bytes.
  const auto build = [](bool relax) {
    Module module = module_from_assembly(
        ".global _start\n"
        "_start:\n"
        "    cmp a0, 1\n"
        "    jne done\n"
        "    jmp _start\n"
        "done:\n"
        "    ret\n",
        isa::Arch::kRv32i);
    module.relax_branches = relax;
    return write_elf(assemble(module));
  };
  EXPECT_EQ(build(true), build(false));
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

TEST(Diagnostics, UndefinedLabelAmongForwardReferencesKeepsItsMessage) {
  for (const bool relax : {false, true}) {
    Module module = module_from_assembly(
        ".global _start\n"
        "_start:\n"
        "    jmp done\n"
        "    jmp nowhere\n"
        "done:\n"
        "    ret\n");
    module.relax_branches = relax;
    EXPECT_EQ(error_message([&] { assemble(module); }),
              "rewrite: undefined label: 'nowhere' (line 4: jmp nowhere)");
  }
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
  for (const bool relax : {false, true}) {
    Module module = module_from_assembly(
        ".global _start\n_start:\n    nop\n_start:\n    nop\n");
    module.relax_branches = relax;
    EXPECT_THROW(assemble(module), support::Error);
  }
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
