// IR passes: DCE, constant folding, state promotion, global store
// elimination, branch hardening (incl. the Algorithm 1 checksum algebra
// property), instruction duplication.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "guests/guests.h"
#include "guests/synth.h"
#include "harden/hybrid.h"
#include "ir/builder.h"
#include "ir/interpreter.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "lift/lifter.h"
#include "obs/metrics.h"
#include "passes/pass.h"
#include "passes/stats.h"
#include "support/rng.h"
#include "synth_corpus.h"

namespace r2r::passes {
namespace {

using ir::BasicBlock;
using ir::Builder;
using ir::Function;
using ir::GlobalVariable;
using ir::Instr;
using ir::Module;
using ir::Opcode;
using ir::Pred;
using ir::Type;

/// Interprets `module` (entry returns) and reads the 8-byte global `out`.
std::uint64_t interpreted_out(const Module& module) {
  emu::Memory memory;
  const ir::InterpResult result = ir::interpret(module, memory, "");
  EXPECT_EQ(result.stop, ir::InterpStop::kReturned) << result.crash_detail;
  return memory.read(module.find_global("out")->address, 8);
}

TEST(Dce, RemovesUnusedComputation) {
  Module module;
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.add(builder.const_i64(1), builder.const_i64(2));  // dead
  builder.ret();
  EXPECT_TRUE(make_dce()->run(module));
  EXPECT_EQ(main->entry()->instrs.size(), 1u);
}

TEST(Dce, KeepsSideEffects) {
  Module module;
  GlobalVariable* out = module.add_global("out", 8);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(1), out);
  builder.ret();
  EXPECT_FALSE(make_dce()->run(module));
  EXPECT_EQ(main->entry()->instrs.size(), 2u);
}

TEST(Dce, RemovesChainsTransitively) {
  Module module;
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  Instr* a = builder.add(builder.const_i64(1), builder.const_i64(2));
  builder.mul(a, builder.const_i64(3));  // uses a; both dead
  builder.ret();
  EXPECT_TRUE(make_dce()->run(module));
  EXPECT_EQ(main->entry()->instrs.size(), 1u);
}

TEST(Dce, RemovesADeadChainThatCrossesBlocks) {
  // c (in `exit`) is dead, which kills b, which kills a (both in `entry`).
  Module module;
  Function* main = module.add_function("main");
  Builder builder(module);
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* exit = main->add_block("exit");
  builder.set_insert_point(entry);
  Instr* a = builder.add(builder.const_i64(1), builder.const_i64(2));
  Instr* b = builder.mul(a, builder.const_i64(3));
  builder.br(exit);
  builder.set_insert_point(exit);
  builder.sub(b, a);
  builder.ret();
  const auto dce = make_dce();
  EXPECT_TRUE(dce->run(module));
  EXPECT_EQ(entry->instrs.size(), 1u);
  EXPECT_EQ(exit->instrs.size(), 1u);
  EXPECT_FALSE(dce->run(module));
}

/// The fix-point DCE that make_dce() replaced, kept as its reference:
/// count every operand use, erase each side-effect-free instruction with
/// none, and repeat until a round erases nothing.
bool reference_dce(Module& module) {
  bool changed = false;
  for (auto& fn : module.functions) {
    for (bool erased = true; erased;) {
      erased = false;
      std::map<const ir::Value*, unsigned> uses;
      for (const auto& block : fn->blocks) {
        for (const auto& instr : block->instrs) {
          for (const ir::Value* op : instr->operands) ++uses[op];
        }
      }
      for (auto& block : fn->blocks) {
        auto& instrs = block->instrs;
        for (std::size_t i = instrs.size(); i-- > 0;) {
          if (instrs[i]->has_side_effects() || uses[instrs[i].get()] > 0) continue;
          instrs.erase(instrs.begin() + static_cast<std::ptrdiff_t>(i));
          erased = changed = true;
        }
      }
    }
  }
  return changed;
}

/// make_dce() and reference_dce() leave the same printed module, and a
/// second make_dce() run finds nothing. `build` makes a fresh copy; returns
/// whether the reference erased anything.
bool expect_dce_matches_reference(const std::function<Module()>& build) {
  Module reference = build();
  const bool erased = reference_dce(reference);
  Module module = build();
  const auto dce = make_dce();
  EXPECT_EQ(dce->run(module), erased);
  EXPECT_EQ(ir::print(module), ir::print(reference));
  EXPECT_FALSE(dce->run(module));
  return erased;
}

Module run_passes(Module module, std::vector<std::unique_ptr<Pass>> passes) {
  PassManager pm;
  for (auto& pass : passes) pm.add(std::move(pass));
  pm.run(module);
  return module;
}

TEST(Dce, MatchesTheFixPointReferenceOnLiftedGuests) {
  // Each guest is compared lifted, after the cleanup passes that run before
  // DCE in the Hybrid pipeline (they leave the dead loads and flag
  // computations DCE exists for), and both again after call guard plus
  // branch hardening.
  unsigned modules_with_dead_code = 0;
  for (const isa::Arch arch : {isa::Arch::kX64, isa::Arch::kRv32i}) {
    std::vector<guests::Guest> corpus;
    for (const guests::Guest* guest : guests::all_guests(arch)) corpus.push_back(*guest);
    for (const synth_corpus::CorpusSeed& entry : synth_corpus::kCorpus) {
      corpus.push_back(guests::synth::generate(entry.seed, arch));
    }
    for (const guests::Guest& guest : corpus) {
      SCOPED_TRACE(guest.name + " on " + std::string(isa::to_string(arch)));
      const elf::Image image = guests::build_image(guest);
      const std::function<Module()> lifted = [&image] { return lift::lift(image).module; };
      const std::function<Module()> folded = [&lifted] {
        std::vector<std::unique_ptr<Pass>> passes;
        passes.push_back(make_state_promotion());
        passes.push_back(make_global_store_elim());
        passes.push_back(make_constant_fold());
        return run_passes(lifted(), std::move(passes));
      };
      for (const auto* build : {&lifted, &folded}) {
        modules_with_dead_code += expect_dce_matches_reference(*build);
        modules_with_dead_code += expect_dce_matches_reference([build] {
          std::vector<std::unique_ptr<Pass>> passes;
          passes.push_back(make_call_guard());
          passes.push_back(make_branch_hardening());
          return run_passes((*build)(), std::move(passes));
        });
      }
    }
  }
  EXPECT_GT(modules_with_dead_code, 0u);
}

/// The cleanup passes in hybrid_harden's order.
std::vector<std::unique_ptr<Pass>> cleanup_passes() {
  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(make_state_promotion());
  passes.push_back(make_global_store_elim());
  passes.push_back(make_constant_fold());
  passes.push_back(make_dce());
  return passes;
}

TEST(Cleanup, ConvergesWithinThreeRoundsAndHybridHardenStopsAtTheFixPoint) {
  // A pass that reports a change that did not happen adds rounds without
  // changing a byte. On every guest here, round 1 changes all four passes,
  // round 2 store elimination and DCE, and round 3 nothing.
  for (const isa::Arch arch : {isa::Arch::kX64, isa::Arch::kRv32i}) {
    std::vector<guests::Guest> corpus;
    for (const guests::Guest* guest : guests::all_guests(arch)) corpus.push_back(*guest);
    for (const synth_corpus::CorpusSeed& entry : synth_corpus::kCorpus) {
      corpus.push_back(guests::synth::generate(entry.seed, arch));
    }
    for (const guests::Guest& guest : corpus) {
      SCOPED_TRACE(guest.name + " on " + std::string(isa::to_string(arch)));
      const elf::Image image = guests::build_image(guest);
      Module module = lift::lift(image).module;
      const std::vector<std::unique_ptr<Pass>> passes = cleanup_passes();
      std::vector<std::vector<bool>> rounds;
      while (rounds.size() < 8) {
        std::vector<bool>& changed = rounds.emplace_back();
        for (const auto& pass : passes) changed.push_back(pass->run(module));
        if (std::find(changed.begin(), changed.end(), true) == changed.end()) break;
      }
      EXPECT_EQ(rounds, (std::vector<std::vector<bool>>{{true, true, true, true},
                                                        {false, true, false, true},
                                                        {false, false, false, false}}));

      harden::HybridConfig config;
      config.countermeasure = harden::HybridCountermeasure::kNone;
      harden::HybridResult hardened = harden::hybrid_harden(image, config);
      for (const auto& pass : cleanup_passes()) EXPECT_FALSE(pass->run(hardened.module));
    }
  }
}

TEST(ConstantFold, FoldsArithmeticIntoStores) {
  Module module;
  GlobalVariable* out = module.add_global("out", 8);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  Instr* sum = builder.add(builder.const_i64(40), builder.const_i64(2));
  builder.store(sum, out);
  builder.ret();
  EXPECT_TRUE(make_constant_fold()->run(module));
  make_dce()->run(module);
  ASSERT_EQ(main->entry()->instrs.size(), 2u);
  const Instr& store = *main->entry()->instrs[0];
  ASSERT_EQ(store.opcode(), Opcode::kStore);
  ASSERT_EQ(store.operands[0]->kind(), ir::Value::Kind::kConstant);
  EXPECT_EQ(static_cast<const ir::Constant*>(store.operands[0])->value(), 42u);
}

TEST(ConstantFold, FoldsCompareAndSelect) {
  Module module;
  GlobalVariable* out = module.add_global("out", 8);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  Instr* cond = builder.icmp(Pred::kUlt, builder.const_i64(1), builder.const_i64(2));
  Instr* chosen = builder.select(cond, builder.const_i64(7), builder.const_i64(9));
  builder.store(chosen, out);
  builder.ret();
  make_constant_fold()->run(module);
  make_dce()->run(module);
  const Instr& store = *main->entry()->instrs[0];
  EXPECT_EQ(static_cast<const ir::Constant*>(store.operands[0])->value(), 7u);
}

/// main stores body(x, y) into @out, where x and y are loaded from globals
/// initialised to `x` and `y`.
struct IdentityModule {
  Module module;
  Instr* x = nullptr;
  Instr* y = nullptr;
  Instr* stored = nullptr;  ///< the store into @out
};

template <typename Body>
IdentityModule identity_module(std::uint64_t x, std::uint64_t y, Body body) {
  const auto bytes = [](std::uint64_t value) {
    std::vector<std::uint8_t> out(8);
    for (std::size_t i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(value >> (8 * i));
    return out;
  };
  IdentityModule m;
  GlobalVariable* gx = m.module.add_global("x", 8, bytes(x));
  GlobalVariable* gy = m.module.add_global("y", 8, bytes(y));
  GlobalVariable* out = m.module.add_global("out", 8);
  Function* main = m.module.add_function("main");
  Builder builder(m.module);
  builder.set_insert_point(main->add_block("entry"));
  m.x = builder.load(Type::kI64, gx);
  m.y = builder.load(Type::kI64, gy);
  m.stored = builder.store(body(builder, m.x, m.y), out);
  builder.ret();
  m.module.entry_function = "main";
  return m;
}

constexpr std::uint64_t kIdentityValues[] = {0, 1, 7, 0x7FFF'FFFF'FFFF'FFFFULL,
                                             0x8000'0000'0000'0000ULL, ~0ULL,
                                             0xFFFF'FFFFULL, 0x1'2345'6789ULL};

/// Folds `body` for every value pair and checks that `check` holds on the
/// folded module and that folding preserves the interpreted result.
template <typename Body, typename Check>
void expect_identity(const char* what, Body body, Check check) {
  for (const std::uint64_t x : kIdentityValues) {
    const std::uint64_t ys[] = {x, x + 1, 0};
    for (const std::uint64_t y : ys) {
      IdentityModule reference = identity_module(x, y, body);
      IdentityModule folded = identity_module(x, y, body);
      make_constant_fold()->run(folded.module);
      make_dce()->run(folded.module);
      ir::verify(folded.module);
      check(folded);
      EXPECT_EQ(interpreted_out(folded.module), interpreted_out(reference.module))
          << what << " x=" << x << " y=" << y;
    }
  }
}

TEST(ConstantFold, ArithmeticIdentitiesBecomeTheirOperand) {
  using Make = Instr* (*)(Builder&, Instr*, Instr*);
  const std::pair<const char*, Make> cases[] = {
      {"x+0", [](Builder& b, Instr* x, Instr*) { return b.add(x, b.const_i64(0)); }},
      {"0+x", [](Builder& b, Instr* x, Instr*) { return b.add(b.const_i64(0), x); }},
      {"x-0", [](Builder& b, Instr* x, Instr*) { return b.sub(x, b.const_i64(0)); }},
      {"x|0", [](Builder& b, Instr* x, Instr*) { return b.or_(x, b.const_i64(0)); }},
      {"0|x", [](Builder& b, Instr* x, Instr*) { return b.or_(b.const_i64(0), x); }},
      {"x^0", [](Builder& b, Instr* x, Instr*) { return b.xor_(x, b.const_i64(0)); }},
      {"x<<0", [](Builder& b, Instr* x, Instr*) { return b.shl(x, b.const_i64(0)); }},
      {"x>>0", [](Builder& b, Instr* x, Instr*) { return b.lshr(x, b.const_i64(0)); }},
      {"x>>>0", [](Builder& b, Instr* x, Instr*) { return b.ashr(x, b.const_i64(0)); }},
      {"x&~0", [](Builder& b, Instr* x, Instr*) { return b.and_(x, b.const_i64(~0ULL)); }},
      {"~0&x", [](Builder& b, Instr* x, Instr*) { return b.and_(b.const_i64(~0ULL), x); }},
  };
  for (const auto& [what, make] : cases) {
    expect_identity(what, make, [what](const IdentityModule& m) {
      EXPECT_EQ(m.stored->operands[0], m.x) << what;
    });
  }
}

TEST(ConstantFold, NarrowAllOnesMaskIsAnIdentityButTheLowWordMaskIsNot) {
  expect_identity(
      "and i8 x, 0xff",
      [](Builder& b, Instr* x, Instr*) {
        Instr* byte = b.trunc(x, Type::kI8);
        return b.zext(b.and_(byte, b.const_i8(0xFF)), Type::kI64);
      },
      [](const IdentityModule& m) {
        const auto* ext = static_cast<const Instr*>(m.stored->operands[0]);
        EXPECT_EQ(static_cast<const Instr*>(ext->operands[0])->opcode(), Opcode::kTrunc);
      });
  // and i64 x, 0xffffffff clears the high word: it must stay.
  expect_identity(
      "and i64 x, 0xffffffff",
      [](Builder& b, Instr* x, Instr*) { return b.and_(x, b.const_i64(0xFFFF'FFFFULL)); },
      [](const IdentityModule& m) {
        const auto* mask = static_cast<const Instr*>(m.stored->operands[0]);
        EXPECT_EQ(mask->opcode(), Opcode::kAnd);
      });
}

/// The value stored into @out, seen through the zext the bodies end in.
const Instr* compare_under_zext(const IdentityModule& m) {
  const auto* ext = static_cast<const Instr*>(m.stored->operands[0]);
  EXPECT_EQ(ext->opcode(), Opcode::kZExt);
  return static_cast<const Instr*>(ext->operands[0]);
}

TEST(ConstantFold, ZextOfBoolComparedNotEqualToZeroIsTheBool) {
  expect_identity(
      "icmp ne (zext i1 c), 0",
      [](Builder& b, Instr* x, Instr* y) {
        Instr* c = b.icmp(Pred::kUlt, x, y);
        Instr* byte = b.zext(c, Type::kI8);
        return b.zext(b.icmp(Pred::kNe, byte, b.const_i8(0)), Type::kI64);
      },
      [](const IdentityModule& m) {
        const Instr* c = compare_under_zext(m);
        EXPECT_EQ(c->pred, Pred::kUlt);
        EXPECT_EQ(c->operands[0], m.x);
      });
}

TEST(ConstantFold, DifferenceComparedWithZeroComparesTheOperands) {
  for (const Pred pred : {Pred::kEq, Pred::kNe}) {
    expect_identity(
        "icmp eq|ne (sub x, y), 0",
        [pred](Builder& b, Instr* x, Instr* y) {
          return b.zext(b.icmp(pred, b.sub(x, y), b.const_i64(0)), Type::kI64);
        },
        [pred](const IdentityModule& m) {
          const Instr* c = compare_under_zext(m);
          EXPECT_EQ(c->pred, pred);
          EXPECT_EQ(c->operands[0], m.x);
          EXPECT_EQ(c->operands[1], m.y);
        });
  }
}

TEST(ConstantFold, SignBitTestBecomesSignedCompare) {
  expect_identity(
      "icmp ne (and (lshr x, 63), 1), 0",
      [](Builder& b, Instr* x, Instr*) {
        Instr* bit = b.and_(b.lshr(x, b.const_i64(63)), b.const_i64(1));
        return b.zext(b.icmp(Pred::kNe, bit, b.const_i64(0)), Type::kI64);
      },
      [](const IdentityModule& m) {
        const Instr* c = compare_under_zext(m);
        EXPECT_EQ(c->pred, Pred::kSlt);
        EXPECT_EQ(c->operands[0], m.x);
      });
}

TEST(ConstantFold, NegatedCompareIsInverted) {
  expect_identity(
      "xor (icmp ult x, y), true",
      [](Builder& b, Instr* x, Instr* y) {
        return b.zext(b.not_(b.icmp(Pred::kUlt, x, y)), Type::kI64);
      },
      [](const IdentityModule& m) {
        const Instr* c = compare_under_zext(m);
        EXPECT_EQ(c->opcode(), Opcode::kICmp);
        EXPECT_EQ(c->pred, Pred::kUge);
      });
  // A second use of the compare keeps seeing the original predicate: the
  // xor becomes a new compare instead of inverting the old one.
  expect_identity(
      "xor (icmp ult x, y), true with a second use",
      [](Builder& b, Instr* x, Instr* y) {
        Instr* c = b.icmp(Pred::kUlt, x, y);
        return b.add(b.zext(b.not_(c), Type::kI64), b.shl(b.zext(c, Type::kI64), b.const_i64(1)));
      },
      [](const IdentityModule& m) {
        std::multiset<Pred> compares;
        for (const auto& instr : m.module.find_function("main")->entry()->instrs) {
          EXPECT_NE(instr->opcode(), Opcode::kXor);
          if (instr->opcode() == Opcode::kICmp) compares.insert(instr->pred);
        }
        EXPECT_EQ(compares, (std::multiset<Pred>{Pred::kUlt, Pred::kUge}));
      });
  // or with true is true, not a negation: the compare is left alone.
  expect_identity(
      "or (icmp ult x, y), true",
      [](Builder& b, Instr* x, Instr* y) {
        return b.zext(b.or_(b.icmp(Pred::kUlt, x, y), b.const_i1(true)), Type::kI64);
      },
      [](const IdentityModule& m) {
        const Instr* c = compare_under_zext(m);
        EXPECT_EQ(c->opcode(), Opcode::kOr);
        EXPECT_EQ(static_cast<const Instr*>(c->operands[0])->pred, Pred::kUlt);
      });
}

TEST(StatePromotion, ForwardsStoredValueToLoad) {
  Module module;
  GlobalVariable* reg = module.add_global("g_rax", 8);
  GlobalVariable* out = module.add_global("out", 8);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(5), reg);
  Instr* load = builder.load(Type::kI64, reg);
  builder.store(load, out);
  builder.ret();
  EXPECT_TRUE(make_state_promotion()->run(module));
  make_dce()->run(module);
  // The load is gone; out receives the constant directly.
  for (const auto& instr : main->entry()->instrs) {
    EXPECT_NE(instr->opcode(), Opcode::kLoad);
  }
}

TEST(StatePromotion, CallsAreBarriers) {
  Module module;
  GlobalVariable* reg = module.add_global("g_rax", 8);
  Function* callee = module.add_function("callee");
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(callee->add_block("entry"));
  builder.ret();
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(1), reg);
  builder.call(callee);
  builder.store(builder.const_i64(2), reg);  // first store must survive
  builder.ret();
  make_state_promotion()->run(module);
  unsigned stores = 0;
  for (const auto& instr : main->entry()->instrs) {
    if (instr->opcode() == Opcode::kStore) ++stores;
  }
  EXPECT_EQ(stores, 2u);
}

TEST(GlobalStoreElim, RemovesOverwrittenStore) {
  Module module;
  GlobalVariable* reg = module.add_global("g_rax", 8);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(1), reg);  // dead: overwritten unread
  builder.store(builder.const_i64(2), reg);
  builder.ret();
  EXPECT_TRUE(make_global_store_elim()->run(module));
  EXPECT_EQ(main->entry()->instrs.size(), 2u);
}

TEST(GlobalStoreElim, RemovesCrossBlockDeadFlagStore) {
  // Block A stores a flag; both successors overwrite it before reading.
  Module module;
  GlobalVariable* flag = module.add_global("g_zf", 1);
  Function* main = module.add_function("main");
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* next = main->add_block("next");
  BasicBlock* exit_block = main->add_block("exit");
  Builder builder(module);
  builder.set_insert_point(entry);
  builder.store(builder.const_i8(1), flag);  // dead across blocks
  builder.br(next);
  builder.set_insert_point(next);
  builder.store(builder.const_i8(0), flag);
  builder.br(exit_block);
  builder.set_insert_point(exit_block);
  builder.unreachable();  // nothing live at program end
  EXPECT_TRUE(make_global_store_elim()->run(module));
  EXPECT_EQ(entry->instrs.size(), 1u);  // only the br remains
}

TEST(GlobalStoreElim, KeepsStoreReadOnOnePath) {
  // entry stores the flag, then branches: one path reads it, the other
  // does not. The store must survive because of the reading path.
  Module module;
  GlobalVariable* flag = module.add_global("g_zf", 1);
  Function* main = module.add_function("main");
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* reader = main->add_block("reader");
  BasicBlock* silent = main->add_block("silent");
  Builder builder(module);
  builder.set_insert_point(entry);
  builder.store(builder.const_i8(1), flag);
  Instr* cond = builder.icmp(Pred::kEq, builder.const_i64(1), builder.const_i64(1));
  builder.cond_br(cond, reader, silent);
  builder.set_insert_point(reader);
  Instr* load = builder.load(Type::kI8, flag);
  // Use through a non-tracked address so the read matters observationally.
  builder.store(builder.zext(load, Type::kI64), builder.const_i64(0x7000));
  builder.unreachable();
  builder.set_insert_point(silent);
  builder.unreachable();
  EXPECT_FALSE(make_global_store_elim()->run(module));
  // The flag store must still be the first instruction.
  EXPECT_EQ(entry->instrs[0]->opcode(), Opcode::kStore);
}

TEST(GlobalStoreElim, RetKeepsEverythingLive) {
  Module module;
  GlobalVariable* reg = module.add_global("g_rax", 8);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(1), reg);  // caller may observe: keep
  builder.ret();
  EXPECT_FALSE(make_global_store_elim()->run(module));
}

/// Stores to `global` in `block`, in order.
std::vector<const Instr*> stores_to(const BasicBlock* block, const GlobalVariable* global) {
  std::vector<const Instr*> stores;
  for (const auto& instr : block->instrs) {
    if (instr->opcode() == Opcode::kStore && instr->operands[1] == global) {
      stores.push_back(instr.get());
    }
  }
  return stores;
}

/// set_flag stores g_zf just before its ret; main calls it twice and
/// overwrites the flag each time before reading it. With `reader`, a second
/// caller reads the flag right after its call.
Module flag_before_ret_module(bool with_reader) {
  Module module;
  GlobalVariable* zf = module.add_global("g_zf", 1);
  Function* set_flag = module.add_function("set_flag");
  Function* reader = with_reader ? module.add_function("reader") : nullptr;
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(set_flag->add_block("entry"));
  builder.store(builder.const_i8(1), zf);
  builder.ret();
  if (reader != nullptr) {
    builder.set_insert_point(reader->add_block("entry"));
    builder.call(set_flag);
    Instr* flag = builder.load(Type::kI8, zf);
    builder.store(builder.zext(flag, Type::kI64), builder.const_i64(0x7000));
    builder.ret();
  }
  builder.set_insert_point(main->add_block("entry"));
  builder.call(set_flag);
  builder.store(builder.const_i8(0), zf);
  builder.call(set_flag);
  builder.store(builder.const_i8(2), zf);
  if (reader != nullptr) builder.call(reader);
  builder.ret();
  module.entry_function = "main";
  return module;
}

TEST(GlobalStoreElim, FlagStoreBeforeRetDiesWhenEveryCallerOverwritesIt) {
  Module module = flag_before_ret_module(/*with_reader=*/false);
  EXPECT_TRUE(make_global_store_elim()->run(module));
  ir::verify(module);
  const GlobalVariable* zf = module.find_global("g_zf");
  EXPECT_TRUE(stores_to(module.find_function("set_flag")->entry(), zf).empty());
  // main has no call site: its last store stays live at its ret.
  EXPECT_EQ(stores_to(module.find_function("main")->entry(), zf).size(), 1u);
}

TEST(GlobalStoreElim, FlagStoreBeforeRetSurvivesWhenOneCallerReadsIt) {
  Module module = flag_before_ret_module(/*with_reader=*/true);
  make_global_store_elim()->run(module);
  ir::verify(module);
  EXPECT_EQ(stores_to(module.find_function("set_flag")->entry(), module.find_global("g_zf"))
                .size(),
            1u);
}

/// main stores g_rax and then calls `callee`, which reads g_rax before
/// writing it, or (writes_first) writes it before reading it.
Module store_before_call_module(bool writes_first) {
  Module module;
  GlobalVariable* rax = module.add_global("g_rax", 8);
  GlobalVariable* out = module.add_global("out", 8);
  Function* callee = module.add_function("callee");
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(callee->add_block("entry"));
  if (writes_first) builder.store(builder.const_i64(5), rax);
  builder.store(builder.load(Type::kI64, rax), out);
  if (!writes_first) builder.store(builder.const_i64(5), rax);
  builder.ret();
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(1), rax);
  builder.call(callee);
  builder.store(builder.const_i64(2), rax);
  builder.ret();
  module.entry_function = "main";
  return module;
}

TEST(GlobalStoreElim, StoreBeforeCallSurvivesWhenTheCalleeReadsItFirst) {
  Module module = store_before_call_module(/*writes_first=*/false);
  make_global_store_elim()->run(module);
  ir::verify(module);
  EXPECT_EQ(stores_to(module.find_function("main")->entry(), module.find_global("g_rax")).size(),
            2u);
  EXPECT_EQ(interpreted_out(module), 1u);

  Module writes_first = store_before_call_module(/*writes_first=*/true);
  EXPECT_TRUE(make_global_store_elim()->run(writes_first));
  // The callee overwrites g_rax before anyone reads it: main's first store dies.
  EXPECT_EQ(
      stores_to(writes_first.find_function("main")->entry(), writes_first.find_global("g_rax"))
          .size(),
      1u);
  EXPECT_EQ(interpreted_out(writes_first), 5u);
}

TEST(GlobalStoreElim, CalleesKillNothingTheyMayNotWrite) {
  // callee writes g_rbx on one path only, so main's store must reach the
  // read after the call.
  Module module;
  GlobalVariable* rbx = module.add_global("g_rbx", 8);
  GlobalVariable* rcx = module.add_global("g_rcx", 8);
  GlobalVariable* out = module.add_global("out", 8);
  Function* callee = module.add_function("callee");
  Function* main = module.add_function("main");
  BasicBlock* entry = callee->add_block("entry");
  BasicBlock* writes = callee->add_block("writes");
  BasicBlock* done = callee->add_block("done");
  Builder builder(module);
  builder.set_insert_point(entry);
  Instr* flag = builder.load(Type::kI64, rcx);
  builder.cond_br(builder.icmp(Pred::kNe, flag, builder.const_i64(0)), writes, done);
  builder.set_insert_point(writes);
  builder.store(builder.const_i64(5), rbx);
  builder.br(done);
  builder.set_insert_point(done);
  builder.ret();
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(1), rbx);
  builder.store(builder.const_i64(0), rcx);
  builder.call(callee);
  builder.store(builder.load(Type::kI64, rbx), out);
  builder.ret();
  module.entry_function = "main";

  make_global_store_elim()->run(module);
  ir::verify(module);
  EXPECT_EQ(stores_to(main->entry(), rbx).size(), 1u);
  EXPECT_EQ(interpreted_out(module), 1u);
}

/// rec(n) = n == 0 ? 0 : rec(n - 1) + zf, where rec's exit block sets zf = 1
/// just before its ret. Only the recursive call site reads zf after a
/// call (main overwrites it), so that site alone keeps the store alive.
Module self_recursive_module() {
  Module module;
  GlobalVariable* rcx = module.add_global("g_rcx", 8);
  GlobalVariable* rax = module.add_global("g_rax", 8);
  GlobalVariable* zf = module.add_global("g_zf", 1);
  GlobalVariable* out = module.add_global("out", 8);
  Function* rec = module.add_function("rec");
  Function* main = module.add_function("main");
  BasicBlock* entry = rec->add_block("entry");
  BasicBlock* step = rec->add_block("step");
  BasicBlock* base = rec->add_block("base");
  BasicBlock* exit_block = rec->add_block("exit");
  Builder builder(module);
  builder.set_insert_point(entry);
  Instr* n = builder.load(Type::kI64, rcx);
  builder.cond_br(builder.icmp(Pred::kEq, n, builder.const_i64(0)), base, step);
  builder.set_insert_point(step);
  builder.store(builder.sub(n, builder.const_i64(1)), rcx);
  builder.call(rec);
  Instr* flag = builder.zext(builder.load(Type::kI8, zf), Type::kI64);
  builder.store(builder.add(builder.load(Type::kI64, rax), flag), rax);
  builder.br(exit_block);
  builder.set_insert_point(base);
  builder.store(builder.const_i64(0), rax);
  builder.br(exit_block);
  builder.set_insert_point(exit_block);
  builder.store(builder.const_i8(1), zf);
  builder.ret();
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(3), rcx);
  builder.call(rec);
  builder.store(builder.load(Type::kI64, rax), out);
  builder.store(builder.const_i8(0), zf);
  builder.ret();
  module.entry_function = "main";
  return module;
}

TEST(GlobalStoreElim, SelfRecursionStaysSound) {
  Module module = self_recursive_module();
  const std::uint64_t expected = interpreted_out(module);
  EXPECT_EQ(expected, 3u);
  make_global_store_elim()->run(module);
  ir::verify(module);
  const Function* rec = module.find_function("rec");
  EXPECT_EQ(stores_to(rec->blocks[3].get(), module.find_global("g_zf")).size(), 1u);
  EXPECT_EQ(interpreted_out(module), expected);
}

/// even(n) / odd(n) by mutual recursion on g_rdi, result in g_rax; main
/// runs even(6) and even(7) and stores even(6) + 2 * even(7).
Module mutually_recursive_module() {
  Module module;
  GlobalVariable* rdi = module.add_global("g_rdi", 8);
  GlobalVariable* rax = module.add_global("g_rax", 8);
  GlobalVariable* out = module.add_global("out", 8);
  Function* even = module.add_function("even");
  Function* odd = module.add_function("odd");
  Function* main = module.add_function("main");
  Builder builder(module);
  for (const auto& [fn, other, at_zero] : {std::tuple{even, odd, 1}, std::tuple{odd, even, 0}}) {
    BasicBlock* entry = fn->add_block("entry");
    BasicBlock* zero = fn->add_block("zero");
    BasicBlock* step = fn->add_block("step");
    builder.set_insert_point(entry);
    Instr* n = builder.load(Type::kI64, rdi);
    builder.cond_br(builder.icmp(Pred::kEq, n, builder.const_i64(0)), zero, step);
    builder.set_insert_point(zero);
    builder.store(builder.const_i64(static_cast<std::uint64_t>(at_zero)), rax);
    builder.ret();
    builder.set_insert_point(step);
    builder.store(builder.sub(n, builder.const_i64(1)), rdi);
    builder.call(other);
    builder.ret();
  }
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(6), rdi);
  builder.call(even);
  Instr* first = builder.load(Type::kI64, rax);
  builder.store(builder.const_i64(7), rdi);
  builder.call(even);
  Instr* second = builder.load(Type::kI64, rax);
  builder.store(builder.add(first, builder.mul(second, builder.const_i64(2))), out);
  builder.ret();
  module.entry_function = "main";
  return module;
}

TEST(GlobalStoreElim, MutualRecursionStaysSound) {
  Module module = mutually_recursive_module();
  const std::uint64_t expected = interpreted_out(module);
  EXPECT_EQ(expected, 1u);
  make_global_store_elim()->run(module);
  ir::verify(module);
  const GlobalVariable* rax = module.find_global("g_rax");
  const GlobalVariable* rdi = module.find_global("g_rdi");
  for (const char* name : {"even", "odd"}) {
    const Function* fn = module.find_function(name);
    EXPECT_EQ(stores_to(fn->blocks[1].get(), rax).size(), 1u) << name;
    EXPECT_EQ(stores_to(fn->blocks[2].get(), rdi).size(), 1u) << name;
  }
  EXPECT_EQ(interpreted_out(module), expected);
}

TEST(GlobalStoreElim, SyscallIntrinsicIsNotAStateBarrier) {
  Module module;
  GlobalVariable* rax = module.add_global("g_rax", 8);
  GlobalVariable* rdi = module.add_global("g_rdi", 8);
  Function* syscall_fn = module.get_intrinsic(ir::kSyscallIntrinsic, Type::kI64, 4);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(1), rax);  // dead: overwritten, never read
  builder.store(builder.const_i64(2), rdi);  // read after the syscall
  builder.call(syscall_fn, {builder.const_i64(1), builder.const_i64(1),
                            builder.const_i64(0x7000), builder.const_i64(0)});
  builder.store(builder.const_i64(3), rax);
  builder.store(builder.load(Type::kI64, rdi), builder.const_i64(0x7000));
  builder.unreachable();
  module.entry_function = "main";
  EXPECT_TRUE(make_global_store_elim()->run(module));
  ir::verify(module);
  EXPECT_TRUE(stores_to(main->entry(), rax).empty());
  ASSERT_EQ(stores_to(main->entry(), rdi).size(), 1u);
  EXPECT_EQ(main->entry()->instrs[0]->operands[1], rdi);
}

TEST(StatePromotion, SyscallIntrinsicForwardsTrackedButNotEscapedGlobals) {
  Module module;
  GlobalVariable* rax = module.add_global("g_rax", 8);
  GlobalVariable* buffer = module.add_global("g_stack", 64);
  Function* syscall_fn = module.get_intrinsic(ir::kSyscallIntrinsic, Type::kI64, 4);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(5), rax);
  builder.store(builder.const_i64(6), buffer);
  // read(0, g_stack, 8): the syscall may write the escaped buffer.
  builder.call(syscall_fn, {builder.const_i64(0), builder.const_i64(0), buffer,
                            builder.const_i64(8)});
  Instr* reg = builder.load(Type::kI64, rax);
  Instr* data = builder.load(Type::kI64, buffer);
  builder.store(builder.add(reg, data), builder.const_i64(0x7000));
  builder.ret();
  EXPECT_TRUE(make_state_promotion()->run(module));
  make_dce()->run(module);
  ir::verify(module);
  std::vector<const ir::Value*> loaded;
  for (const auto& instr : main->entry()->instrs) {
    if (instr->opcode() == Opcode::kLoad) loaded.push_back(instr->operands[0]);
  }
  EXPECT_EQ(loaded, std::vector<const ir::Value*>{buffer});
}

TEST(GlobalStoreElim, EscapedGlobalsAreUntouched) {
  Module module;
  GlobalVariable* array = module.add_global("g_stack", 64);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  // Address escapes into arithmetic: the global must not participate.
  Instr* address = builder.add(array, builder.const_i64(8));
  builder.store(builder.const_i64(1), address);
  builder.store(builder.const_i64(2), array);
  builder.unreachable();
  EXPECT_FALSE(make_global_store_elim()->run(module));
}

// ---- branch hardening ------------------------------------------------------------

/// Algorithm 1, reimplemented directly for the property test.
std::uint64_t checksum_reference(bool cmp_res, std::uint64_t uid_t, std::uint64_t uid_f,
                                 std::uint64_t uid_src) {
  const std::uint64_t const_t = uid_t ^ uid_src;
  const std::uint64_t const_f = uid_f ^ uid_src;
  const std::uint64_t ext = cmp_res ? 1 : 0;
  const std::uint64_t mask = ext - 1;
  return (~mask & const_t) | (mask & const_f);
}

TEST(BranchHardeningAlgebra, ChecksumSelectsTakenEdgeConstant) {
  support::Rng rng(4242);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t uid_src = rng.next() & 0x7FFFFFFF;
    const std::uint64_t uid_t = rng.next() & 0x7FFFFFFF;
    const std::uint64_t uid_f = rng.next() & 0x7FFFFFFF;
    EXPECT_EQ(checksum_reference(true, uid_t, uid_f, uid_src), uid_t ^ uid_src);
    EXPECT_EQ(checksum_reference(false, uid_t, uid_f, uid_src), uid_f ^ uid_src);
  }
}

/// A module with one conditional branch: out = cond ? 11 : 22.
Module branch_module(std::uint64_t value) {
  Module module;
  GlobalVariable* out = module.add_global("out", 8);
  Function* main = module.add_function("main");
  BasicBlock* entry = main->add_block("entry");
  BasicBlock* t = main->add_block("t");
  BasicBlock* f = main->add_block("f");
  BasicBlock* done = main->add_block("done");
  Builder builder(module);
  builder.set_insert_point(entry);
  Instr* cond = builder.icmp(Pred::kEq, builder.const_i64(value), builder.const_i64(7));
  builder.cond_br(cond, t, f);
  builder.set_insert_point(t);
  builder.store(builder.const_i64(11), out);
  builder.br(done);
  builder.set_insert_point(f);
  builder.store(builder.const_i64(22), out);
  builder.br(done);
  builder.set_insert_point(done);
  builder.ret();
  module.entry_function = "main";
  return module;
}

TEST(BranchHardening, PreservesSemanticsOnBothEdges) {
  for (const std::uint64_t value : {7ULL, 9ULL}) {
    Module module = branch_module(value);
    make_branch_hardening()->run(module);
    ir::verify(module);
    emu::Memory memory;
    const ir::InterpResult result = ir::interpret(module, memory, "");
    EXPECT_EQ(result.stop, ir::InterpStop::kReturned) << result.crash_detail;
    EXPECT_EQ(memory.read(module.find_global("out")->address, 8),
              value == 7 ? 11u : 22u);
  }
}

TEST(BranchHardening, AddsFourSwitchesAndChecksumOpsPerBranch) {
  Module module = branch_module(7);
  const OpcodeCounts before = count_ops(module);
  EXPECT_TRUE(make_branch_hardening()->run(module));
  const OpcodeCounts after = count_ops(module);
  // Table IV shape (per protected branch).
  EXPECT_EQ(after.count(Opcode::kSwitch) - before.count(Opcode::kSwitch), 4u);
  EXPECT_EQ(after.count(Opcode::kZExt) - before.count(Opcode::kZExt), 2u);
  EXPECT_EQ(after.count(Opcode::kSub) - before.count(Opcode::kSub), 2u);
  EXPECT_EQ(after.count(Opcode::kXor) - before.count(Opcode::kXor), 6u);
  EXPECT_EQ(after.count(Opcode::kOr) - before.count(Opcode::kOr), 2u);
  EXPECT_EQ(after.count(Opcode::kAnd) - before.count(Opcode::kAnd), 4u);
  // The comparison is re-executed (C2).
  EXPECT_EQ(after.count(Opcode::kICmp) - before.count(Opcode::kICmp), 1u);
}

TEST(BranchHardening, CorruptedChecksumTraps) {
  // Force D1 to a wrong constant after hardening: validation must trap.
  Module module = branch_module(7);
  make_branch_hardening()->run(module);
  // Find the first switch and corrupt its tested value with a fresh
  // constant that matches no case.
  for (auto& fn : module.functions) {
    for (auto& block : fn->blocks) {
      for (auto& instr : block->instrs) {
        if (instr->opcode() == Opcode::kSwitch) {
          instr->operands[0] = module.get_constant(Type::kI64, 0xDEAD);
          ir::verify(module);
          emu::Memory memory;
          const ir::InterpResult result = ir::interpret(module, memory, "");
          EXPECT_EQ(result.stop, ir::InterpStop::kTrapped);
          return;
        }
      }
    }
  }
  FAIL() << "no switch found after hardening";
}

TEST(BranchHardening, UnconditionalCodeIsUntouched) {
  Module module;
  GlobalVariable* out = module.add_global("out", 8);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  builder.store(builder.const_i64(1), out);
  builder.ret();
  EXPECT_FALSE(make_branch_hardening()->run(module));
}

TEST(InstructionDuplication, PreservesSemantics) {
  Module module = branch_module(7);
  EXPECT_TRUE(make_instruction_duplication()->run(module));
  ir::verify(module);
  emu::Memory memory;
  const ir::InterpResult result = ir::interpret(module, memory, "");
  EXPECT_EQ(result.stop, ir::InterpStop::kReturned) << result.crash_detail;
  EXPECT_EQ(memory.read(module.find_global("out")->address, 8), 11u);
}

TEST(InstructionDuplication, AddsCompareAndTrapPerDuplicable) {
  Module module;
  GlobalVariable* out = module.add_global("out", 8);
  Function* main = module.add_function("main");
  Builder builder(module);
  builder.set_insert_point(main->add_block("entry"));
  Instr* sum = builder.add(builder.const_i64(1), builder.const_i64(2));
  builder.store(sum, out);
  builder.ret();
  const OpcodeCounts before = count_ops(module);
  make_instruction_duplication()->run(module);
  ir::verify(module);
  const OpcodeCounts after = count_ops(module);
  EXPECT_EQ(after.count(Opcode::kAdd) - before.count(Opcode::kAdd), 1u);  // the duplicate
  EXPECT_GE(after.count(Opcode::kICmp), 1u);
  EXPECT_GE(after.count(Opcode::kCall), 1u);  // trap call
  EXPECT_GT(after.total, 2 * before.total);   // the >=300% spirit at IR level
}

TEST(CallGuard, PoisonsReturnRegisterBeforeGuardableCall) {
  Module module;
  GlobalVariable* rax = module.add_global("g_rax", 8);
  Function* callee = module.add_function("callee");
  Builder builder(module);
  builder.set_insert_point(callee->add_block("entry"));
  builder.store(builder.const_i64(1), rax);  // writes g_rax first: guardable
  builder.ret();
  Function* main = module.add_function("main");
  builder.set_insert_point(main->add_block("entry"));
  builder.call(callee);
  builder.ret();

  EXPECT_TRUE(make_call_guard()->run(module));
  ir::verify(module);
  // The poison store must precede the call.
  const auto& instrs = main->entry()->instrs;
  ASSERT_GE(instrs.size(), 3u);
  EXPECT_EQ(instrs[0]->opcode(), Opcode::kStore);
  EXPECT_EQ(instrs[0]->operands[1], rax);
  EXPECT_EQ(instrs[1]->opcode(), Opcode::kCall);
}

TEST(CallGuard, SkipsCalleesThatReadTheReturnRegister) {
  Module module;
  GlobalVariable* rax = module.add_global("g_rax", 8);
  GlobalVariable* out = module.add_global("out", 8);
  Function* callee = module.add_function("callee");
  Builder builder(module);
  builder.set_insert_point(callee->add_block("entry"));
  builder.store(builder.load(ir::Type::kI64, rax), out);  // reads g_rax first
  builder.ret();
  Function* main = module.add_function("main");
  builder.set_insert_point(main->add_block("entry"));
  builder.call(callee);
  builder.ret();
  EXPECT_FALSE(make_call_guard()->run(module));
}

TEST(CallGuard, NoOpWithoutLiftedStateGlobals) {
  Module module = branch_module(7);
  EXPECT_FALSE(make_call_guard()->run(module));
}

TEST(PassManager, FixpointTerminates) {
  Module module = branch_module(7);
  PassManager pm;
  pm.add(make_constant_fold());
  pm.add(make_dce());
  EXPECT_TRUE(pm.run_to_fixpoint(module));
  // Re-running a second time changes nothing.
  EXPECT_FALSE(pm.run_to_fixpoint(module));
}

TEST(Stats, CountsMatchModuleContents) {
  Module module = branch_module(7);
  const OpcodeCounts counts = count_ops(module);
  EXPECT_EQ(counts.count(Opcode::kICmp), 1u);
  EXPECT_EQ(counts.count(Opcode::kCondBr), 1u);
  EXPECT_EQ(counts.count(Opcode::kStore), 2u);
  EXPECT_EQ(counts.blocks, 4u);
  EXPECT_FALSE(to_string(counts).empty());
}

TEST(Stats, ObsMetricsTallyConcurrentCounting) {
  // count_ops reports into the process-wide obs::Metrics registry (which
  // absorbed the old StatsRegistry singleton).
  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.reset();

  Module module = branch_module(7);
  const OpcodeCounts counts = count_ops(module);
  metrics.reset();

  constexpr unsigned kThreads = 8;
  constexpr unsigned kRounds = 50;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&module] {
      for (unsigned round = 0; round < kRounds; ++round) count_ops(module);
    });
  }
  for (std::thread& worker : workers) worker.join();

  const std::uint64_t runs = kThreads * kRounds;
  EXPECT_EQ(metrics.counter("passes.ops_counted").value(), runs * counts.total);
  EXPECT_EQ(metrics.counter("passes.blocks_counted").value(),
            runs * counts.blocks);
  // branch_module: one function
  EXPECT_EQ(metrics.counter("passes.functions_counted").value(), runs);
}

}  // namespace
}  // namespace r2r::passes
