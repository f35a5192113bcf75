// Global dead-store elimination for lifted CPU-state globals.
//
// The lifter materializes every architectural flag and register write into
// a store; most are overwritten before anyone reads them (a cmp rewrites
// all flags a previous add computed, the next basic block clobbers them
// again, ...). State promotion removes block-local redundancy; this pass
// removes stores that are dead across blocks and across calls, by backward
// liveness over the tracked globals (state_globals.h):
//
//   live-out(B) = union of live-in(successors)
//   live-in(B)  = upward-exposed-reads(B) ∪ (live-out(B) − killed(B))
//
// Calls are interprocedural. Every function has two summaries, each a
// least fixpoint over the module (so recursion needs no special case):
//
//   reads(F)       the tracked globals F, or any callee, may read before
//                  writing them (F's live-in with nothing live at its rets);
//   after_calls(F) the union of what is live after each call site of F,
//                  which is the live-out of F's rets.
//
// A call's live-before is its live-after plus reads(callee): a callee kills
// nothing, because it may not write on every path. A function with no call
// site (the module entry) keeps every tracked global live at its rets, and
// `unreachable` makes nothing live. The r2r.syscall and r2r.trap
// intrinsics are not barriers: they see only their arguments, and tracked
// globals never escape into one.
#include <unordered_map>

#include "passes/pass.h"
#include "passes/state_globals.h"

namespace r2r::passes {

namespace {

using ir::Opcode;

/// A tracked-global access or a call, in block order.
struct Event {
  enum class Kind : std::uint8_t { kRead, kWrite, kCall };
  Kind kind = Kind::kRead;
  StateSet bit = 0;        ///< kRead / kWrite: the global
  std::size_t callee = 0;  ///< kCall: index of the callee's FunctionFacts
  std::size_t instr = 0;   ///< kWrite: index of the store in its block
};

struct BlockFacts {
  std::vector<Event> events;
  std::vector<std::size_t> succs;
  bool returns = false;  ///< ends in ret: live-out is the function's ret set
};

struct FunctionFacts {
  ir::Function* fn = nullptr;
  std::vector<BlockFacts> blocks;
  bool called = false;       ///< has a call site somewhere in the module
  StateSet reads = 0;        ///< summary: read before written by F or a callee
  StateSet after_calls = 0;  ///< summary: live after any call site of F
};

class GlobalStoreElimPass final : public Pass {
 public:
  bool run(ir::Module& module) override {
    const StateGlobals tracked(module);
    if (tracked.all() == 0) return false;
    all_ = tracked.all();
    build_facts(module, tracked);

    // Summary 1: reads, with nothing live at the rets.
    for (bool changed = true; changed;) {
      changed = false;
      for (FunctionFacts& f : functions_) {
        const StateSet reads =
            f.blocks.empty() ? all_ : solve(f, /*ret_live=*/0).front();
        changed |= reads != f.reads;
        f.reads = reads;
      }
    }
    // Summary 2: what each function's call sites keep live after it.
    for (bool changed = true; changed;) {
      changed = false;
      for (FunctionFacts& f : functions_) {
        const std::vector<StateSet> live_in = solve(f, ret_live(f));
        for (std::size_t b = 0; b < f.blocks.size(); ++b) {
          walk(f, b, live_in, [&](const Event& event, StateSet live_after) {
            if (event.kind != Event::Kind::kCall) return;
            StateSet& after = functions_[event.callee].after_calls;
            changed |= (live_after & ~after) != 0;
            after |= live_after;
          });
        }
      }
    }

    bool changed = false;
    for (FunctionFacts& f : functions_) {
      const std::vector<StateSet> live_in = solve(f, ret_live(f));
      for (std::size_t b = 0; b < f.blocks.size(); ++b) {
        std::vector<std::size_t> dead;  // descending, as walk() runs backwards
        walk(f, b, live_in, [&](const Event& event, StateSet live_after) {
          if (event.kind == Event::Kind::kWrite && (live_after & event.bit) == 0) {
            dead.push_back(event.instr);
          }
        });
        auto& instrs = f.fn->blocks[b]->instrs;
        for (const std::size_t i : dead) {
          instrs.erase(instrs.begin() + static_cast<std::ptrdiff_t>(i));
        }
        changed |= !dead.empty();
      }
    }
    return changed;
  }

 private:
  void build_facts(ir::Module& module, const StateGlobals& tracked) {
    functions_.clear();
    std::unordered_map<const ir::Function*, std::size_t> index;
    for (auto& fn : module.functions) {
      if (fn->is_intrinsic()) continue;
      index[fn.get()] = functions_.size();
      functions_.push_back(FunctionFacts{fn.get(), {}, false, 0, 0});
    }
    for (FunctionFacts& f : functions_) {
      std::unordered_map<const ir::BasicBlock*, std::size_t> block_index;
      for (std::size_t b = 0; b < f.fn->blocks.size(); ++b) {
        block_index[f.fn->blocks[b].get()] = b;
      }
      f.blocks.resize(f.fn->blocks.size());
      for (std::size_t b = 0; b < f.fn->blocks.size(); ++b) {
        BlockFacts& facts = f.blocks[b];
        const auto& instrs = f.fn->blocks[b]->instrs;
        for (std::size_t i = 0; i < instrs.size(); ++i) {
          const ir::Instr& instr = *instrs[i];
          switch (instr.opcode()) {
            case Opcode::kLoad:
              if (const StateSet bit = tracked.bit(instr.operands[0])) {
                facts.events.push_back({Event::Kind::kRead, bit, 0, i});
              }
              break;
            case Opcode::kStore:
              if (const StateSet bit = tracked.bit(instr.operands[1])) {
                facts.events.push_back({Event::Kind::kWrite, bit, 0, i});
              }
              break;
            case Opcode::kCall:
              if (!instr.callee->is_intrinsic()) {
                const std::size_t callee = index.at(instr.callee);
                functions_[callee].called = true;
                facts.events.push_back({Event::Kind::kCall, 0, callee, i});
              }
              break;
            case Opcode::kRet:
              facts.returns = true;
              break;
            default:
              break;
          }
        }
        if (const ir::Instr* term = f.fn->blocks[b]->terminator()) {
          for (const ir::BasicBlock* target : term->targets) {
            facts.succs.push_back(block_index.at(target));
          }
        }
      }
    }
    // The loader calls the module entry with every global live after it.
    for (FunctionFacts& f : functions_) {
      if (f.fn->name() == module.entry_function) f.called = false;
    }
  }

  [[nodiscard]] StateSet ret_live(const FunctionFacts& f) const noexcept {
    return f.called ? f.after_calls : all_;
  }

  [[nodiscard]] static StateSet live_out(const FunctionFacts& f, std::size_t b,
                                         const std::vector<StateSet>& live_in,
                                         StateSet ret_live) {
    const BlockFacts& facts = f.blocks[b];
    StateSet live = facts.returns ? ret_live : 0;
    for (const std::size_t succ : facts.succs) live |= live_in[succ];
    return live;
  }

  /// Live-before of one event, given its live-after.
  [[nodiscard]] StateSet transfer(const Event& event, StateSet live) const {
    switch (event.kind) {
      case Event::Kind::kRead: return live | event.bit;
      case Event::Kind::kWrite: return live & ~event.bit;
      case Event::Kind::kCall: return live | functions_[event.callee].reads;
    }
    return live;
  }

  /// Per-block live-in to a fixed point, with `ret_live` live at each ret.
  [[nodiscard]] std::vector<StateSet> solve(const FunctionFacts& f, StateSet ret_live) const {
    std::vector<StateSet> live_in(f.blocks.size(), 0);
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t b = f.blocks.size(); b-- > 0;) {
        StateSet live = live_out(f, b, live_in, ret_live);
        const auto& events = f.blocks[b].events;
        for (auto it = events.rbegin(); it != events.rend(); ++it) live = transfer(*it, live);
        changed |= live != live_in[b];
        live_in[b] = live;
      }
    }
    return live_in;
  }

  /// Calls visit(event, live-after) for each event of block `b`, last first.
  template <typename Visit>
  void walk(const FunctionFacts& f, std::size_t b, const std::vector<StateSet>& live_in,
            Visit&& visit) const {
    StateSet live = live_out(f, b, live_in, ret_live(f));
    const auto& events = f.blocks[b].events;
    for (auto it = events.rbegin(); it != events.rend(); ++it) {
      visit(*it, live);
      live = transfer(*it, live);
    }
  }

  std::vector<FunctionFacts> functions_;
  StateSet all_ = 0;
};

}  // namespace

std::unique_ptr<Pass> make_global_store_elim() {
  return std::make_unique<GlobalStoreElimPass>();
}

}  // namespace r2r::passes
