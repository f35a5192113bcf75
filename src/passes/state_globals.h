// r2r::passes — the CPU-state globals the dataflow passes reason about.
//
// A global is tracked when every use of it is the address of a load or a
// store: its address never escapes into arithmetic, a stored value or a
// call argument, so only literal loads and stores of it (and the calls
// that reach them) can touch it. The lifter's register and flag slots are
// tracked; the guest stack array is not (its address flows into g_rsp).
// An intrinsic call sees only its arguments, so it can reach no tracked
// global. Up to kMaxTracked globals get a bit in a dense StateSet; any
// further ones are treated as escaping, which keeps every pass correct.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "ir/ir.h"

namespace r2r::passes {

/// Dense bit set over a module's tracked globals.
using StateSet = std::uint64_t;

class StateGlobals {
 public:
  static constexpr std::size_t kMaxTracked = 64;

  explicit StateGlobals(const ir::Module& module) {
    std::vector<const ir::Value*> escaped;
    for (const auto& fn : module.functions) {
      for (const auto& block : fn->blocks) {
        for (const auto& instr : block->instrs) {
          for (std::size_t i = 0; i < instr->operands.size(); ++i) {
            const ir::Value* op = instr->operands[i];
            if (op->kind() != ir::Value::Kind::kGlobal) continue;
            const bool is_address_use =
                (instr->opcode() == ir::Opcode::kLoad && i == 0) ||
                (instr->opcode() == ir::Opcode::kStore && i == 1);
            if (!is_address_use) escaped.push_back(op);
          }
        }
      }
    }
    for (const auto& global : module.globals) {
      if (bits_.size() == kMaxTracked) break;
      if (std::find(escaped.begin(), escaped.end(), global.get()) != escaped.end()) continue;
      bits_.emplace_back(global.get(), StateSet{1} << bits_.size());
      all_ |= bits_.back().second;
    }
    std::sort(bits_.begin(), bits_.end(), [](const auto& a, const auto& b) {
      return std::less<>{}(a.first, b.first);
    });
  }

  /// The bit of `value`, or 0 when it is not a tracked global.
  [[nodiscard]] StateSet bit(const ir::Value* value) const noexcept {
    const auto it = std::lower_bound(bits_.begin(), bits_.end(), value,
                                     [](const auto& entry, const ir::Value* key) {
                                       return std::less<>{}(entry.first, key);
                                     });
    return it != bits_.end() && it->first == value ? it->second : 0;
  }

  [[nodiscard]] StateSet all() const noexcept { return all_; }

 private:
  std::vector<std::pair<const ir::Value*, StateSet>> bits_;  ///< sorted by address
  StateSet all_ = 0;
};

}  // namespace r2r::passes
