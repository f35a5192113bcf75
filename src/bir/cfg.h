// r2r::bir — control-flow graph over a Module's text stream.
//
// Blocks are ranges of item indices. Call edges are not successors (calls
// are treated as straight-line, like most binary CFGs); returns and
// indirect jumps terminate blocks with no static successors.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bir/module.h"

namespace r2r::bir {

struct BasicBlock {
  std::size_t first_item = 0;
  std::size_t last_item = 0;  ///< inclusive
  std::vector<std::size_t> successors;
  bool ends_in_indirect = false;
  bool is_raw = false;  ///< block of raw (non-instruction) bytes

  [[nodiscard]] std::size_t size() const noexcept { return last_item - first_item + 1; }
};

class Cfg {
 public:
  std::vector<BasicBlock> blocks;

  [[nodiscard]] std::optional<std::size_t> block_of_item(std::size_t item_index) const;
  [[nodiscard]] std::optional<std::size_t> block_of_label(const Module& module,
                                                          std::string_view label) const;
};

/// Builds the CFG. Leaders: item 0, every labelled item, and every item
/// following a terminator or conditional branch.
Cfg build_cfg(const Module& module);

}  // namespace r2r::bir
