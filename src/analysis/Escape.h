//===- analysis/Escape.h - Frame-array escape analysis ----------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Identifies frame arrays (`var a[n];` inside a function) whose base
/// address provably never leaves the owning activation: the AllocaArray
/// result flows into exactly one local slot, that slot is assigned
/// nowhere else, and every load of the slot is consumed *only* as the
/// base operand of a LoadIndirect/StoreIndirect in the same basic
/// block. Any other consumption — call/spawn/builtin argument, Return,
/// stored as a value or index, arithmetic, StoreGlobal, or surviving on
/// the operand stack across a block boundary — escapes.
///
/// A never-escaping array is private to its activation by construction:
/// no callee, sibling thread, or kernel transfer can ever hold its
/// address, so no access to its cells can originate outside loads and
/// stores through the tracked slot. The `; noescape` disasm annotation
/// reports this fact.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_ANALYSIS_ESCAPE_H
#define ISPROF_ANALYSIS_ESCAPE_H

#include "vm/Bytecode.h"

#include <cstdint>
#include <vector>

namespace isp {
namespace analysis {

/// One never-escaping frame array.
struct FrameArray {
  size_t Fn = 0;       ///< owning function index
  size_t AllocaPc = 0; ///< the AllocaArray instruction
  uint32_t Slot = 0;   ///< the single local slot holding the base
  uint64_t Cells = 0;  ///< exact extent (constant size operand)
};

struct EscapeResult {
  std::vector<FrameArray> NeverEscaping;

  const FrameArray *find(size_t Fn, uint32_t Slot) const {
    for (const FrameArray &A : NeverEscaping)
      if (A.Fn == Fn && A.Slot == Slot)
        return &A;
    return nullptr;
  }
};

/// Runs the analysis over every structurally-sound function of \p Prog.
/// Folds analysis.escape_objects into the obs registry when stats are
/// enabled.
EscapeResult computeEscape(const Program &Prog);

} // namespace analysis
} // namespace isp

#endif // ISPROF_ANALYSIS_ESCAPE_H
