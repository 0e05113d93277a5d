//===- vm/Optimizer.h - Bytecode peephole optimizer -------------*- C++ -*-===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A peephole optimizer over compiled guest bytecode: constant folding
/// of arithmetic/comparison/logic over literals, folding of ToBool and
/// conditional jumps on constants, jump threading, and compaction of
/// the resulting dead slots (with jump-target remapping) — plus a
/// *quiet-access* pass that marks provably redundant local accesses so
/// the VM can skip their instrumentation events.
///
/// The peephole passes never touch memory instructions or
/// Op::BasicBlock markers, so each *thread's* event sequence — its
/// memory accesses, calls, and basic-block counts — is identical to the
/// unoptimized program's; only the interpreter's instruction count (and
/// hence native time) drops. For multithreaded programs the per-thread
/// streams are preserved but their interleaving can shift (scheduler
/// quanta are counted in instructions), exactly as if the program ran
/// under a different slice length — synchronized guests still compute
/// identical results.
///
/// The quiet-access pass additionally suppresses *events* (never the
/// accesses themselves) that are no-ops for every tool: within one
/// straight-line window — broken by jump targets, unconditional jumps,
/// calls, builtins, spawns, and returns — a repeated read of an address
/// already read or written, or a repeated write of an address already
/// written, finds every per-address tool state (access timestamps,
/// write timestamps, definedness, locksets) already current, because
/// tool counters only advance at events the window-breaking
/// instructions (or the scheduler) produce. Windows span BasicBlock
/// markers and conditional fall-through edges: block costs accumulate
/// without a counter bump, and code after an untaken branch still
/// postdominates the window's earlier accesses in execution order. The
/// VM honors quiet marks only while no scheduler switch has interrupted
/// the window (Machine::WindowInterrupted), covering the one
/// interruption the static pass cannot see. Profiles are bit-identical
/// with or without the pass (tested); stream-level statistics (event
/// counts) legitimately drop.
///
/// Since the analysis layer landed, the pass covers *indirect* accesses
/// too: a window-local symbolic value numbering assigns each operand a
/// value number such that equal numbers imply equal runtime values
/// (straight-line code executes each instruction at most once per
/// window entry, so value numbers are genuine must-alias facts). A
/// LoadIndirect whose address value number was already touched — or a
/// StoreIndirect whose address was already written — in the same window
/// is marked quiet exactly like a direct access. Value numbers for
/// loaded cells are cached and must be dropped when an intervening
/// StoreIndirect may clobber the cell; the pass keeps them when the
/// store is provably confined to object storage, using either a
/// window-local shape fact (the base is this window's own alloc/alloca
/// result, or an immutable global array base) or the Andersen points-to
/// facts from src/analysis (PreciseBoundedBase). See DESIGN.md "Static
/// analysis" for the soundness argument.
///
//===----------------------------------------------------------------------===//

#ifndef ISPROF_VM_OPTIMIZER_H
#define ISPROF_VM_OPTIMIZER_H

#include "vm/Bytecode.h"

namespace isp {

struct OptimizerStats {
  unsigned ConstantsFolded = 0;
  unsigned JumpsThreaded = 0;
  unsigned BranchesResolved = 0;
  unsigned InstructionsRemoved = 0;
  /// Accesses whose instrumentation events are provably redundant
  /// within their straight-line window (the access still executes).
  /// Counts direct and indirect marks; the next field is the indirect
  /// subset.
  unsigned QuietAccessesMarked = 0;
  /// LoadIndirect/StoreIndirect instructions marked quiet (subset of
  /// QuietAccessesMarked) — the alias-analysis-driven extension.
  unsigned QuietIndirectMarked = 0;
};

/// Optimizes one function in place.
OptimizerStats optimizeFunction(Function &F);

/// Optimizes every function of \p Prog in place; returns summed stats.
OptimizerStats optimizeProgram(Program &Prog);

} // namespace isp

#endif // ISPROF_VM_OPTIMIZER_H
