//===- vm/Optimizer.cpp - Bytecode peephole optimizer ------------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "vm/Optimizer.h"

#include "analysis/PointsTo.h"
#include "obs/Obs.h"

#include <cassert>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

using namespace isp;

namespace {

/// Evaluates a foldable binary opcode over constants. Returns nullopt
/// for division/modulo by zero (left for the runtime's error handling).
std::optional<int64_t> foldBinary(Op Opcode, int64_t Lhs, int64_t Rhs) {
  switch (Opcode) {
  case Op::Add:
    return guestAdd(Lhs, Rhs);
  case Op::Sub:
    return guestSub(Lhs, Rhs);
  case Op::Mul:
    return guestMul(Lhs, Rhs);
  case Op::Div:
    if (Rhs == 0)
      return std::nullopt;
    return guestDiv(Lhs, Rhs);
  case Op::Mod:
    if (Rhs == 0)
      return std::nullopt;
    return guestMod(Lhs, Rhs);
  case Op::Lt:
    return Lhs < Rhs ? 1 : 0;
  case Op::Le:
    return Lhs <= Rhs ? 1 : 0;
  case Op::Gt:
    return Lhs > Rhs ? 1 : 0;
  case Op::Ge:
    return Lhs >= Rhs ? 1 : 0;
  case Op::Eq:
    return Lhs == Rhs ? 1 : 0;
  case Op::Ne:
    return Lhs != Rhs ? 1 : 0;
  default:
    return std::nullopt;
  }
}

std::optional<int64_t> foldUnary(Op Opcode, int64_t Operand) {
  switch (Opcode) {
  case Op::Neg:
    return guestNeg(Operand);
  case Op::Not:
    return Operand == 0 ? 1 : 0;
  case Op::ToBool:
    return Operand != 0 ? 1 : 0;
  default:
    return std::nullopt;
  }
}

bool isJump(Op Opcode) {
  return Opcode == Op::Jump || Opcode == Op::JumpIfFalse ||
         Opcode == Op::JumpIfTrue;
}

/// One optimization pass over \p F with a removal mask. Mutating passes
/// preserve the invariant that jump targets keep their *original*
/// indices until the final compaction.
class FunctionOptimizer {
public:
  explicit FunctionOptimizer(Function &F) : F(F), Removed(F.Code.size()) {}

  /// Folding/threading/compaction only; quiet marking runs separately
  /// (QuietMarker below) so optimizeProgram can feed it whole-program
  /// alias facts computed on the *final* instruction stream.
  OptimizerStats runPeephole() {
    bool Changed = true;
    // Each iteration strictly reduces live instructions or branch
    // targets, so a generous bound keeps this linear in practice.
    for (unsigned Round = 0; Changed && Round != 16; ++Round) {
      collectTargets();
      Changed = foldConstants();
      Changed |= threadJumps();
    }
    compact();
    return Stats;
  }

private:
  /// Index of the next live instruction after \p Index, or the size.
  size_t nextLive(size_t Index) const {
    ++Index;
    while (Index < F.Code.size() && Removed[Index])
      ++Index;
    return Index;
  }

  /// First live instruction at or after \p Index (for target mapping).
  size_t firstLiveAt(size_t Index) const {
    while (Index < F.Code.size() && Removed[Index])
      ++Index;
    return Index;
  }

  void collectTargets() {
    Targets.assign(F.Code.size() + 1, false);
    for (size_t I = 0; I != F.Code.size(); ++I) {
      if (Removed[I] || !isJump(F.Code[I].Opcode))
        continue;
      assert(F.Code[I].A >= 0 &&
             static_cast<size_t>(F.Code[I].A) <= F.Code.size());
      Targets[static_cast<size_t>(F.Code[I].A)] = true;
    }
  }

  /// True when any index in (From, To] is a jump target — folding across
  /// such a point would change what a jump into the sequence observes.
  bool targetInside(size_t From, size_t To) const {
    for (size_t I = From + 1; I <= To; ++I)
      if (Targets[I])
        return true;
    return false;
  }

  bool foldConstants() {
    bool Changed = false;
    for (size_t I = 0; I < F.Code.size(); ++I) {
      if (Removed[I] || F.Code[I].Opcode != Op::PushConst)
        continue;
      size_t J = nextLive(I);
      if (J >= F.Code.size() || targetInside(I, J))
        continue;

      // PushConst a; unary -> PushConst f(a).
      if (auto Folded = foldUnary(F.Code[J].Opcode, F.Code[I].A)) {
        F.Code[I].A = *Folded;
        Removed[J] = true;
        ++Stats.ConstantsFolded;
        ++Stats.InstructionsRemoved;
        Changed = true;
        continue;
      }

      // PushConst a; JumpIfFalse/True L -> Jump L or fallthrough.
      if (F.Code[J].Opcode == Op::JumpIfFalse ||
          F.Code[J].Opcode == Op::JumpIfTrue) {
        bool Taken = (F.Code[J].Opcode == Op::JumpIfFalse) ==
                     (F.Code[I].A == 0);
        if (Taken) {
          F.Code[I] = {Op::Jump, F.Code[J].A, 0};
        } else {
          Removed[I] = true;
          ++Stats.InstructionsRemoved;
        }
        Removed[J] = true;
        ++Stats.BranchesResolved;
        ++Stats.InstructionsRemoved;
        Changed = true;
        continue;
      }

      // PushConst a; PushConst b; binop -> PushConst (a op b).
      if (F.Code[J].Opcode != Op::PushConst)
        continue;
      size_t K = nextLive(J);
      if (K >= F.Code.size() || targetInside(J, K))
        continue;
      if (auto Folded =
              foldBinary(F.Code[K].Opcode, F.Code[I].A, F.Code[J].A)) {
        F.Code[I].A = *Folded;
        Removed[J] = true;
        Removed[K] = true;
        Stats.InstructionsRemoved += 2;
        ++Stats.ConstantsFolded;
        Changed = true;
      }
    }
    return Changed;
  }

  bool threadJumps() {
    bool Changed = false;
    for (size_t I = 0; I != F.Code.size(); ++I) {
      if (Removed[I] || !isJump(F.Code[I].Opcode))
        continue;
      // Follow chains of unconditional jumps (bounded against cycles).
      int64_t Target = F.Code[I].A;
      for (unsigned Hops = 0; Hops != 8; ++Hops) {
        size_t Live = firstLiveAt(static_cast<size_t>(Target));
        if (Live >= F.Code.size() || F.Code[Live].Opcode != Op::Jump ||
            F.Code[Live].A == Target)
          break;
        Target = F.Code[Live].A;
        ++Stats.JumpsThreaded;
        Changed = true;
      }
      F.Code[I].A = Target;
    }
    return Changed;
  }

  void compact() {
    std::vector<int64_t> NewIndex(F.Code.size() + 1, 0);
    std::vector<Instr> NewCode;
    NewCode.reserve(F.Code.size());
    for (size_t I = 0; I != F.Code.size(); ++I) {
      NewIndex[I] = static_cast<int64_t>(NewCode.size());
      if (!Removed[I])
        NewCode.push_back(F.Code[I]);
    }
    NewIndex[F.Code.size()] = static_cast<int64_t>(NewCode.size());
    for (Instr &I : NewCode)
      if (isJump(I.Opcode))
        I.A = NewIndex[firstLiveAt(static_cast<size_t>(I.A))];
    F.Code = std::move(NewCode);
  }

  Function &F;
  std::vector<bool> Removed;
  std::vector<bool> Targets;
  OptimizerStats Stats;
};

/// Whole-program context for the quiet pass. ImmutableArrayCells maps a
/// named global cell to its array's extent when the cell provably holds
/// the loader-installed base address for the entire run: no StoreGlobal
/// targets it, no raw store() builtin exists anywhere, and (established
/// by the probe round in optimizeProgram) every StoreIndirect in the
/// program is frame-safe — the last condition is a greatest fixpoint:
/// assuming immutability, each store stays inside object storage, so no
/// store clobbers a named cell, so immutability holds. Induction over
/// the event order grounds it: the first violating write would have to
/// be an indirect store whose base was read *before* any violation,
/// hence a genuine base address, hence in-bounds — a contradiction.
struct QuietPassContext {
  std::unordered_map<int64_t, uint64_t> ImmutableArrayCells;
  const analysis::PointsToResult *PT = nullptr;
  size_t FnIndex = 0;
};

/// The quiet-access pass: window-local symbolic value numbering over
/// the operand stack (see the Optimizer.h file comment). Equal value
/// numbers imply equal runtime values within one window entry, so an
/// address VN hit in the Touched/Written membership set is a must-alias
/// proof that the access is event-redundant.
///
/// Soundness split: the *membership sets* (address already touched /
/// written this window) are never invalidated mid-window — intervening
/// same-thread accesses to any address leave a re-read/re-write just as
/// redundant, because locks and tool timestamps cannot change inside a
/// window (every lock op is a builtin, i.e. a window break; scheduler
/// switches trip Machine::WindowInterrupted). Only the *value caches*
/// (the VN a local slot or named global cell currently holds) must be
/// dropped when a StoreIndirect may clobber the underlying cell; a
/// frame-safe store — provably confined to heap/global-array/own-window
/// frame-array storage — keeps them alive.
class QuietMarker {
public:
  struct Result {
    unsigned Marked = 0;
    unsigned IndirectMarked = 0;
    unsigned UnsafeStores = 0;
  };

  QuietMarker(Function &F, const QuietPassContext &Ctx, bool Mutate)
      : F(F), Ctx(Ctx), Mutate(Mutate) {}

  Result run();

private:
  // Value-number tags. Binary/unary operator VNs embed the opcode so
  // identical expressions over identical operands unify ("a[i+1]" read
  // twice computes the same address VN).
  enum : uint8_t { TConst, TLAddr, TGAddr, TArrayBase, TBin, TUn };

  uint32_t intern(uint8_t Tag, int64_t A, int64_t B = 0) {
    auto [It, New] = Interned.try_emplace(std::make_tuple(Tag, A, B), 0);
    if (New) {
      It->second = static_cast<uint32_t>(Info.size());
      Info.push_back({Tag, A, B, false});
    }
    return It->second;
  }
  /// A fresh VN equal to nothing else (unknown values).
  uint32_t opaque() {
    uint32_t Id = static_cast<uint32_t>(Info.size());
    Info.push_back({TConst, 0, 0, true});
    return Id;
  }
  bool constValue(uint32_t VN, int64_t &Out) const {
    if (Info[VN].Opaque || Info[VN].Tag != TConst)
      return false;
    Out = Info[VN].A;
    return true;
  }

  uint32_t pop() {
    if (Stack.empty())
      return opaque();
    uint32_t VN = Stack.back();
    Stack.pop_back();
    return VN;
  }
  /// The VN of base + index — the canonical commutative-Add VN, so an
  /// indirect address unifies with the same sum computed by guest
  /// arithmetic.
  uint32_t addressVN(uint32_t Base, uint32_t Index) {
    if (Base > Index)
      std::swap(Base, Index);
    return intern(TBin + static_cast<uint8_t>(Op::Add),
                  static_cast<int64_t>(Base), static_cast<int64_t>(Index));
  }

  /// Membership test-and-set; returns true (quiet) on a repeat.
  bool touch(std::unordered_map<uint32_t, uint32_t> &Set, uint32_t VN) {
    uint32_t &Stamp = Set[VN];
    if (Stamp == Gen)
      return true;
    Stamp = Gen;
    return false;
  }

  struct VNInfo {
    uint8_t Tag;
    int64_t A;
    int64_t B;
    bool Opaque;
  };
  struct CacheEntry {
    uint32_t VN = 0;
    uint32_t Gen = 0;
    uint32_t Epoch = 0;
  };

  Function &F;
  const QuietPassContext &Ctx;
  bool Mutate;

  std::map<std::tuple<uint8_t, int64_t, int64_t>, uint32_t> Interned;
  std::vector<VNInfo> Info;
  /// VN -> known object extent, for values that are exact object bases
  /// (this window's alloc/alloca results, immutable array bases).
  std::unordered_map<uint32_t, uint64_t> ShapeCells;

  std::vector<uint32_t> Stack;
  std::unordered_map<uint32_t, uint32_t> Touched, Written; ///< VN -> gen
  std::unordered_map<int64_t, CacheEntry> LocalCache, GlobalCache;
  uint32_t Gen = 1;
  uint32_t Epoch = 1;
};

QuietMarker::Result QuietMarker::run() {
  Result R;
  std::vector<bool> IsTarget(F.Code.size() + 1, false);
  for (const Instr &I : F.Code)
    if (isJump(I.Opcode))
      IsTarget[static_cast<size_t>(I.A)] = true;

  auto markQuiet = [&](Instr &In, bool Indirect) {
    if (Mutate)
      In.B = 1;
    ++R.Marked;
    if (Indirect)
      ++R.IndirectMarked;
  };

  for (size_t I = 0; I != F.Code.size(); ++I) {
    if (IsTarget[I]) {
      // Control may arrive here from elsewhere with different operand
      // values: keep the stack depth, forget the value identities.
      ++Gen;
      for (uint32_t &VN : Stack)
        VN = opaque();
    }
    Instr &In = F.Code[I];
    switch (In.Opcode) {
    case Op::Nop:
    case Op::BasicBlock:
      break;
    case Op::PushConst:
      Stack.push_back(intern(TConst, In.A));
      break;
    case Op::Pop:
    case Op::JumpIfFalse:
    case Op::JumpIfTrue:
      // Conditional jumps do not break the window: the fall-through
      // path still postdominates the window's earlier accesses.
      pop();
      break;
    case Op::LoadLocal: {
      uint32_t AddrVN = intern(TLAddr, In.A);
      if (touch(Touched, AddrVN))
        markQuiet(In, false);
      CacheEntry &E = LocalCache[In.A];
      if (E.Gen != Gen || E.Epoch != Epoch)
        E = {opaque(), Gen, Epoch};
      Stack.push_back(E.VN);
      break;
    }
    case Op::StoreLocal: {
      uint32_t Value = pop();
      uint32_t AddrVN = intern(TLAddr, In.A);
      if (touch(Written, AddrVN))
        markQuiet(In, false);
      else
        Touched[AddrVN] = Gen;
      LocalCache[In.A] = {Value, Gen, Epoch};
      break;
    }
    case Op::LoadGlobal: {
      uint32_t AddrVN = intern(TGAddr, In.A);
      if (touch(Touched, AddrVN))
        markQuiet(In, false);
      auto ImmIt = Ctx.ImmutableArrayCells.find(In.A);
      if (ImmIt != Ctx.ImmutableArrayCells.end()) {
        // The cell provably holds its loader-installed array base for
        // the whole run: its value is a window-independent constant.
        uint32_t BaseVN = intern(TArrayBase, In.A);
        ShapeCells[BaseVN] = ImmIt->second;
        Stack.push_back(BaseVN);
      } else {
        CacheEntry &E = GlobalCache[In.A];
        if (E.Gen != Gen || E.Epoch != Epoch)
          E = {opaque(), Gen, Epoch};
        Stack.push_back(E.VN);
      }
      break;
    }
    case Op::StoreGlobal: {
      uint32_t Value = pop();
      uint32_t AddrVN = intern(TGAddr, In.A);
      if (touch(Written, AddrVN))
        markQuiet(In, false);
      else
        Touched[AddrVN] = Gen;
      GlobalCache[In.A] = {Value, Gen, Epoch};
      break;
    }
    case Op::LoadIndirect: {
      uint32_t Index = pop();
      uint32_t Base = pop();
      uint32_t AddrVN = addressVN(Base, Index);
      if (touch(Touched, AddrVN))
        markQuiet(In, true);
      Stack.push_back(opaque());
      break;
    }
    case Op::StoreIndirect: {
      uint32_t Value = pop();
      (void)Value;
      uint32_t Index = pop();
      uint32_t Base = pop();
      uint32_t AddrVN = addressVN(Base, Index);
      if (touch(Written, AddrVN))
        markQuiet(In, true);
      else
        Touched[AddrVN] = Gen;

      // Frame safety: may this store clobber a cell whose value is
      // cached (a local slot or named global cell)? Proven safe when
      // the target is inside bounded object storage.
      bool Safe = false;
      int64_t C = 0;
      if (constValue(Index, C) && C >= 0) {
        auto ShapeIt = ShapeCells.find(Base);
        if (ShapeIt != ShapeCells.end() &&
            static_cast<uint64_t>(C) < ShapeIt->second)
          Safe = true;
        if (!Safe && Ctx.PT) {
          const analysis::SiteFacts *Facts =
              Ctx.PT->siteFacts(Ctx.FnIndex, I);
          if (Facts && Facts->PreciseBoundedBase &&
              static_cast<uint64_t>(C) < Facts->MinCells)
            Safe = true;
        }
      }
      if (!Safe) {
        ++R.UnsafeStores;
        ++Epoch; // drop every value cache; memberships survive
      }
      break;
    }
    case Op::AllocaArray: {
      uint32_t Size = pop();
      uint32_t BaseVN = opaque();
      int64_t C = 0;
      // The fresh storage belongs to the *current* frame, so in-window
      // stores through this base cannot touch any cached cell.
      if (constValue(Size, C) && C > 0)
        ShapeCells[BaseVN] = static_cast<uint64_t>(C);
      Stack.push_back(BaseVN);
      break;
    }
    case Op::Add:
    case Op::Mul:
    case Op::Eq:
    case Op::Ne: {
      // Commutative: canonicalize operand order.
      uint32_t Rhs = pop();
      uint32_t Lhs = pop();
      if (Lhs > Rhs)
        std::swap(Lhs, Rhs);
      Stack.push_back(intern(TBin + static_cast<uint8_t>(In.Opcode),
                             static_cast<int64_t>(Lhs),
                             static_cast<int64_t>(Rhs)));
      break;
    }
    case Op::Sub:
    case Op::Div:
    case Op::Mod:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge: {
      uint32_t Rhs = pop();
      uint32_t Lhs = pop();
      Stack.push_back(intern(TBin + static_cast<uint8_t>(In.Opcode),
                             static_cast<int64_t>(Lhs),
                             static_cast<int64_t>(Rhs)));
      break;
    }
    case Op::Neg:
    case Op::Not:
    case Op::ToBool: {
      uint32_t Operand = pop();
      Stack.push_back(intern(TUn + static_cast<uint8_t>(In.Opcode),
                             static_cast<int64_t>(Operand)));
      break;
    }
    case Op::Jump:
    case Op::Return:
      if (In.Opcode == Op::Return)
        pop();
      ++Gen;
      Stack.clear(); // the next instruction is unreachable from here
      break;
    case Op::Call:
    case Op::Spawn: {
      for (int64_t Arg = 0; Arg != In.B; ++Arg)
        pop();
      // The remaining stack entries are caller registers the callee
      // cannot touch: their value identities survive the window break.
      ++Gen;
      Stack.push_back(opaque());
      break;
    }
    case Op::CallBuiltin: {
      std::vector<uint32_t> Args(static_cast<size_t>(In.B));
      for (size_t Arg = Args.size(); Arg-- > 0;)
        Args[Arg] = pop();
      ++Gen;
      uint32_t ResultVN = opaque();
      int64_t C = 0;
      // alloc(N) with a literal N: the result is a bounded heap base —
      // a *value* fact, so it survives the window break just applied.
      if (static_cast<Builtin>(In.A) == Builtin::Alloc && !Args.empty() &&
          constValue(Args[0], C) && C > 0)
        ShapeCells[ResultVN] = static_cast<uint64_t>(C);
      Stack.push_back(ResultVN);
      break;
    }
    }
  }
  return R;
}

} // namespace

OptimizerStats isp::optimizeFunction(Function &F) {
  OptimizerStats Stats = FunctionOptimizer(F).runPeephole();
  // No whole-program context here: conservative quiet pass (window
  // shapes only, no immutable-array or points-to facts).
  QuietPassContext Ctx;
  QuietMarker::Result R = QuietMarker(F, Ctx, /*Mutate=*/true).run();
  Stats.QuietAccessesMarked += R.Marked;
  Stats.QuietIndirectMarked += R.IndirectMarked;
  return Stats;
}

OptimizerStats isp::optimizeProgram(Program &Prog) {
  OptimizerStats Total;
  for (Function &F : Prog.Functions) {
    OptimizerStats S = FunctionOptimizer(F).runPeephole();
    Total.ConstantsFolded += S.ConstantsFolded;
    Total.JumpsThreaded += S.JumpsThreaded;
    Total.BranchesResolved += S.BranchesResolved;
    Total.InstructionsRemoved += S.InstructionsRemoved;
  }

  // Quiet marking runs on the final instruction stream with
  // whole-program alias facts: Andersen points-to for the
  // cache-invalidation refinement, plus the immutable-array-cell
  // fixpoint (see QuietPassContext).
  obs::ScopedTimer MarkTimer(
      obs::statsEnabled()
          ? &obs::Registry::get().counter("analysis.quiet_mark_ns")
          : nullptr);
  analysis::PointsToResult PT = analysis::computePointsTo(Prog);

  bool HasRawStore = false;
  std::unordered_map<int64_t, bool> CellStored;
  for (const Function &F : Prog.Functions) {
    for (const Instr &In : F.Code) {
      if (In.Opcode == Op::CallBuiltin &&
          static_cast<Builtin>(In.A) == Builtin::Store)
        HasRawStore = true;
      if (In.Opcode == Op::StoreGlobal)
        CellStored[In.A] = true;
    }
  }
  QuietPassContext Ctx;
  Ctx.PT = &PT;
  if (!HasRawStore)
    for (const GlobalArrayInfo &Arr : Prog.GlobalArrays)
      if (!CellStored.count(static_cast<int64_t>(Arr.Cell)))
        Ctx.ImmutableArrayCells[static_cast<int64_t>(Arr.Cell)] = Arr.Cells;

  // Probe round: the immutability assumption must be self-consistent —
  // a single store the pass cannot bound may clobber any named cell,
  // including the array base cells themselves.
  if (!Ctx.ImmutableArrayCells.empty()) {
    unsigned Unsafe = 0;
    for (size_t FI = 0; FI != Prog.Functions.size(); ++FI) {
      Ctx.FnIndex = FI;
      Unsafe += QuietMarker(Prog.Functions[FI], Ctx, /*Mutate=*/false)
                    .run()
                    .UnsafeStores;
    }
    if (Unsafe != 0)
      Ctx.ImmutableArrayCells.clear();
  }

  for (size_t FI = 0; FI != Prog.Functions.size(); ++FI) {
    Function &F = Prog.Functions[FI];
    Ctx.FnIndex = FI;
    QuietMarker::Result R = QuietMarker(F, Ctx, /*Mutate=*/true).run();
    Total.QuietAccessesMarked += R.Marked;
    Total.QuietIndirectMarked += R.IndirectMarked;
    // Per-function suppression potential: which routines the quiet-mark
    // pass actually bites on (zero-mark functions are left out of the
    // registry to keep the dump proportional to findings).
    if (R.Marked != 0)
      ISP_STATS(obs::Registry::get()
                    .counter("optimizer.quiet_marked." + F.Name)
                    .add(R.Marked));
  }

  if (ISP_UNLIKELY(obs::statsEnabled())) {
    obs::Registry &R = obs::Registry::get();
    R.counter("optimizer.constants_folded").add(Total.ConstantsFolded);
    R.counter("optimizer.jumps_threaded").add(Total.JumpsThreaded);
    R.counter("optimizer.branches_resolved").add(Total.BranchesResolved);
    R.counter("optimizer.instructions_removed").add(Total.InstructionsRemoved);
    R.counter("optimizer.quiet_accesses_marked").add(Total.QuietAccessesMarked);
    R.counter("analysis.quiet_indirect_marked").add(Total.QuietIndirectMarked);
  }
  return Total;
}
