//===- vm/Compiler.cpp - Guest AST -> bytecode compiler ----------------------===//
//
// Part of the isprof project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "support/Compiler.h"
#include "support/Format.h"
#include "vm/Parser.h"

#include <cassert>
#include <map>
#include <unordered_map>

using namespace isp;

bool isp::lookupBuiltin(const std::string &Name, Builtin &Out,
                        unsigned &Arity) {
  static const struct {
    const char *Name;
    Builtin Id;
    unsigned Arity;
  } Table[] = {
      {"print", Builtin::Print, 1},
      {"alloc", Builtin::Alloc, 1},
      {"free", Builtin::Free, 1},
      {"sysread", Builtin::SysRead, 3},
      {"syswrite", Builtin::SysWrite, 3},
      {"sem_create", Builtin::SemCreate, 1},
      {"sem_wait", Builtin::SemWait, 1},
      {"sem_post", Builtin::SemPost, 1},
      {"lock_create", Builtin::LockCreate, 0},
      {"lock_acquire", Builtin::LockAcquire, 1},
      {"lock_release", Builtin::LockRelease, 1},
      {"join", Builtin::Join, 1},
      {"rand", Builtin::Rand, 1},
      {"yield", Builtin::Yield, 0},
      {"load", Builtin::Load, 1},
      {"store", Builtin::Store, 2},
      {"thread_id", Builtin::ThreadId, 0},
  };
  for (const auto &Entry : Table) {
    if (Name == Entry.Name) {
      Out = Entry.Id;
      Arity = Entry.Arity;
      return true;
    }
  }
  return false;
}

int isp::builtinArity(int64_t B) {
  static const int Arities[] = {
      /*Print*/ 1,      /*Alloc*/ 1,      /*Free*/ 1,     /*SysRead*/ 3,
      /*SysWrite*/ 3,   /*SemCreate*/ 1,  /*SemWait*/ 1,  /*SemPost*/ 1,
      /*LockCreate*/ 0, /*LockAcquire*/ 1, /*LockRelease*/ 1,
      /*Join*/ 1,       /*Rand*/ 1,       /*Yield*/ 0,    /*Load*/ 1,
      /*Store*/ 2,      /*ThreadId*/ 0};
  static_assert(sizeof(Arities) / sizeof(Arities[0]) == NumBuiltins,
                "arity table out of sync with Builtin enum");
  if (B < 0 || B >= static_cast<int64_t>(NumBuiltins))
    return -1;
  return Arities[B];
}

namespace {

/// Global variable layout info.
struct GlobalInfo {
  Addr Address = 0; ///< address of the variable cell itself
  bool IsArray = false;
};

/// Compiles one module. Functions are pre-registered so forward calls
/// resolve; each function body is compiled with a block-scoped local
/// environment where every declaration receives a fresh frame slot.
class Compiler {
public:
  Compiler(const Module &M, DiagnosticEngine &Diags) : M(M), Diags(Diags) {}

  std::optional<Program> compile();

private:
  // Code emission helpers (current function).
  size_t emit(Op Opcode, int64_t A = 0, int64_t B = 0) {
    Current->Code.push_back({Opcode, A, B});
    return Current->Code.size() - 1;
  }
  size_t emitJumpPlaceholder(Op Opcode) { return emit(Opcode, -1); }
  void patchJump(size_t Index) {
    Current->Code[Index].A = static_cast<int64_t>(Current->Code.size());
  }
  void error(SourceLoc Loc, std::string Message) {
    Diags.error(Loc.Line, Loc.Column, std::move(Message));
  }

  // Scope management.
  void pushScope() { ScopeSizes.push_back(0); }
  void popScope() {
    for (unsigned I = 0; I != ScopeSizes.back(); ++I)
      ScopeStack.pop_back();
    ScopeSizes.pop_back();
  }
  int declareLocal(const std::string &Name, SourceLoc Loc);
  /// Returns the slot of \p Name, or -1 if it is not a local in scope.
  int lookupLocal(const std::string &Name) const;

  void compileFunction(const FunctionDecl &Decl, Function &F);
  void compileStmt(const Stmt &S);
  void compileExpr(const Expr &E);
  void compileCondition(const Expr *E, SourceLoc Loc);
  /// Emits the load of variable \p Name (local slot or global address).
  void compileVarLoad(const std::string &Name, SourceLoc Loc);
  void compileVarStore(const std::string &Name, SourceLoc Loc);
  unsigned compileArgs(const std::vector<ExprPtr> &Args);

  /// Jump fix-up lists for the innermost enclosing loops.
  struct LoopContext {
    std::vector<size_t> BreakJumps;
    std::vector<size_t> ContinueJumps;
  };

  const Module &M;
  DiagnosticEngine &Diags;
  Program Prog;
  std::vector<LoopContext> Loops;
  Function *Current = nullptr;
  std::unordered_map<std::string, GlobalInfo> Globals;
  std::unordered_map<std::string, size_t> FunctionIndex;
  /// Innermost-last (name, slot) stack for block-scoped lookup.
  std::vector<std::pair<std::string, int>> ScopeStack;
  std::vector<unsigned> ScopeSizes;
};

} // namespace

int Compiler::declareLocal(const std::string &Name, SourceLoc Loc) {
  // Shadowing outer scopes is allowed; redeclaration in the same scope
  // is an error.
  unsigned InCurrentScope = ScopeSizes.back();
  for (size_t I = ScopeStack.size(); InCurrentScope > 0;
       --I, --InCurrentScope) {
    if (ScopeStack[I - 1].first == Name) {
      error(Loc, formatString("redeclaration of '%s'", Name.c_str()));
      return ScopeStack[I - 1].second;
    }
  }
  int Slot = static_cast<int>(Current->NumLocals++);
  ScopeStack.emplace_back(Name, Slot);
  ++ScopeSizes.back();
  return Slot;
}

int Compiler::lookupLocal(const std::string &Name) const {
  for (auto It = ScopeStack.rbegin(); It != ScopeStack.rend(); ++It)
    if (It->first == Name)
      return It->second;
  return -1;
}

std::optional<Program> Compiler::compile() {
  // Pass 1a: lay out globals. Variable cells first, then array storage,
  // so scalar globals are densely packed.
  Addr NextAddr = GlobalBase;
  for (const GlobalDecl &G : M.Globals) {
    if (Globals.count(G.Name)) {
      error(G.Loc, formatString("redeclaration of global '%s'",
                                G.Name.c_str()));
      continue;
    }
    Globals[G.Name] = {NextAddr, G.IsArray};
    ++NextAddr;
  }
  for (const GlobalDecl &G : M.Globals) {
    auto It = Globals.find(G.Name);
    if (It == Globals.end())
      continue;
    if (G.IsArray) {
      // Globals live below the heap: an array that would reach HeapBase
      // has no addressable cells past it.
      if (NextAddr > HeapBase || G.ArraySize > HeapBase - NextAddr) {
        error(G.Loc,
              formatString("global array '%s' of %llu cells does not fit "
                           "in the %llu-cell globals region",
                           G.Name.c_str(),
                           static_cast<unsigned long long>(G.ArraySize),
                           static_cast<unsigned long long>(HeapBase -
                                                           GlobalBase)));
        continue;
      }
      // The variable cell holds the array's base address.
      Prog.GlobalInits.push_back(
          {It->second.Address, static_cast<int64_t>(NextAddr)});
      Prog.GlobalArrays.push_back(
          {G.Name, It->second.Address, NextAddr, G.ArraySize});
      NextAddr += G.ArraySize;
    } else {
      Prog.GlobalVars.push_back({G.Name, It->second.Address});
      if (G.InitValue != 0)
        Prog.GlobalInits.push_back({It->second.Address, G.InitValue});
    }
  }
  Prog.GlobalCells = NextAddr - GlobalBase;

  // Pass 1b: register functions (forward references allowed).
  for (const auto &FnDecl : M.Functions) {
    if (FunctionIndex.count(FnDecl->Name)) {
      error(FnDecl->Loc, formatString("redefinition of function '%s'",
                                      FnDecl->Name.c_str()));
      continue;
    }
    Builtin B;
    unsigned Arity;
    if (lookupBuiltin(FnDecl->Name, B, Arity)) {
      error(FnDecl->Loc,
            formatString("'%s' is a builtin and cannot be redefined",
                         FnDecl->Name.c_str()));
      continue;
    }
    Function F;
    F.Name = FnDecl->Name;
    F.Id = Prog.Symbols.intern(FnDecl->Name);
    F.NumParams = static_cast<unsigned>(FnDecl->Params.size());
    FunctionIndex[FnDecl->Name] = Prog.Functions.size();
    Prog.Functions.push_back(std::move(F));
  }

  // Pass 2: compile bodies.
  for (const auto &FnDecl : M.Functions) {
    auto It = FunctionIndex.find(FnDecl->Name);
    if (It == FunctionIndex.end())
      continue;
    compileFunction(*FnDecl, Prog.Functions[It->second]);
  }

  auto EntryIt = FunctionIndex.find("main");
  if (EntryIt == FunctionIndex.end()) {
    Diags.error(1, 1, "program has no 'main' function");
    return std::nullopt;
  }
  if (Prog.Functions[EntryIt->second].NumParams != 0)
    Diags.error(1, 1, "'main' must take no parameters");
  Prog.EntryIndex = EntryIt->second;

  if (Diags.hasErrors())
    return std::nullopt;
  return std::move(Prog);
}

void Compiler::compileFunction(const FunctionDecl &Decl, Function &F) {
  Current = &F;
  ScopeStack.clear();
  ScopeSizes.clear();
  Loops.clear();
  pushScope();
  for (const std::string &Param : Decl.Params)
    declareLocal(Param, Decl.Loc);

  emit(Op::BasicBlock); // function entry block
  compileStmt(*Decl.Body);

  // Implicit "return 0;" so execution never falls off the end.
  emit(Op::PushConst, 0);
  emit(Op::Return);
  popScope();
  Current = nullptr;
}

void Compiler::compileVarLoad(const std::string &Name, SourceLoc Loc) {
  int Slot = lookupLocal(Name);
  if (Slot >= 0) {
    emit(Op::LoadLocal, Slot);
    return;
  }
  auto It = Globals.find(Name);
  if (It != Globals.end()) {
    emit(Op::LoadGlobal, static_cast<int64_t>(It->second.Address));
    return;
  }
  error(Loc, formatString("use of undeclared variable '%s'", Name.c_str()));
  emit(Op::PushConst, 0);
}

void Compiler::compileVarStore(const std::string &Name, SourceLoc Loc) {
  int Slot = lookupLocal(Name);
  if (Slot >= 0) {
    emit(Op::StoreLocal, Slot);
    return;
  }
  auto It = Globals.find(Name);
  if (It != Globals.end()) {
    emit(Op::StoreGlobal, static_cast<int64_t>(It->second.Address));
    return;
  }
  error(Loc, formatString("assignment to undeclared variable '%s'",
                          Name.c_str()));
  emit(Op::Pop);
}

void Compiler::compileCondition(const Expr *E, SourceLoc Loc) {
  if (!E) {
    error(Loc, "missing condition expression");
    emit(Op::PushConst, 0);
    return;
  }
  compileExpr(*E);
}

unsigned Compiler::compileArgs(const std::vector<ExprPtr> &Args) {
  for (const ExprPtr &Arg : Args) {
    if (Arg)
      compileExpr(*Arg);
    else
      emit(Op::PushConst, 0);
  }
  return static_cast<unsigned>(Args.size());
}

void Compiler::compileExpr(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::IntLiteral:
    emit(Op::PushConst, static_cast<const IntLiteralExpr &>(E).Value);
    return;

  case ExprKind::VarRef: {
    const auto &Ref = static_cast<const VarRefExpr &>(E);
    compileVarLoad(Ref.Name, Ref.Loc);
    return;
  }

  case ExprKind::Index: {
    const auto &Index = static_cast<const IndexExpr &>(E);
    compileVarLoad(Index.Base, Index.Loc);
    if (Index.Index)
      compileExpr(*Index.Index);
    else
      emit(Op::PushConst, 0);
    emit(Op::LoadIndirect);
    return;
  }

  case ExprKind::Unary: {
    const auto &Unary = static_cast<const UnaryExpr &>(E);
    if (Unary.Operand)
      compileExpr(*Unary.Operand);
    else
      emit(Op::PushConst, 0);
    emit(Unary.Op == UnaryOp::Neg ? Op::Neg : Op::Not);
    return;
  }

  case ExprKind::Binary: {
    const auto &Binary = static_cast<const BinaryExpr &>(E);
    if (Binary.Op == BinaryOp::LogicalAnd ||
        Binary.Op == BinaryOp::LogicalOr) {
      // Short-circuit, producing a normalized 0/1 value.
      bool IsAnd = Binary.Op == BinaryOp::LogicalAnd;
      if (Binary.Lhs)
        compileExpr(*Binary.Lhs);
      else
        emit(Op::PushConst, 0);
      size_t ShortCircuit =
          emitJumpPlaceholder(IsAnd ? Op::JumpIfFalse : Op::JumpIfTrue);
      if (Binary.Rhs)
        compileExpr(*Binary.Rhs);
      else
        emit(Op::PushConst, 0);
      emit(Op::ToBool);
      size_t Done = emitJumpPlaceholder(Op::Jump);
      patchJump(ShortCircuit);
      emit(Op::PushConst, IsAnd ? 0 : 1);
      patchJump(Done);
      return;
    }
    if (Binary.Lhs)
      compileExpr(*Binary.Lhs);
    else
      emit(Op::PushConst, 0);
    if (Binary.Rhs)
      compileExpr(*Binary.Rhs);
    else
      emit(Op::PushConst, 0);
    switch (Binary.Op) {
    case BinaryOp::Add:
      emit(Op::Add);
      return;
    case BinaryOp::Sub:
      emit(Op::Sub);
      return;
    case BinaryOp::Mul:
      emit(Op::Mul);
      return;
    case BinaryOp::Div:
      emit(Op::Div);
      return;
    case BinaryOp::Mod:
      emit(Op::Mod);
      return;
    case BinaryOp::Lt:
      emit(Op::Lt);
      return;
    case BinaryOp::Le:
      emit(Op::Le);
      return;
    case BinaryOp::Gt:
      emit(Op::Gt);
      return;
    case BinaryOp::Ge:
      emit(Op::Ge);
      return;
    case BinaryOp::Eq:
      emit(Op::Eq);
      return;
    case BinaryOp::Ne:
      emit(Op::Ne);
      return;
    case BinaryOp::LogicalAnd:
    case BinaryOp::LogicalOr:
      break;
    }
    ISP_UNREACHABLE("logical ops handled above");
  }

  case ExprKind::Call: {
    const auto &Call = static_cast<const CallExpr &>(E);
    auto FnIt = FunctionIndex.find(Call.Callee);
    if (FnIt != FunctionIndex.end()) {
      const Function &Callee = Prog.Functions[FnIt->second];
      if (Call.Args.size() != Callee.NumParams)
        error(Call.Loc,
              formatString("'%s' expects %u argument(s), got %zu",
                           Call.Callee.c_str(), Callee.NumParams,
                           Call.Args.size()));
      unsigned NumArgs = compileArgs(Call.Args);
      emit(Op::Call, static_cast<int64_t>(FnIt->second), NumArgs);
      return;
    }
    Builtin B;
    unsigned Arity;
    if (lookupBuiltin(Call.Callee, B, Arity)) {
      if (Call.Args.size() != Arity)
        error(Call.Loc,
              formatString("builtin '%s' expects %u argument(s), got %zu",
                           Call.Callee.c_str(), Arity, Call.Args.size()));
      unsigned NumArgs = compileArgs(Call.Args);
      emit(Op::CallBuiltin, static_cast<int64_t>(B), NumArgs);
      return;
    }
    error(Call.Loc,
          formatString("call to undeclared function '%s'",
                       Call.Callee.c_str()));
    emit(Op::PushConst, 0);
    return;
  }

  case ExprKind::Spawn: {
    const auto &Spawn = static_cast<const SpawnExpr &>(E);
    auto FnIt = FunctionIndex.find(Spawn.Callee);
    if (FnIt == FunctionIndex.end()) {
      error(Spawn.Loc, formatString("spawn of undeclared function '%s'",
                                    Spawn.Callee.c_str()));
      emit(Op::PushConst, 0);
      return;
    }
    const Function &Callee = Prog.Functions[FnIt->second];
    if (Spawn.Args.size() != Callee.NumParams)
      error(Spawn.Loc,
            formatString("'%s' expects %u argument(s), got %zu",
                         Spawn.Callee.c_str(), Callee.NumParams,
                         Spawn.Args.size()));
    unsigned NumArgs = compileArgs(Spawn.Args);
    emit(Op::Spawn, static_cast<int64_t>(FnIt->second), NumArgs);
    return;
  }
  }
  ISP_UNREACHABLE("unknown expression kind");
}

void Compiler::compileStmt(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Block: {
    const auto &Block = static_cast<const BlockStmt &>(S);
    pushScope();
    for (const StmtPtr &Child : Block.Body)
      if (Child)
        compileStmt(*Child);
    popScope();
    return;
  }

  case StmtKind::VarDecl: {
    const auto &Decl = static_cast<const VarDeclStmt &>(S);
    if (Decl.ArraySize) {
      compileExpr(*Decl.ArraySize);
      int Slot = declareLocal(Decl.Name, Decl.Loc);
      emit(Op::AllocaArray);
      emit(Op::StoreLocal, Slot);
      return;
    }
    if (Decl.Init) {
      compileExpr(*Decl.Init);
      int Slot = declareLocal(Decl.Name, Decl.Loc);
      emit(Op::StoreLocal, Slot);
      return;
    }
    // Uninitialized scalar: reserve the slot; the cell keeps whatever
    // the stack memory held (observable by the memcheck tool).
    declareLocal(Decl.Name, Decl.Loc);
    return;
  }

  case StmtKind::Assign: {
    const auto &Assign = static_cast<const AssignStmt &>(S);
    if (Assign.Value)
      compileExpr(*Assign.Value);
    else
      emit(Op::PushConst, 0);
    compileVarStore(Assign.Name, Assign.Loc);
    return;
  }

  case StmtKind::IndexAssign: {
    const auto &Assign = static_cast<const IndexAssignStmt &>(S);
    compileVarLoad(Assign.Base, Assign.Loc);
    if (Assign.Index)
      compileExpr(*Assign.Index);
    else
      emit(Op::PushConst, 0);
    if (Assign.Value)
      compileExpr(*Assign.Value);
    else
      emit(Op::PushConst, 0);
    emit(Op::StoreIndirect);
    return;
  }

  case StmtKind::If: {
    const auto &If = static_cast<const IfStmt &>(S);
    compileCondition(If.Condition.get(), If.Loc);
    size_t ElseJump = emitJumpPlaceholder(Op::JumpIfFalse);
    emit(Op::BasicBlock); // then block
    if (If.Then)
      compileStmt(*If.Then);
    if (If.Else) {
      size_t EndJump = emitJumpPlaceholder(Op::Jump);
      patchJump(ElseJump);
      emit(Op::BasicBlock); // else block
      compileStmt(*If.Else);
      patchJump(EndJump);
    } else {
      patchJump(ElseJump);
    }
    emit(Op::BasicBlock); // merge block
    return;
  }

  case StmtKind::While: {
    const auto &While = static_cast<const WhileStmt &>(S);
    size_t LoopHead = Current->Code.size();
    emit(Op::BasicBlock); // loop header (condition re-evaluation)
    compileCondition(While.Condition.get(), While.Loc);
    size_t ExitJump = emitJumpPlaceholder(Op::JumpIfFalse);
    Loops.emplace_back();
    if (While.Body)
      compileStmt(*While.Body);
    LoopContext Ctx = std::move(Loops.back());
    Loops.pop_back();
    for (size_t Jump : Ctx.ContinueJumps)
      Current->Code[Jump].A = static_cast<int64_t>(LoopHead);
    emit(Op::Jump, static_cast<int64_t>(LoopHead));
    patchJump(ExitJump);
    for (size_t Jump : Ctx.BreakJumps)
      patchJump(Jump);
    emit(Op::BasicBlock); // loop exit
    return;
  }

  case StmtKind::For: {
    const auto &For = static_cast<const ForStmt &>(S);
    pushScope(); // the init clause's declaration scopes over the loop
    if (For.Init)
      compileStmt(*For.Init);
    size_t LoopHead = Current->Code.size();
    emit(Op::BasicBlock); // loop header
    size_t ExitJump = SIZE_MAX;
    if (For.Condition) {
      compileExpr(*For.Condition);
      ExitJump = emitJumpPlaceholder(Op::JumpIfFalse);
    }
    Loops.emplace_back();
    if (For.Body)
      compileStmt(*For.Body);
    LoopContext Ctx = std::move(Loops.back());
    Loops.pop_back();
    // "continue" runs the step clause before re-testing the condition.
    size_t StepPc = Current->Code.size();
    for (size_t Jump : Ctx.ContinueJumps)
      Current->Code[Jump].A = static_cast<int64_t>(StepPc);
    if (For.Step)
      compileStmt(*For.Step);
    emit(Op::Jump, static_cast<int64_t>(LoopHead));
    if (ExitJump != SIZE_MAX)
      patchJump(ExitJump);
    for (size_t Jump : Ctx.BreakJumps)
      patchJump(Jump);
    emit(Op::BasicBlock); // loop exit
    popScope();
    return;
  }

  case StmtKind::Break: {
    if (Loops.empty()) {
      error(S.Loc, "'break' outside of a loop");
      return;
    }
    Loops.back().BreakJumps.push_back(emitJumpPlaceholder(Op::Jump));
    return;
  }

  case StmtKind::Continue: {
    if (Loops.empty()) {
      error(S.Loc, "'continue' outside of a loop");
      return;
    }
    Loops.back().ContinueJumps.push_back(emitJumpPlaceholder(Op::Jump));
    return;
  }

  case StmtKind::Return: {
    const auto &Return = static_cast<const ReturnStmt &>(S);
    if (Return.Value)
      compileExpr(*Return.Value);
    else
      emit(Op::PushConst, 0);
    emit(Op::Return);
    return;
  }

  case StmtKind::ExprStmt: {
    const auto &E = static_cast<const ExprStmt &>(S);
    if (E.E) {
      compileExpr(*E.E);
      emit(Op::Pop);
    }
    return;
  }
  }
  ISP_UNREACHABLE("unknown statement kind");
}

std::optional<Program> isp::compileModule(const Module &M,
                                          DiagnosticEngine &Diags) {
  Compiler C(M, Diags);
  return C.compile();
}

std::optional<Program> isp::compileProgram(const std::string &Source,
                                           DiagnosticEngine &Diags) {
  Module M = parseSource(Source, Diags);
  if (Diags.hasErrors())
    return std::nullopt;
  return compileModule(M, Diags);
}
