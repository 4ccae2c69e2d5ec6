//===- Compiler.cpp - AST -> register bytecode ----------------------------===//
//
// Translates a storage-slotted pascal::Program into the flat register form
// of Bytecode.h. The hard requirement is *event order*: every cell
// read/write, dependence merge, unit event and step must happen in source
// evaluation order. Two rules carry that burden:
//
//  1. Code for subexpressions is emitted in evaluation order (left before
//     right, value before index in assignments, bounds before body in for
//     loops).
//
//  2. A cell operand may only be fused into a consuming instruction when no
//     code runs between the variable's read point and the instruction.
//     Concretely: for a binary node, if the right operand's expression
//     emits instructions, the left operand is first materialized into a
//     register (Op::Load performs its read at the correct point); purely
//     operand-shaped right-hand sides (registers, cells, constants) fetch
//     inside the consuming instruction, in left-to-right order.
//
// Gotos compile to Op::Goto plus one LabelInfo per labeled statement that
// is an immediate child of a compound statement: the VM resolves a goto by
// scope at run time, because a non-local goto lands wherever the target
// activation happens to be suspended.
//
// A program that overflows an encoding limit or lacks Sema annotations is
// rejected as a whole; the interpreter reports it as a runtime error.
//
// Nothing rewrites the emitted code afterwards: the VM executes it as is.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"

#include "pascal/ASTMatch.h"
#include "support/Casting.h"

#include <map>
#include <unordered_map>

using namespace gadt;
using namespace gadt::bytecode;
using namespace gadt::pascal;

size_t CompiledProgram::memoryBytes() const {
  size_t Bytes = sizeof(CompiledProgram);
  for (const CompiledRoutine &R : Routines)
    Bytes += sizeof(CompiledRoutine) + R.Code.size() * sizeof(Instr) +
             R.Labels.size() * sizeof(LabelInfo);
  Bytes += Consts.size() * sizeof(interp::Value);
  Bytes += WideCells.size() * sizeof(WideCell);
  Bytes += Sites.size() * sizeof(CallSiteInfo);
  Bytes += ArgPool.size() * sizeof(ArgDesc);
  Bytes += Loops.size() * sizeof(LoopInfo);
  for (const DebugInfo &D : Debug)
    Bytes += sizeof(DebugInfo) + D.Name.size();
  Bytes += Segments.size() * sizeof(RoutineSegment);
  Bytes += DebugSources.size() * sizeof(DebugSrc);
  return Bytes;
}

namespace {

/// A compile-time operand: the encoded 16-bit field plus whether producing
/// it emitted instructions (register results do; fused cells/consts don't).
struct COperand {
  uint16_t Enc = 0;
  bool IsReg = false;
};

/// The opcode computing \p BO; \p IsBool selects the boolean forms of `=`
/// and `<>`.
Op binaryOpcode(BinaryOp BO, bool IsBool) {
  switch (BO) {
  case BinaryOp::Add: return Op::Add;
  case BinaryOp::Sub: return Op::Sub;
  case BinaryOp::Mul: return Op::Mul;
  case BinaryOp::Div: return Op::DivOp;
  case BinaryOp::Mod: return Op::ModOp;
  case BinaryOp::Eq: return IsBool ? Op::EqB : Op::EqI;
  case BinaryOp::Ne: return IsBool ? Op::NeB : Op::NeI;
  case BinaryOp::Lt: return Op::Lt;
  case BinaryOp::Le: return Op::Le;
  case BinaryOp::Gt: return Op::Gt;
  case BinaryOp::Ge: return Op::Ge;
  case BinaryOp::And: return Op::AndB;
  case BinaryOp::Or: return Op::OrB;
  }
  return Op::Add; // unreachable: the switch names every operator
}

class Compiler {
public:
  Compiler(const Program &P, bool Checked,
           const CodeReusePlan *Reuse = nullptr)
      : Prog(P), Checked(Checked), Reuse(Reuse) {}

  /// True when a reuse plan was supplied but could not be applied; the
  /// caller restarts with a plain full compile.
  bool replayFailed() const { return ReplayFail; }
  unsigned replayedCount() const { return Replayed; }

  std::shared_ptr<const CompiledProgram> run(std::string *WhyNot) {
    auto CP = std::make_shared<CompiledProgram>();
    Out = CP.get();
    Out->Prog = &Prog;
    Out->Checked = Checked;
    if (!Prog.areSlotsAssigned())
      bail("program has no storage slots");
    // Pre-size the hash tables: incremental rehashing shows up in compile
    // profiles, and compile latency is a cold session's start-up cost.
    RoutineIdx.reserve(64);
    ScalarConsts.reserve(64);
    indexRoutines(Prog.getMain());
    bool UsePlan = Reuse != nullptr;
    if (UsePlan && !planUsable()) {
      UsePlan = false;
      ReplayFail = true; // surfaced as a fallback; full compile proceeds
    }
    for (size_t I = 0; I != RoutineList.size() && Ok; ++I) {
      if (UsePlan && Reuse->Replay[I]) {
        if (replayRoutine(I)) {
          ++Replayed;
          continue;
        }
        // A mid-routine replay failure leaves partially appended side
        // tables behind; abort and let the caller restart from scratch.
        ReplayFail = true;
        if (WhyNot && !Why.empty())
          *WhyNot = Why;
        return nullptr;
      }
      compileRoutine(I);
    }
    if (!Ok) {
      if (WhyNot)
        *WhyNot = Why;
      return nullptr;
    }
    return CP;
  }

private:
  const Program &Prog;
  bool Checked;
  const CodeReusePlan *Reuse = nullptr;
  CompiledProgram *Out = nullptr;

  /// Per-compile symbol-id cache: interning goes through the process-wide
  /// pool's shared lock and string hash; a compile re-interns the same
  /// parameter and loop-unit names once per call site / loop, so one local
  /// probe per repeat kills that traffic.
  std::unordered_map<std::string, support::Symbol> SymCache;
  support::Symbol internSym(const std::string &S) {
    auto It = SymCache.find(S);
    if (It != SymCache.end())
      return It->second;
    support::Symbol Sym(S);
    SymCache.emplace(S, Sym);
    return Sym;
  }

  bool Ok = true;
  bool ReplayFail = false;
  unsigned Replayed = 0;
  std::string Why;

  std::vector<const RoutineDecl *> RoutineList;
  std::unordered_map<const RoutineDecl *, uint32_t> RoutineIdx;

  // Per-routine compile state.
  const RoutineDecl *Cur = nullptr;
  std::vector<Instr> Code;
  uint16_t RegTop = 0;
  uint32_t NumRegs = 0;
  std::vector<LabelInfo> Labels;
  /// Loops open and control-dependence pushes outstanding at the current
  /// emission point — what a goto landing here must unwind down to.
  uint16_t LoopDepth = 0;
  uint16_t CtrlDepth = 0;

  // Constant pools with dedup. The debug table is append-only: a dedup map
  // keyed on (loc, name) costs more at compile time than the duplicate
  // entries cost in memory, and compile latency is what a cold Interpreter
  // construction pays before its first run.
  std::unordered_map<uint64_t, uint16_t> ScalarConsts;
  std::map<std::string, uint16_t> StrConsts;
  std::unordered_map<uint64_t, uint16_t> WideIdx; ///< (hops, slot) -> index
  /// Staging area for call-site argument descriptors. Nested calls in
  /// argument position stage and flush in strict stack discipline, so one
  /// shared vector (saved/restored by high-water mark) replaces a heap
  /// allocation per call site.
  std::vector<ArgDesc> ArgScratch;

  void bail(std::string Reason) {
    if (Ok) {
      Ok = false;
      Why = std::move(Reason);
    }
  }

  void indexRoutines(const RoutineDecl *R) {
    RoutineIdx[R] = static_cast<uint32_t>(RoutineList.size());
    RoutineList.push_back(R);
    for (const auto &N : R->getNested())
      indexRoutines(N.get());
  }

  //===------------------------------------------------------------------===//
  // Emission helpers
  //===------------------------------------------------------------------===//

  uint32_t emit(Op O, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
                uint32_t Aux = 0) {
    Code.push_back({O, A, B, C, Aux});
    return static_cast<uint32_t>(Code.size() - 1);
  }

  uint32_t here() const { return static_cast<uint32_t>(Code.size()); }
  void patch(uint32_t At, uint32_t Target) { Code[At].Aux = Target; }

  uint16_t allocReg() {
    if (RegTop > MaxRegOrConst) {
      bail("register file overflow");
      return 0;
    }
    uint16_t R = RegTop++;
    if (RegTop > NumRegs)
      NumRegs = RegTop;
    return R;
  }

  /// \p S / \p E record which AST node the row's location came from, so an
  /// incremental replay can refresh it after lines shift.
  uint32_t dbg(SourceLoc Loc, std::string Name = "", bool InRead = false,
               const Stmt *S = nullptr, const Expr *E = nullptr) {
    uint32_t Idx = static_cast<uint32_t>(Out->Debug.size());
    Out->Debug.push_back({Loc, std::move(Name), InRead});
    Out->DebugSources.push_back({S, E});
    return Idx;
  }

  /// KindTag 0 = integer, 1 = boolean. The pooled Value is only built on a
  /// dedup miss — literals repeat, and Value construction is not free. The
  /// dedup key packs (payload, tag) injectively into 64 bits (tag is one
  /// bit wide; the shift wraps, which is fine for a hash-map key).
  uint16_t constIdx(int KindTag, int64_t Payload) {
    uint64_t Key = (static_cast<uint64_t>(Payload) << 1) |
                   static_cast<uint64_t>(KindTag);
    auto It = ScalarConsts.find(Key);
    if (It != ScalarConsts.end())
      return It->second;
    if (Out->Consts.size() > MaxRegOrConst) {
      bail("constant pool overflow");
      return 0;
    }
    uint16_t Idx = static_cast<uint16_t>(Out->Consts.size());
    Out->Consts.push_back(KindTag == 0 ? interp::Value::makeInt(Payload)
                                       : interp::Value::makeBool(Payload != 0));
    ScalarConsts.emplace(Key, Idx);
    return Idx;
  }

  uint16_t strConstIdx(const std::string &S) {
    auto It = StrConsts.find(S);
    if (It != StrConsts.end())
      return It->second;
    if (Out->Consts.size() > MaxRegOrConst) {
      bail("constant pool overflow");
      return 0;
    }
    uint16_t Idx = static_cast<uint16_t>(Out->Consts.size());
    Out->Consts.push_back(interp::Value::makeStr(S));
    StrConsts.emplace(S, Idx);
    return Idx;
  }

  /// Encodes direct frame addressing for \p D from the current routine;
  /// cells beyond the narrow form's reach get a WideCells row.
  uint16_t cellOperand(const VarDecl *D) {
    uint32_t Hops = Cur->getStorageDepth() - D->getDepth();
    if (Hops <= MaxCellHops && D->getSlot() <= MaxSlot)
      return makeCellOperand(Hops, D->getSlot());
    uint64_t Key = static_cast<uint64_t>(Hops) << 32 | D->getSlot();
    auto It = WideIdx.find(Key);
    if (It != WideIdx.end())
      return OpWide | It->second;
    if (Out->WideCells.size() > MaxRegOrConst) {
      bail("wide cell table overflow");
      return 0;
    }
    uint16_t Idx = static_cast<uint16_t>(Out->WideCells.size());
    Out->WideCells.push_back({Hops, D->getSlot()});
    WideIdx.emplace(Key, Idx);
    return OpWide | Idx;
  }

  //===------------------------------------------------------------------===//
  // Expression compilation
  //===------------------------------------------------------------------===//

  /// Whether compiling \p E will emit instructions (as opposed to reducing
  /// to a fused cell/const operand). Drives operand-order materialization.
  bool emitsCode(const Expr *E) const {
    switch (E->getKind()) {
    case Expr::Kind::IntLiteral:
    case Expr::Kind::BoolLiteral:
    case Expr::Kind::StringLiteral:
      return false;
    case Expr::Kind::VarRef:
      return Checked; // checked loads are explicit instructions
    default:
      return true;
    }
  }

  /// Forces \p O into a register (no-op when it already is one). For cell
  /// operands this emits the read at the current code position.
  COperand materialize(COperand O, SourceLoc Loc, const std::string &Name) {
    if (O.IsReg)
      return O;
    uint16_t R = allocReg();
    (void)Loc;
    (void)Name;
    emit(Op::Load, R, O.Enc);
    return {makeRegOperand(R), true};
  }

  /// Compiles \p E; the result is a fused operand or a register. Registers
  /// are stack-allocated: the caller is responsible for restoring RegTop
  /// once the consumers have been emitted.
  COperand compileExpr(const Expr *E) {
    if (!Ok)
      return {};
    switch (E->getKind()) {
    case Expr::Kind::IntLiteral:
      return {makeConstOperand(
                  constIdx(0, cast<IntLiteralExpr>(E)->getValue())),
              false};
    case Expr::Kind::BoolLiteral:
      return {makeConstOperand(
                  constIdx(1, cast<BoolLiteralExpr>(E)->getValue() ? 1 : 0)),
              false};
    case Expr::Kind::StringLiteral:
      return {makeConstOperand(
                  strConstIdx(cast<StringLiteralExpr>(E)->getValue())),
              false};

    case Expr::Kind::VarRef: {
      const auto *VR = cast<VarRefExpr>(E);
      uint16_t Cell = cellOperand(VR->getDecl());
      if (!Ok)
        return {};
      if (!Checked)
        return {Cell, false};
      // Strict mode: the read is an explicit, checked instruction.
      uint16_t R = allocReg();
      emit(Op::LoadChecked, R, Cell, 0,
           dbg(VR->getLoc(), VR->getName(), false, nullptr, VR));
      return {makeRegOperand(R), true};
    }

    case Expr::Kind::Index: {
      const auto *IE = cast<IndexExpr>(E);
      const auto *BaseRef = cast<VarRefExpr>(IE->getBase());
      uint16_t Base = cellOperand(BaseRef->getDecl());
      if (!Ok)
        return {};
      COperand Idx = compileExpr(IE->getIndex());
      if (!Ok)
        return {};
      uint16_t R = Idx.IsReg ? static_cast<uint16_t>(Idx.Enc & ~OpModeMask)
                             : allocReg();
      emit(Op::LoadIdx, R, Base, Idx.Enc,
           dbg(IE->getLoc(), BaseRef->getName(), false, nullptr, IE));
      return {makeRegOperand(R), true};
    }

    case Expr::Kind::ArrayLiteral: {
      const auto *AL = cast<ArrayLiteralExpr>(E);
      if (AL->getElements().size() > MaxRegOrConst) {
        bail("array literal too long");
        return {};
      }
      uint16_t Base = RegTop;
      for (const ExprPtr &Elem : AL->getElements()) {
        uint16_t Slot = RegTop;
        COperand O = compileExpr(Elem.get());
        if (!Ok)
          return {};
        forceIntoReg(O, Slot);
      }
      RegTop = Base;
      uint16_t R = allocReg();
      emit(Op::ArrayLit, R, Base,
           static_cast<uint16_t>(AL->getElements().size()));
      return {makeRegOperand(R), true};
    }

    case Expr::Kind::Call: {
      const auto *CE = cast<CallExpr>(E);
      return compileCall(CE->getCallee(), CE->getArgs(), nullptr, CE,
                         CE->getLoc(), /*WantResult=*/true);
    }

    case Expr::Kind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      COperand V = compileExpr(UE->getOperand());
      if (!Ok)
        return {};
      uint16_t R = V.IsReg ? static_cast<uint16_t>(V.Enc & ~OpModeMask)
                           : allocReg();
      emit(UE->getOp() == UnaryOp::Neg ? Op::NegI : Op::NotB, R, V.Enc);
      return {makeRegOperand(R), true};
    }

    case Expr::Kind::Binary: {
      const auto *BE = cast<BinaryExpr>(E);
      uint16_t Watermark = RegTop;
      COperand L = compileExpr(BE->getLHS());
      if (!Ok)
        return {};
      // Rule 2 (file comment): keep the left read ahead of any right-hand
      // code.
      if (!L.IsReg && isCellOperand(L.Enc) && emitsCode(BE->getRHS()))
        L = materialize(L, BE->getLoc(), "");
      COperand R = compileExpr(BE->getRHS());
      if (!Ok)
        return {};
      bool IsBool = false;
      if (BE->getOp() == BinaryOp::Eq || BE->getOp() == BinaryOp::Ne) {
        const Type *LTy = BE->getLHS()->getType();
        if (!LTy) {
          bail("expression without a type annotation");
          return {};
        }
        IsBool = LTy->isBoolean();
      }
      Op O = binaryOpcode(BE->getOp(), IsBool);
      RegTop = Watermark;
      uint16_t Dest = allocReg();
      uint32_t Aux = 0;
      if (O == Op::DivOp || O == Op::ModOp)
        Aux = dbg(BE->getLoc(), "", false, nullptr, BE);
      emit(O, Dest, L.Enc, R.Enc, Aux);
      return {makeRegOperand(Dest), true};
    }
    }
    bail("unknown expression kind");
    return {};
  }

  /// Compiles \p E directly into register \p Slot (which must be the
  /// current RegTop), for consumers that need contiguous registers.
  void forceIntoReg(COperand O, uint16_t Slot) {
    if (O.IsReg && (O.Enc & ~OpModeMask) == Slot) {
      if (RegTop <= Slot)
        RegTop = static_cast<uint16_t>(Slot + 1);
      if (RegTop > NumRegs)
        NumRegs = RegTop;
      return;
    }
    RegTop = Slot;
    uint16_t R = allocReg();
    emit(Op::Load, R, O.Enc);
  }

  /// Compiles argument evaluation plus the Call instruction. Value
  /// arguments are materialized into registers in parameter order (their
  /// evaluation order); reference arguments are resolved by the VM at call
  /// time, which performs no reads.
  COperand compileCall(const RoutineDecl *Callee,
                       const std::vector<ExprPtr> &Args, const Stmt *CallStmt,
                       const Expr *CallExpr, SourceLoc Loc, bool WantResult) {
    if (!Callee) {
      bail("unresolved call");
      return {};
    }
    auto It = RoutineIdx.find(Callee);
    if (It == RoutineIdx.end()) {
      bail("call to a routine outside the program");
      return {};
    }
    CallSiteInfo Site;
    Site.Callee = Callee;
    Site.RoutineIdx = It->second;
    Site.CallStmt = CallStmt;
    Site.CallExpr = CallExpr;
    Site.Loc = Loc;
    // Static link: hops up the caller's chain to the activation of the
    // callee's lexical parent (or none when calling the program routine).
    Site.LinkHops = -1;
    int32_t Hops = 0;
    for (const RoutineDecl *R = Cur; R; R = R->getParent(), ++Hops)
      if (R == Callee->getParent()) {
        Site.LinkHops = Hops;
        break;
      }

    uint16_t Watermark = RegTop;
    const auto &Params = Callee->getParams();
    if (Args.size() != Params.size()) {
      bail("argument count mismatch");
      return {};
    }
    emit(Op::CallGuard, 0, 0, 0,
         dbg(Loc, Callee->getName(), false, CallStmt, CallExpr));
    size_t ScratchBase = ArgScratch.size();
    for (size_t I = 0, N = Params.size(); I != N; ++I) {
      const VarDecl *P = Params[I].get();
      ArgDesc AD;
      AD.Param = P;
      AD.Name = internSym(P->getName());
      if (P->isReference()) {
        AD.IsRef = true;
        const auto *VR = dyn_cast<VarRefExpr>(Args[I].get());
        if (!VR) {
          bail("reference argument is not a variable");
          return {};
        }
        AD.Operand = cellOperand(VR->getDecl());
        if (!Ok)
          return {};
      } else {
        uint16_t Slot = RegTop;
        COperand O = compileExpr(Args[I].get());
        if (!Ok)
          return {};
        forceIntoReg(O, Slot);
        AD.Operand = Slot; // raw register index
      }
      ArgScratch.push_back(AD);
    }
    // Flush this site's descriptors to the flat pool. Nested calls compiled
    // above (as argument expressions) have already flushed and truncated
    // their own ranges, so [ScratchBase, end) is exactly this site's args.
    Site.ArgStart = static_cast<uint32_t>(Out->ArgPool.size());
    Site.ArgCount = static_cast<uint32_t>(ArgScratch.size() - ScratchBase);
    Out->ArgPool.insert(Out->ArgPool.end(), ArgScratch.begin() + ScratchBase,
                        ArgScratch.end());
    ArgScratch.resize(ScratchBase);
    Out->Sites.push_back(std::move(Site));
    uint32_t SiteIdx = static_cast<uint32_t>(Out->Sites.size() - 1);

    RegTop = Watermark;
    uint16_t Dest = NoDest;
    if (WantResult)
      Dest = allocReg();
    emit(Op::Call, Dest, 0, 0, SiteIdx);
    if (!WantResult)
      return {};
    return {makeRegOperand(Dest), true};
  }

  //===------------------------------------------------------------------===//
  // Statement compilation
  //===------------------------------------------------------------------===//

  void compileStmt(const Stmt *S) {
    if (!Ok)
      return;
    RegTop = 0; // expression temporaries never live across statements
    emit(Op::Step, 0, 0, 0, dbg(S->getLoc(), "", false, S));

    switch (S->getKind()) {
    case Stmt::Kind::Compound: {
      // Labeled children are goto landing sites, reachable from anywhere
      // inside this compound's code (nested compounds close their own).
      uint32_t Begin = here();
      size_t First = Labels.size();
      for (const StmtPtr &Sub : cast<CompoundStmt>(S)->getBody()) {
        if (const auto *LS = dyn_cast<LabeledStmt>(Sub.get()))
          Labels.push_back(
              {LS->getLabel(), here(), Begin, 0, LoopDepth, CtrlDepth, LS});
        compileStmt(Sub.get());
      }
      for (size_t K = First; K != Labels.size(); ++K)
        if (!Labels[K].ScopeEnd)
          Labels[K].ScopeEnd = here();
      return;
    }

    case Stmt::Kind::Assign:
      compileAssign(cast<AssignStmt>(S));
      return;

    case Stmt::Kind::If: {
      const auto *IS = cast<IfStmt>(S);
      COperand Cond = compileExpr(IS->getCond());
      if (!Ok)
        return;
      uint32_t Br = emit(Op::IfBr, Cond.Enc);
      ++CtrlDepth;
      compileStmt(IS->getThen());
      if (IS->getElse()) {
        uint32_t JmpEnd = emit(Op::Jmp);
        patch(Br, here());
        compileStmt(IS->getElse());
        patch(JmpEnd, here());
      } else {
        patch(Br, here());
      }
      --CtrlDepth;
      emit(Op::PopCtrl);
      return;
    }

    case Stmt::Kind::While:
      compileWhile(cast<WhileStmt>(S));
      return;
    case Stmt::Kind::Repeat:
      compileRepeat(cast<RepeatStmt>(S));
      return;
    case Stmt::Kind::For:
      compileFor(cast<ForStmt>(S));
      return;

    case Stmt::Kind::ProcCall: {
      const auto *PC = cast<ProcCallStmt>(S);
      compileCall(PC->getCallee(), PC->getArgs(), PC, nullptr, PC->getLoc(),
                  /*WantResult=*/false);
      return;
    }

    case Stmt::Kind::Goto:
      compileGoto(cast<GotoStmt>(S));
      return;
    case Stmt::Kind::Labeled:
      compileStmt(cast<LabeledStmt>(S)->getSub());
      return;

    case Stmt::Kind::Read:
      compileRead(cast<ReadStmt>(S));
      return;
    case Stmt::Kind::Write:
      compileWrite(cast<WriteStmt>(S));
      return;
    case Stmt::Kind::Empty:
      return;
    }
    bail("unknown statement kind");
  }

  void compileAssign(const AssignStmt *AS) {
    if (const auto *VR = dyn_cast<VarRefExpr>(AS->getTarget())) {
      COperand V = compileExpr(AS->getValue());
      if (!Ok)
        return;
      uint16_t Target = cellOperand(VR->getDecl());
      if (!Ok)
        return;
      emit(Op::Store, Target, V.Enc);
      return;
    }
    const auto *IE = cast<IndexExpr>(AS->getTarget());
    const auto *BaseRef = cast<VarRefExpr>(IE->getBase());
    COperand V = compileExpr(AS->getValue());
    if (!Ok)
      return;
    // The value is evaluated before the index; fused cell values must not
    // let index code run first.
    if (!V.IsReg && isCellOperand(V.Enc) && emitsCode(IE->getIndex()))
      V = materialize(V, AS->getLoc(), "");
    COperand Idx = compileExpr(IE->getIndex());
    if (!Ok)
      return;
    uint16_t Base = cellOperand(BaseRef->getDecl());
    if (!Ok)
      return;
    emit(Op::StoreIdx, Base, Idx.Enc, V.Enc,
         dbg(IE->getLoc(), BaseRef->getName(), false, nullptr, IE));
  }

  void compileWhile(const WhileStmt *WS) {
    uint32_t LoopIdx = addLoop(LoopInfo::Kind::While, WS, WS->getUnitName(),
                               WS->getLoc());
    emit(Op::LoopEnter, 0, 0, 0, LoopIdx);
    ++LoopDepth;
    uint32_t Top = here();
    RegTop = 0;
    COperand Cond = compileExpr(WS->getCond());
    if (!Ok)
      return;
    uint32_t Test = emit(Op::WhileTest, Cond.Enc);
    emit(Op::IterBegin, 0, 0, 0, LoopIdx);
    ++CtrlDepth;
    compileStmt(WS->getBody());
    --CtrlDepth;
    emit(Op::IterEnd, 0, 0, 0, Top);
    patch(Test, here());
    --LoopDepth;
    emit(Op::LoopExit, 0, 0, 0, LoopIdx);
  }

  void compileRepeat(const RepeatStmt *RS) {
    uint32_t LoopIdx = addLoop(LoopInfo::Kind::Repeat, RS, RS->getUnitName(),
                               RS->getLoc());
    emit(Op::LoopEnter, 0, 0, 0, LoopIdx);
    ++LoopDepth;
    uint32_t Top = here();
    emit(Op::IterBegin, 0, 0, 0, LoopIdx);
    ++CtrlDepth;
    for (const StmtPtr &Sub : RS->getBody())
      compileStmt(Sub.get());
    --CtrlDepth;
    emit(Op::IterEnd, 0, 0, 0, here() + 1); // fall through to the test
    RegTop = 0;
    COperand Cond = compileExpr(RS->getCond());
    if (!Ok)
      return;
    emit(Op::RepeatTest, Cond.Enc, 0, 0, Top);
    --LoopDepth;
    emit(Op::LoopExit, 0, 0, 0, LoopIdx);
  }

  void compileFor(const ForStmt *FS) {
    const auto *VR = cast<VarRefExpr>(FS->getLoopVar());
    uint32_t LoopIdx = addLoop(LoopInfo::Kind::For, FS, FS->getUnitName(),
                               FS->getLoc());
    if (!Ok)
      return;
    Out->Loops[LoopIdx].Down = FS->isDownward();
    Out->Loops[LoopIdx].VarOperand = cellOperand(VR->getDecl());
    if (!Ok)
      return;
    emit(Op::LoopEnter, 0, 0, 0, LoopIdx);
    ++LoopDepth;
    RegTop = 0;
    COperand From = compileExpr(FS->getFrom());
    if (!Ok)
      return;
    if (!From.IsReg && isCellOperand(From.Enc) && emitsCode(FS->getTo()))
      From = materialize(From, FS->getLoc(), "");
    COperand To = compileExpr(FS->getTo());
    if (!Ok)
      return;
    emit(Op::ForPrep, From.Enc, To.Enc, 0, LoopIdx);
    uint32_t Test = emit(Op::ForTest, 0, 0, 0, 0);
    emit(Op::ForIter, 0, 0, 0, LoopIdx);
    ++CtrlDepth;
    compileStmt(FS->getBody());
    --CtrlDepth;
    emit(Op::ForEnd, 0, 0, 0, Test);
    patch(Test, here());
    --LoopDepth;
    emit(Op::ForExit, 0, 0, 0, LoopIdx);
  }

  void compileRead(const ReadStmt *RS) {
    for (const ExprPtr &T : RS->getTargets()) {
      RegTop = 0;
      uint16_t RV = allocReg();
      emit(Op::ReadFetch, RV, 0, 0, dbg(RS->getLoc(), "", false, RS));
      if (const auto *VR = dyn_cast<VarRefExpr>(T.get())) {
        uint16_t Target = cellOperand(VR->getDecl());
        if (!Ok)
          return;
        emit(Op::Store, Target, makeRegOperand(RV));
        continue;
      }
      const auto *IE = cast<IndexExpr>(T.get());
      const auto *BaseRef = cast<VarRefExpr>(IE->getBase());
      COperand Idx = compileExpr(IE->getIndex());
      if (!Ok)
        return;
      uint16_t Base = cellOperand(BaseRef->getDecl());
      if (!Ok)
        return;
      emit(Op::StoreIdx, Base, Idx.Enc, makeRegOperand(RV),
           dbg(IE->getLoc(), BaseRef->getName(), /*InRead=*/true, nullptr,
               IE));
    }
  }

  void compileWrite(const WriteStmt *WS) {
    for (const ExprPtr &Arg : WS->getArgs()) {
      RegTop = 0;
      COperand O = compileExpr(Arg.get());
      if (!Ok)
        return;
      emit(Op::WriteVal, O.Enc);
    }
    if (WS->isWriteln())
      emit(Op::WriteNl);
  }

  /// A goto names its label and how many static links up the declaring
  /// routine's activation sits; the VM finds the landing site at run time.
  void compileGoto(const GotoStmt *GS) {
    uint16_t Hops = NoGotoHops;
    uint16_t H = 0;
    for (const RoutineDecl *R = Cur; R; R = R->getParent(), ++H)
      if (R == GS->getTargetRoutine()) {
        Hops = H;
        break;
      }
    auto Label = static_cast<uint32_t>(GS->getLabel());
    emit(Op::Goto, Hops, static_cast<uint16_t>(Label & 0xFFFF),
         static_cast<uint16_t>(Label >> 16),
         dbg(GS->getLoc(), "", false, GS));
  }

  uint32_t addLoop(LoopInfo::Kind K, const Stmt *S, const std::string &Name,
                   SourceLoc Loc) {
    LoopInfo LI;
    LI.K = K;
    LI.Stmt = S;
    LI.UnitName = internSym(Name);
    LI.Loc = Loc;
    Out->Loops.push_back(LI);
    return static_cast<uint32_t>(Out->Loops.size() - 1);
  }

  //===------------------------------------------------------------------===//
  // Routine compilation
  //===------------------------------------------------------------------===//

  void compileRoutine(size_t Idx) {
    Cur = RoutineList[Idx];
    Code.clear();
    Labels.clear();
    RegTop = 0;
    NumRegs = 0;
    LoopDepth = 0;
    CtrlDepth = 0;
    // Side tables are emitted contiguously per routine — the segment the
    // incremental recompile splices. The const dedup maps reset so a
    // routine's constants land inside its own run (the cost is duplicate
    // pool entries across routines, bounded by the per-program pool cap).
    ScalarConsts.clear();
    StrConsts.clear();
    WideIdx.clear();
    RoutineSegment Seg;
    Seg.ConstStart = static_cast<uint32_t>(Out->Consts.size());
    Seg.WideStart = static_cast<uint32_t>(Out->WideCells.size());
    Seg.SiteStart = static_cast<uint32_t>(Out->Sites.size());
    Seg.ArgStart = static_cast<uint32_t>(Out->ArgPool.size());
    Seg.LoopStart = static_cast<uint32_t>(Out->Loops.size());
    Seg.DebugStart = static_cast<uint32_t>(Out->Debug.size());
    if (Cur->getBody())
      compileStmt(Cur->getBody());
    emit(Op::Ret);
    if (!Ok)
      return;
    Seg.ConstCount = static_cast<uint32_t>(Out->Consts.size()) - Seg.ConstStart;
    Seg.WideCount =
        static_cast<uint32_t>(Out->WideCells.size()) - Seg.WideStart;
    Seg.SiteCount = static_cast<uint32_t>(Out->Sites.size()) - Seg.SiteStart;
    Seg.ArgCount = static_cast<uint32_t>(Out->ArgPool.size()) - Seg.ArgStart;
    Seg.LoopCount = static_cast<uint32_t>(Out->Loops.size()) - Seg.LoopStart;
    Seg.DebugCount = static_cast<uint32_t>(Out->Debug.size()) - Seg.DebugStart;
    CompiledRoutine CR;
    CR.Routine = Cur;
    CR.Code = std::move(Code);
    CR.NumRegs = NumRegs;
    CR.Labels = std::move(Labels);
    Out->Routines.push_back(std::move(CR));
    Out->Segments.push_back(Seg);
  }

  //===------------------------------------------------------------------===//
  // Incremental replay
  //===------------------------------------------------------------------===//

  bool planUsable() const {
    const CompiledProgram *O = Reuse->Old;
    return O && Reuse->Map && O->Checked == Checked &&
           O->Routines.size() == RoutineList.size() &&
           O->Segments.size() == O->Routines.size() &&
           O->DebugSources.size() == O->Debug.size() &&
           Reuse->Replay.size() == O->Routines.size();
  }

  /// How far a replayed routine's pool rows moved: its constant-pool and
  /// wide-cell indices shift by these deltas.
  struct PoolShift {
    int64_t Const = 0;
    int64_t Wide = 0;
  };

  /// Shifts a fused operand's constant-pool or wide-cell index; register
  /// and narrow cell operands pass through untouched.
  static bool shiftOperand(uint16_t &F, const PoolShift &D) {
    uint16_t Mode = F & OpModeMask;
    if (Mode != OpConst && Mode != OpWide)
      return true;
    int64_t Idx = static_cast<int64_t>(F & ~OpModeMask) +
                  (Mode == OpConst ? D.Const : D.Wide);
    if (Idx < 0 || Idx > MaxRegOrConst)
      return false;
    F = static_cast<uint16_t>(Mode | static_cast<uint16_t>(Idx));
    return true;
  }

  /// Rebases one instruction from the old program's side-table layout onto
  /// the new one. Jump targets (Jmp/IfBr/WhileTest/IterEnd/RepeatTest/
  /// ForTest/ForEnd Aux) are routine-local pcs and need no shift.
  static bool relinkInstr(Instr &In, const PoolShift &P, int64_t SiteD,
                          int64_t LoopD, int64_t DbgD) {
    auto ShiftAux = [&In](int64_t Delta) {
      In.Aux = static_cast<uint32_t>(static_cast<int64_t>(In.Aux) + Delta);
    };
    switch (In.Code) {
    case Op::Step:
    case Op::CallGuard:
    case Op::ReadFetch:
    case Op::Goto: // A/B/C are hops and the label, not operands
      ShiftAux(DbgD);
      return true;
    case Op::Load:
    case Op::NotB:
    case Op::NegI:
      return shiftOperand(In.B, P);
    case Op::LoadChecked:
      ShiftAux(DbgD);
      return shiftOperand(In.B, P);
    case Op::Store:
      return shiftOperand(In.A, P) && shiftOperand(In.B, P);
    case Op::LoadIdx:
      ShiftAux(DbgD);
      return shiftOperand(In.B, P) && shiftOperand(In.C, P);
    case Op::StoreIdx:
      ShiftAux(DbgD);
      return shiftOperand(In.A, P) && shiftOperand(In.B, P) &&
             shiftOperand(In.C, P);
    case Op::DivOp:
    case Op::ModOp:
      ShiftAux(DbgD);
      return shiftOperand(In.B, P) && shiftOperand(In.C, P);
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::EqI:
    case Op::NeI:
    case Op::EqB:
    case Op::NeB:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::AndB:
    case Op::OrB:
      return shiftOperand(In.B, P) && shiftOperand(In.C, P);
    case Op::IfBr:
    case Op::WhileTest:
    case Op::RepeatTest:
      return shiftOperand(In.A, P); // Aux = routine-local pc
    case Op::WriteVal:
      return shiftOperand(In.A, P);
    case Op::LoopEnter:
    case Op::IterBegin:
    case Op::ForIter:
    case Op::LoopExit:
    case Op::ForExit:
      ShiftAux(LoopD);
      return true;
    case Op::ForPrep:
      ShiftAux(LoopD);
      return shiftOperand(In.A, P) && shiftOperand(In.B, P);
    case Op::Call:
      ShiftAux(SiteD);
      return true;
    case Op::ArrayLit: // B/C are a raw register base and count
    case Op::Jmp:
    case Op::PopCtrl:
    case Op::IterEnd:
    case Op::ForTest:
    case Op::ForEnd:
    case Op::Ret:
    case Op::WriteNl:
      return true;
    }
    return false;
  }

  /// Splices old routine \p I into the new program: instructions copied
  /// with side-table indices rebased, side-table rows copied with their AST
  /// pointers remapped through the edit's old->new map and their recorded
  /// locations refreshed from the new nodes. Returns false when the map
  /// does not cover a referenced node — the caller falls back to a full
  /// compile; a false return may leave partially appended rows behind.
  bool replayRoutine(size_t I) {
    const CompiledProgram &O = *Reuse->Old;
    const AstMap &M = *Reuse->Map;
    const CompiledRoutine &OCR = O.Routines[I];
    const RoutineSegment &OS = O.Segments[I];
    if (M.routine(OCR.Routine) != RoutineList[I])
      return false;

    RoutineSegment Seg;
    Seg.ConstStart = static_cast<uint32_t>(Out->Consts.size());
    Seg.WideStart = static_cast<uint32_t>(Out->WideCells.size());
    Seg.SiteStart = static_cast<uint32_t>(Out->Sites.size());
    Seg.ArgStart = static_cast<uint32_t>(Out->ArgPool.size());
    Seg.LoopStart = static_cast<uint32_t>(Out->Loops.size());
    Seg.DebugStart = static_cast<uint32_t>(Out->Debug.size());
    Seg.ConstCount = OS.ConstCount;
    Seg.WideCount = OS.WideCount;
    Seg.SiteCount = OS.SiteCount;
    Seg.ArgCount = OS.ArgCount;
    Seg.LoopCount = OS.LoopCount;
    Seg.DebugCount = OS.DebugCount;
    const PoolShift Shift{
        static_cast<int64_t>(Seg.ConstStart) - OS.ConstStart,
        static_cast<int64_t>(Seg.WideStart) - OS.WideStart};
    const int64_t SiteD = static_cast<int64_t>(Seg.SiteStart) - OS.SiteStart;
    const int64_t ArgD = static_cast<int64_t>(Seg.ArgStart) - OS.ArgStart;
    const int64_t LoopD = static_cast<int64_t>(Seg.LoopStart) - OS.LoopStart;
    const int64_t DbgD = static_cast<int64_t>(Seg.DebugStart) - OS.DebugStart;

    if (static_cast<size_t>(Seg.ConstStart) + OS.ConstCount >
        static_cast<size_t>(MaxRegOrConst) + 1) {
      bail("constant pool overflow");
      return false;
    }
    Out->Consts.insert(Out->Consts.end(), O.Consts.begin() + OS.ConstStart,
                       O.Consts.begin() + OS.ConstStart + OS.ConstCount);
    if (static_cast<size_t>(Seg.WideStart) + OS.WideCount >
        static_cast<size_t>(MaxRegOrConst) + 1) {
      bail("wide cell table overflow");
      return false;
    }
    Out->WideCells.insert(Out->WideCells.end(),
                          O.WideCells.begin() + OS.WideStart,
                          O.WideCells.begin() + OS.WideStart + OS.WideCount);

    for (uint32_t S = OS.SiteStart; S != OS.SiteStart + OS.SiteCount; ++S) {
      CallSiteInfo NS = O.Sites[S];
      NS.Callee = M.routine(NS.Callee);
      if (!NS.Callee)
        return false;
      auto It = RoutineIdx.find(NS.Callee);
      if (It == RoutineIdx.end())
        return false;
      NS.RoutineIdx = It->second;
      if (NS.CallStmt) {
        NS.CallStmt = M.stmt(NS.CallStmt);
        if (!NS.CallStmt)
          return false;
        NS.Loc = NS.CallStmt->getLoc();
      }
      if (NS.CallExpr) {
        NS.CallExpr = M.expr(NS.CallExpr);
        if (!NS.CallExpr)
          return false;
        NS.Loc = NS.CallExpr->getLoc();
      }
      NS.ArgStart = static_cast<uint32_t>(NS.ArgStart + ArgD);
      Out->Sites.push_back(std::move(NS));
    }

    for (uint32_t A = OS.ArgStart; A != OS.ArgStart + OS.ArgCount; ++A) {
      ArgDesc AD = O.ArgPool[A];
      if (AD.Param) {
        AD.Param = M.var(AD.Param);
        if (!AD.Param)
          return false;
      }
      if (AD.IsRef && !shiftOperand(AD.Operand, Shift))
        return false;
      Out->ArgPool.push_back(std::move(AD));
    }

    for (uint32_t L = OS.LoopStart; L != OS.LoopStart + OS.LoopCount; ++L) {
      LoopInfo LI = O.Loops[L];
      const Stmt *NS = M.stmt(LI.Stmt);
      if (!NS || !shiftOperand(LI.VarOperand, Shift))
        return false;
      LI.Stmt = NS;
      LI.Loc = NS->getLoc();
      // Sema numbers loop unit names program-globally; an edit elsewhere
      // renumbers this routine's units, so re-intern from the new node.
      switch (LI.K) {
      case LoopInfo::Kind::While: {
        const auto *W = dyn_cast<WhileStmt>(NS);
        if (!W)
          return false;
        LI.UnitName = internSym(W->getUnitName());
        break;
      }
      case LoopInfo::Kind::Repeat: {
        const auto *R = dyn_cast<RepeatStmt>(NS);
        if (!R)
          return false;
        LI.UnitName = internSym(R->getUnitName());
        break;
      }
      case LoopInfo::Kind::For: {
        const auto *F = dyn_cast<ForStmt>(NS);
        if (!F)
          return false;
        LI.UnitName = internSym(F->getUnitName());
        break;
      }
      }
      Out->Loops.push_back(std::move(LI));
    }

    for (uint32_t D = OS.DebugStart; D != OS.DebugStart + OS.DebugCount; ++D) {
      DebugInfo DI = O.Debug[D];
      DebugSrc Src = O.DebugSources[D];
      if (Src.S) {
        Src.S = M.stmt(Src.S);
        if (!Src.S)
          return false;
        DI.Loc = Src.S->getLoc();
      }
      if (Src.E) {
        Src.E = M.expr(Src.E);
        if (!Src.E)
          return false;
        DI.Loc = Src.E->getLoc();
      }
      Out->Debug.push_back(std::move(DI));
      Out->DebugSources.push_back(Src);
    }

    CompiledRoutine CR;
    CR.Routine = RoutineList[I];
    CR.NumRegs = OCR.NumRegs;
    CR.Code = OCR.Code;
    for (Instr &In : CR.Code)
      if (!relinkInstr(In, Shift, SiteD, LoopD, DbgD))
        return false;
    CR.Labels = OCR.Labels;
    for (LabelInfo &L : CR.Labels) {
      L.Stmt = M.stmt(L.Stmt);
      if (!L.Stmt)
        return false;
    }
    Out->Routines.push_back(std::move(CR));
    Out->Segments.push_back(Seg);
    return true;
  }
};

} // namespace

std::shared_ptr<const CompiledProgram>
bytecode::compile(const Program &P, bool Checked, std::string *WhyNot) {
  return Compiler(P, Checked).run(WhyNot);
}

std::shared_ptr<const CompiledProgram>
bytecode::compileWithReuse(const Program &P, bool Checked,
                           const CodeReusePlan &Reuse, CodeRebuildStats *Stats,
                           std::string *WhyNot) {
  Compiler C(P, Checked, &Reuse);
  auto CP = C.run(WhyNot);
  if (!CP && C.replayFailed()) {
    // The plan did not line up mid-routine; restart without it. The full
    // compiler sees exactly what a cold compile would.
    Compiler Full(P, Checked);
    CP = Full.run(WhyNot);
    if (Stats) {
      Stats->ReplayFellBack = true;
      Stats->Replayed = 0;
      Stats->Recompiled = CP ? static_cast<unsigned>(CP->Routines.size()) : 0;
    }
    return CP;
  }
  if (Stats) {
    Stats->ReplayFellBack = C.replayFailed();
    Stats->Replayed = C.replayedCount();
    Stats->Recompiled =
        CP ? static_cast<unsigned>(CP->Routines.size()) - C.replayedCount()
           : 0;
  }
  return CP;
}
