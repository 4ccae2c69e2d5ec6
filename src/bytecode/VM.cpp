//===- VM.cpp - Bytecode dispatch loop ------------------------------------===//
//
// Executes bytecode::CompiledProgram over interp::ExecState. Handlers call
// into the shared substrate for every observable effect — reads, writes,
// dependence merges and unit events happen in source evaluation order.
//
// Registers hold plain 16-byte values. A run with dependence tracking keeps
// each register's dependence set in VMState::RegDeps, beside the register
// file, as ExecState keeps each cell's in CellDeps; dispatch<false> never
// touches either.
//
// On a runtime failure the VM unwinds its frame stack top-down, raising the
// iteration, loop and call exit events of everything the failure abandons.
// A goto unwinds the same way down to the activation declaring its label,
// except that the units it leaves finish normally, and then lands on the
// label (Goto handler, takeGoto below).
//
//===----------------------------------------------------------------------===//

#include "bytecode/VM.h"

// Threaded dispatch needs the GNU address-of-label extension (`&&label` +
// `goto *p`); GCC and Clang both provide it. Elsewhere the switch loop is
// the dispatcher.
#if defined(__GNUC__) || defined(__clang__)
#define GADT_COMPUTED_GOTO 1
#endif

using namespace gadt;
using namespace gadt::bytecode;
using namespace gadt::interp;

namespace {

/// A loop statement currently executing (while/repeat/for).
struct LoopState {
  const LoopInfo *LI = nullptr;
  uint32_t LoopNode = 0; ///< loop unit node id (0 = untraced)
  uint32_t IterNode = 0; ///< current iteration unit (0 = between iterations)
  uint32_t Iter = 0;
  /// Tracked runs only. While/repeat: accumulated condition deps; for: the
  /// bound deps.
  DepSet CondAccum;
  CellRef ForCell = NoCell;
  int64_t I = 0;
  int64_t Limit = 0;
  /// Ctrl-stack depths to restore when unwinding out of an iteration /
  /// out of the loop (where the loop's own pops would have left them).
  uint32_t CtrlIterDepth = 0;
  uint32_t CtrlLoopDepth = 0;
};

/// One VM call frame.
struct VMFrame {
  uint32_t RoutineIdx = 0;
  uint32_t PC = 0;
  uint32_t RegBase = 0;
  uint32_t NodeId = 0;
  uint16_t Dest = NoDest; ///< caller register receiving the result
  Activation *Act = nullptr;
  Activation *CallerAct = nullptr;
  size_t LoopBase = 0; ///< VMState::LoopTop at frame entry
  const pascal::RoutineDecl *Callee = nullptr;
  std::vector<Binding> EntryInputs;
};

} // namespace

namespace gadt {
namespace bytecode {

/// Stacks reused across runs (capacity stays warm, like the pooled cell
/// arena). Frames/activations are indexed, never popped, so their vectors
/// keep their capacity and the activation pointers stay stable.
struct VMState {
  std::vector<Value> Regs;
  /// Tracked runs only: RegDeps[R] is the dependence set of Regs[R].
  std::vector<DepSet> RegDeps;
  std::vector<VMFrame> Frames;
  size_t Depth = 0;
  std::vector<std::unique_ptr<Activation>> ActPool;
  /// Loop states of the executing frames, innermost last: [0, LoopTop)
  /// are live. Slots above LoopTop stay constructed for the next loop, so
  /// entering a loop allocates nothing and an untracked run constructs no
  /// DepSet.
  std::vector<LoopState> Loops;
  size_t LoopTop = 0;
  std::vector<CellRef> RefScratch;
  /// call(): the main program and the callee's lexical ancestors. They are
  /// static-chain targets only, never VM frames.
  std::vector<std::unique_ptr<Activation>> ChainPool;
  /// Set while call() runs: frame 0 is the routine under test.
  bool RoutineEntry = false;
  /// call(): a goto targeted a ChainPool activation and left the routine
  /// under test; the loc is the goto's.
  bool Escaped = false;
  SourceLoc EscapeLoc;

  LoopState &topLoop() { return Loops[LoopTop - 1]; }
  /// A recycled slot for a loop being entered; the caller assigns every
  /// field.
  LoopState &pushLoop() {
    if (LoopTop == Loops.size())
      Loops.emplace_back();
    return Loops[LoopTop++];
  }

  VMFrame &frameAt(size_t I) {
    if (Frames.size() <= I)
      Frames.resize(I + 1);
    return Frames[I];
  }
  static Activation &at(std::vector<std::unique_ptr<Activation>> &Pool,
                        size_t I) {
    while (Pool.size() <= I)
      Pool.push_back(std::make_unique<Activation>());
    return *Pool[I];
  }
  Activation &actAt(size_t I) { return at(ActPool, I); }
  Activation &chainAt(size_t I) { return at(ChainPool, I); }
};

VMState *createVMState() { return new VMState(); }
void destroyVMState(VMState *VS) { delete VS; }

} // namespace bytecode
} // namespace gadt

namespace {

/// Resolves a cell operand (narrow or wide) against \p A's static chain.
/// Does not observe. The "internal:" failure cannot occur for analyzed
/// programs.
CellRef resolveCell(ExecState &S, const CompiledProgram &CP, Activation *A,
                    uint16_t Operand) {
  unsigned Hops, Slot;
  if ((Operand & OpModeMask) == OpCell) [[likely]] {
    Hops = (Operand >> CellHopsShift) & MaxCellHops;
    Slot = Operand & CellSlotMask;
  } else {
    const WideCell &W = CP.WideCells[Operand & ~OpModeMask];
    Hops = W.Hops;
    Slot = W.Slot;
  }
  Activation *Cur = A;
  for (; Hops && Cur; --Hops)
    Cur = Cur->StaticLink;
  if (Cur && Slot < Cur->Slots.size()) {
    CellRef H = Cur->Slots[Slot];
    if (H != NoCell)
      return H;
  }
  std::string Name =
      Cur && Slot < Cur->R->getSlotDecls().size()
          ? Cur->R->getSlotDecls()[Slot]->getName()
          : std::string("<slot>");
  S.fail(SourceLoc(), "internal: no storage for variable '" + Name + "'");
  return NoCell;
}

/// The dependence set of a constant.
const DepSet NoDeps;

/// A fetched source operand: its value and, on tracked runs, its
/// dependence set (null on untracked runs). V is null after a resolution
/// failure.
struct Src {
  const Value *V;
  const DepSet *D;

  explicit operator bool() const { return V != nullptr; }
  const Value &operator*() const { return *V; }
  const Value *operator->() const { return V; }
  const DepSet &deps() const { return *D; }
};

/// Fetches a source operand: a register, a constant, or a frame cell (the
/// cell path performs the observeRead of reading the variable).
template <bool TrackDeps>
Src fetchSrc(ExecState &S, const CompiledProgram &CP, Activation *Act,
             Value *Regs, DepSet *RegDeps, uint16_t Operand) {
  switch (Operand & OpModeMask) {
  case OpReg:
    return {&Regs[Operand], TrackDeps ? &RegDeps[Operand] : nullptr};
  case OpConst:
    return {&CP.Consts[Operand & ~OpModeMask], TrackDeps ? &NoDeps : nullptr};
  default: {
    CellRef H = resolveCell(S, CP, Act, Operand);
    if (H == NoCell)
      return {nullptr, nullptr};
    S.observeRead(H);
    return {&S.Arena[H].V, TrackDeps ? &S.CellDeps[H] : nullptr};
  }
  }
}

/// Exits the loops of frame \p F above loop-stack height \p Floor:
/// innermost first, iteration before loop, with the control stack
/// truncated to where each loop's own pops would have left it.
void unwindLoops(ExecState &S, VMState &VS, VMFrame &F, size_t Floor) {
  while (VS.LoopTop > Floor) {
    LoopState &LS = VS.topLoop();
    Activation &A = *F.Act;
    if (S.Opts.TrackDeps && A.CtrlStack.size() > LS.CtrlIterDepth)
      A.CtrlStack.resize(LS.CtrlIterDepth);
    S.exitLoopUnit(LS.IterNode, A);
    if (S.Opts.TrackDeps && A.CtrlStack.size() > LS.CtrlLoopDepth)
      A.CtrlStack.resize(LS.CtrlLoopDepth);
    S.exitLoopUnit(LS.LoopNode, A);
    --VS.LoopTop;
  }
}

/// Leaves the top call frame (Depth > 1): exits its loops, closes its unit
/// and frees its cells. The call's result is discarded.
void popFrame(ExecState &S, VMState &VS) {
  VMFrame &F = VS.Frames[VS.Depth - 1];
  unwindLoops(S, VS, F, F.LoopBase);
  --S.CallDepth;
  S.finishCallUnit(*F.Act, F.Callee, std::move(F.EntryInputs), F.NodeId,
                   F.CallerAct, nullptr, nullptr);
  S.freeActivationCells(*F.Act);
  --VS.Depth;
}

/// Unwind after a failure: finish abandoned loops and calls innermost
/// first. Leaves Depth at 1 with frame 0's loops exited — the entry point
/// closes frame 0's unit.
void unwindAll(ExecState &S, VMState &VS) {
  while (VS.Depth > 1)
    popFrame(S, VS);
  unwindLoops(S, VS, VS.Frames[0], 0);
}

/// The landing site of \p Label for a goto taken while its target frame
/// is at \p At: the label of the innermost compound enclosing \p At.
const LabelInfo *findLanding(const CompiledRoutine &CR, int Label,
                             uint32_t At) {
  const LabelInfo *Best = nullptr;
  for (const LabelInfo &L : CR.Labels)
    if (L.Label == Label && L.ScopeBegin <= At && At < L.ScopeEnd &&
        (!Best || L.ScopeBegin > Best->ScopeBegin))
      Best = &L;
  return Best;
}

/// Executes goto \p I from the top frame, whose PC is already saved past
/// the goto. Unwinds to the frame of the activation declaring the label —
/// the units it leaves finish normally — exits the loops the label lies
/// outside of and lands on the label, counting the landing as a step. A
/// goto that cannot land (its label does not enclose the target frame's
/// position) is a runtime error. Returns false when the target is not a
/// VM frame (call(): the goto escapes the routine under test).
bool takeGoto(ExecState &S, const CompiledProgram &CP, VMState &VS,
              const Instr &I) {
  const SourceLoc &Loc = CP.Debug[I.Aux].Loc;
  const int Label = gotoLabel(I);
  Activation *Target =
      I.A == NoGotoHops ? nullptr : VS.Frames[VS.Depth - 1].Act;
  for (unsigned Hops = I.A; Target && Hops; --Hops)
    Target = Target->StaticLink;
  if (!Target) {
    S.fail(Loc, "internal: no activation declares label " +
                    std::to_string(Label));
    return true;
  }
  size_t T = VS.Depth;
  while (T > 0 && VS.Frames[T - 1].Act != Target)
    --T;
  while (VS.Depth > std::max<size_t>(T, 1)) {
    popFrame(S, VS);
    if (S.Failed)
      return true; // a strict-mode result check failed on the way out
  }
  VMFrame &F = VS.Frames[VS.Depth - 1];
  if (T == 0) {
    unwindLoops(S, VS, F, F.LoopBase);
    VS.Escaped = true;
    VS.EscapeLoc = Loc;
    return false;
  }
  const LabelInfo *L =
      findLanding(CP.Routines[F.RoutineIdx], Label, F.PC - 1);
  if (!L) {
    S.fail(Loc, VS.Depth == 1 && !VS.RoutineEntry
                    ? "goto " + std::to_string(Label) +
                          " escaped the main program"
                    : "goto " + std::to_string(Label) +
                          " jumps into a structured statement (not "
                          "supported)");
    return true;
  }
  unwindLoops(S, VS, F, F.LoopBase + L->LoopDepth);
  if (S.Opts.TrackDeps && F.Act->CtrlStack.size() > L->CtrlDepth)
    F.Act->CtrlStack.resize(L->CtrlDepth);
  if (S.countStep(L->Stmt->getLoc()))
    F.PC = L->Target;
  return true;
}

/// The handler include below must enumerate every opcode in enum order —
/// the threaded dispatcher indexes a label table by raw Op value.
constexpr bool opsMatch() {
  const Op Expected[] = {
#define X(name) Op::name,
      GADT_BC_OPS(X)
#undef X
  };
  constexpr size_t N = sizeof(Expected) / sizeof(Expected[0]);
  if (N != static_cast<size_t>(Op::WriteNl) + 1)
    return false;
  for (size_t K = 0; K != N; ++K)
    if (static_cast<size_t>(Expected[K]) != K)
      return false;
  return true;
}
static_assert(opsMatch(), "GADT_BC_OPS is out of sync with enum Op");

#ifdef GADT_COMPUTED_GOTO

/// Threaded dispatch: every handler ends by fetching the next instruction
/// and jumping straight to its handler through a label table indexed by
/// opcode, so the branch predictor sees one indirect jump per handler
/// (correlated with the instruction stream) instead of the single shared
/// jump a switch loop funnels everything through.
template <bool TrackDeps>
void dispatch(ExecState &S, const CompiledProgram &CP, VMState &VS) {
  VMFrame *F = &VS.Frames[VS.Depth - 1];
  const Instr *Code = CP.Routines[F->RoutineIdx].Code.data();
  uint32_t PC = F->PC;
  Value *Regs = VS.Regs.data() + F->RegBase;
  DepSet *RegDeps = TrackDeps ? VS.RegDeps.data() + F->RegBase : nullptr;
  Activation *Act = F->Act;
  const Instr *IP = nullptr;

  auto reload = [&] {
    F = &VS.Frames[VS.Depth - 1];
    Code = CP.Routines[F->RoutineIdx].Code.data();
    PC = F->PC;
    Regs = VS.Regs.data() + F->RegBase;
    if (TrackDeps)
      RegDeps = VS.RegDeps.data() + F->RegBase;
    Act = F->Act;
  };
  auto fetch = [&](uint16_t Operand) {
    return fetchSrc<TrackDeps>(S, CP, Act, Regs, RegDeps, Operand);
  };

  // Label addresses are function-local; each template instantiation gets
  // its own table. The opsMatch() static_assert above pins the order.
  static const void *const Tbl[] = {
#define X(name) &&Lbl_##name,
      GADT_BC_OPS(X)
#undef X
  };

#define GADT_DISPATCH()                                                        \
  do {                                                                         \
    if (S.Failed) [[unlikely]]                                                 \
      goto GadtFail;                                                           \
    IP = &Code[PC++];                                                          \
    goto *Tbl[static_cast<size_t>(IP->Code)];                                  \
  } while (0)

  GADT_DISPATCH();

  // clang-format off
#define GADT_OP(name) Lbl_##name: { const Instr &I = *IP; (void)I;
#define GADT_OP_END } GADT_DISPATCH();
#define GADT_NEXT GADT_DISPATCH()
  // clang-format on
#include "bytecode/VMOps.inc"
#undef GADT_OP
#undef GADT_OP_END
#undef GADT_NEXT
#undef GADT_DISPATCH

GadtFail:
  unwindAll(S, VS);
}

#else // !GADT_COMPUTED_GOTO

template <bool TrackDeps>
void dispatch(ExecState &S, const CompiledProgram &CP, VMState &VS) {
  VMFrame *F = &VS.Frames[VS.Depth - 1];
  const Instr *Code = CP.Routines[F->RoutineIdx].Code.data();
  uint32_t PC = F->PC;
  Value *Regs = VS.Regs.data() + F->RegBase;
  DepSet *RegDeps = TrackDeps ? VS.RegDeps.data() + F->RegBase : nullptr;
  Activation *Act = F->Act;

  auto reload = [&] {
    F = &VS.Frames[VS.Depth - 1];
    Code = CP.Routines[F->RoutineIdx].Code.data();
    PC = F->PC;
    Regs = VS.Regs.data() + F->RegBase;
    if (TrackDeps)
      RegDeps = VS.RegDeps.data() + F->RegBase;
    Act = F->Act;
  };
  auto fetch = [&](uint16_t Operand) {
    return fetchSrc<TrackDeps>(S, CP, Act, Regs, RegDeps, Operand);
  };

  for (;;) {
    if (S.Failed) [[unlikely]] {
      unwindAll(S, VS);
      return;
    }

    const Instr &I = Code[PC++];
    switch (I.Code) {
// clang-format off
#define GADT_OP(name) case Op::name: {
#define GADT_OP_END } break;
#define GADT_NEXT break
// clang-format on
#include "bytecode/VMOps.inc"
#undef GADT_OP
#undef GADT_OP_END
#undef GADT_NEXT
    }
  }
}

#endif // GADT_COMPUTED_GOTO

/// Points frame 0 at routine \p Idx and runs the dispatch loop until frame
/// 0 returns, fails, or a goto escapes it.
void runFrame0(ExecState &S, const CompiledProgram &CP, VMState &VS,
               uint32_t Idx, Activation &Act, uint32_t NodeId) {
  VMFrame &F = VS.frameAt(0);
  F.RoutineIdx = Idx;
  F.PC = 0;
  F.RegBase = 0;
  F.Dest = NoDest;
  F.Act = &Act;
  F.CallerAct = nullptr;
  F.LoopBase = 0;
  F.Callee = CP.Routines[Idx].Routine;
  F.NodeId = NodeId;
  F.EntryInputs.clear();
  if (VS.Regs.size() < CP.Routines[Idx].NumRegs)
    VS.Regs.resize(CP.Routines[Idx].NumRegs);
  if (S.Opts.TrackDeps) {
    if (VS.RegDeps.size() < VS.Regs.size())
      VS.RegDeps.resize(VS.Regs.size());
    dispatch<true>(S, CP, VS);
  } else {
    dispatch<false>(S, CP, VS);
  }
}

} // namespace

ExecResult bytecode::run(ExecState &S, const CompiledProgram &CP,
                         VMState &VS) {
  S.reset();
  VS.Depth = 1;
  VS.LoopTop = 0;
  VS.RoutineEntry = false;
  VS.Escaped = false;
  ExecResult Res;

  Activation &Main = VS.actAt(0);
  S.setUpMainActivation(Main);
  uint32_t RootId = S.enterRoot(Main);
  runFrame0(S, CP, VS, 0, Main, RootId);

  S.exitRoot(RootId, Main, Res);
  Res.Ok = !S.Failed;
  Res.Error = S.Error;
  Res.Output = S.Output;
  Res.Steps = S.Steps;
  Res.UnitsExecuted = S.NodeCounter;
  Res.CellsPooled = S.PooledReuses;
  return Res;
}

CallOutcome bytecode::call(ExecState &S, const CompiledProgram &CP,
                           VMState &VS, const pascal::RoutineDecl *Callee,
                           std::vector<Value> Args,
                           const std::vector<Binding> &Presets) {
  S.reset();
  VS.Depth = 1;
  VS.LoopTop = 0;
  VS.RoutineEntry = true;
  VS.Escaped = false;
  CallOutcome Out;
  uint32_t Idx = 0;
  while (Idx != CP.Routines.size() && CP.Routines[Idx].Routine != Callee)
    ++Idx;
  if (Idx == CP.Routines.size()) {
    Out.Error = {SourceLoc(), "no compiled code for routine '" +
                                  Callee->getName() + "'"};
    return Out;
  }

  // Frames for the static chain from main down to the callee's parent,
  // default-initialized, so test cases can invoke nested routines directly.
  Activation &Main = VS.chainAt(0);
  S.setUpMainActivation(Main);
  std::vector<const pascal::RoutineDecl *> Path;
  for (const pascal::RoutineDecl *R = Callee->getParent();
       R && R != S.Prog.getMain(); R = R->getParent())
    Path.push_back(R);
  Activation *Link = &Main;
  for (size_t K = 0; K != Path.size(); ++K) {
    const pascal::RoutineDecl *R = Path[Path.size() - 1 - K];
    Activation &A = VS.chainAt(K + 1);
    A.R = R;
    A.StaticLink = Link;
    A.Watermark = S.CellSerial + 1;
    A.Slots.assign(R->getNumSlots(), NoCell);
    A.CtrlStack.clear();
    for (const auto &L : R->getLocals())
      A.Slots[L->getSlot()] =
          S.newCell(L.get(), S.initialValue(L->getType()));
    for (const auto &P : R->getParams())
      A.Slots[P->getSlot()] = S.newCell(P.get(), defaultValue(P->getType()));
    Link = &A;
  }

  // Global presets by name, innermost scope first.
  for (const Binding &Preset : Presets) {
    bool Applied = false;
    for (Activation *Cur = Link; Cur && !Applied; Cur = Cur->StaticLink) {
      const auto &Decls = Cur->R->getSlotDecls();
      for (size_t I = 0, N = Decls.size(); I != N && !Applied; ++I)
        if (Cur->Slots[I] != NoCell && Decls[I]->getName() == Preset.Name) {
          S.Arena[Cur->Slots[I]].V = Preset.V;
          Applied = true;
        }
    }
  }

  uint64_t Watermark = S.CellSerial + 1;
  Activation &Act = VS.actAt(0);
  Act.R = Callee;
  Act.StaticLink = Link;
  Act.Watermark = Watermark;
  Act.Slots.assign(Callee->getNumSlots(), NoCell);
  Act.CtrlStack.clear();
  std::vector<Binding> EntryInputs;
  const auto &Params = Callee->getParams();
  for (size_t I = 0, N = Params.size(); I != N; ++I) {
    const pascal::VarDecl *Param = Params[I].get();
    Value V = Args[I].isUnset() ? defaultValue(Param->getType())
                                : std::move(Args[I]);
    if (S.Listener && !Param->isReference())
      EntryInputs.push_back({Param->getName(), V});
    Act.Slots[Param->getSlot()] = S.newCell(Param, std::move(V));
  }
  for (const auto &L : Callee->getLocals())
    Act.Slots[L->getSlot()] =
        S.newCell(L.get(), S.initialValue(L->getType()));
  if (Callee->isFunction()) {
    const pascal::VarDecl *RV = Callee->getResultVar();
    Act.Slots[RV->getSlot()] =
        S.newCell(RV, S.initialValue(Callee->getReturnType()));
  }

  uint32_t NodeId = S.beginCallUnit(Act, Callee, nullptr, nullptr,
                                    Callee->getLoc(), Watermark);
  ++S.CallDepth;
  runFrame0(S, CP, VS, Idx, Act, NodeId);
  --S.CallDepth;

  std::vector<Binding> Outputs;
  S.finishCallUnit(Act, Callee, std::move(EntryInputs), NodeId, nullptr,
                   &Outputs, nullptr);
  if (VS.Escaped)
    S.fail(VS.EscapeLoc, "non-local goto escaped the routine under test");

  Out.Ok = !S.Failed;
  Out.Error = S.Error;
  Out.Output = S.Output;
  // The trace-shaped outputs (written params, global effects, result),
  // augmented with unwritten var parameters so checkers see the full
  // post-state.
  Out.Outputs = std::move(Outputs);
  for (const auto &Param : Params) {
    if (!Param->isReference())
      continue;
    bool Present = false;
    for (const Binding &B : Out.Outputs)
      if (B.Name == Param->getName())
        Present = true;
    if (!Present)
      Out.Outputs.push_back(
          {Param->getName(), S.Arena[Act.Slots[Param->getSlot()]].V});
  }
  return Out;
}
