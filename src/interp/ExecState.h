//===- ExecState.h - Shared execution substrate -----------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate under the bytecode VM: the pooled cell arena,
/// activation records, unit-frame observation (dynamic input/output sets),
/// dependence bookkeeping and the unit enter/exit event protocol.
///
/// The VM (bytecode/VM.cpp) funnels every observable effect — cell
/// reads/writes, DepSet merges, listener events, step/limit accounting —
/// through this one struct, so *what* an execution records is defined here
/// and the VM only decides *when*.
///
/// Dependence sets live beside the cells, in CellDeps, and only on runs
/// with InterpOptions::TrackDeps; an untracked run keeps none.
///
/// This is an internal header: everything here is an implementation detail
/// of interp::Interpreter and may change freely.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_INTERP_EXECSTATE_H
#define GADT_INTERP_EXECSTATE_H

#include "interp/Interpreter.h"
#include "support/Casting.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gadt {
namespace interp {

/// Index of a cell in the interpreter's arena. Cells are pooled: handles of
/// dead activations return to a free list and are reissued with a fresh
/// serial, so a handle is only meaningful while its cell is live — which
/// the watermark discipline guarantees for every handle the interpreter
/// retains (see observeRead/freeActivationCells).
using CellRef = uint32_t;
constexpr CellRef NoCell = UINT32_MAX;

/// A storage location. Var parameters alias cells across activations, so
/// cells live in a shared arena and are identified by a serial number that
/// orders them by creation time (used to decide locality relative to a
/// unit). ReadUpTo/WriteUpTo are observation stamps: every live unit frame
/// whose FrameId is at or below the stamp has already recorded this cell
/// (or the cell is local to it), so observation walks touch each cell a
/// constant number of times per event instead of once per active frame.
struct Cell {
  Value V;
  uint64_t Serial = 0;
  uint64_t ReadUpTo = 0;
  uint64_t WriteUpTo = 0;
  /// Declaration the cell was created for (naming fallback).
  const pascal::VarDecl *Decl = nullptr;
};

/// One routine activation: a flat frame of cell handles indexed by the
/// slots Sema assigned (params, then locals, then the function result).
struct Activation {
  const pascal::RoutineDecl *R = nullptr;
  Activation *StaticLink = nullptr;
  /// Cells with Serial >= Watermark were created by (and die with) this
  /// activation; below it they are aliased from the caller.
  uint64_t Watermark = 0;
  std::vector<CellRef> Slots;
  /// Stack of *merged* control-dependence sets; back() is the set of deps
  /// governing any store performed right now.
  std::vector<DepSet> CtrlStack;

  const DepSet *activeCtrlDeps() const {
    return CtrlStack.empty() ? nullptr : &CtrlStack.back();
  }
};

/// Dynamic input/output observation for one executing unit.
struct UnitFrame {
  uint32_t NodeId = 0;
  UnitKind Kind = UnitKind::Call;
  /// Cells created at or after this serial are local to the unit.
  uint64_t Watermark = 0;
  /// Monotonic push id; cell stamps reference it.
  uint64_t FrameId = 0;
  Activation *Act = nullptr;
  std::vector<std::pair<CellRef, Value>> FirstReads;
  std::vector<CellRef> Writes;
};

/// All state one execution carries, plus every operation whose effects are
/// observable; see the file comment.
struct ExecState {
  const pascal::Program &Prog;
  InterpOptions Opts;
  TraceListener *Listener = nullptr;
  std::vector<int64_t> Input;

  // Per-run state.
  bool Failed = false;
  RuntimeError Error;
  std::string Output;
  uint64_t Steps = 0;
  uint32_t NodeCounter = 0;
  uint64_t CellSerial = 0;
  uint64_t FrameCounter = 0;
  uint64_t PooledReuses = 0;
  size_t InputPos = 0;
  unsigned CallDepth = 0;
  std::vector<Cell> Arena;
  /// TrackDeps runs only: CellDeps[H] is the dependence set of Arena[H].V.
  /// Parallel to Arena on tracked runs, empty on untracked ones.
  std::vector<DepSet> CellDeps;
  std::vector<CellRef> FreeList;
  /// Pooled unit-frame stack: [0, FrameTop) are live; slots above FrameTop
  /// keep their FirstReads/Writes buffer capacity for the next unit at that
  /// depth. Popping a frame is a decrement — with ~one malloc/free pair per
  /// unit otherwise, the pool is visible on every TrackDeps profile.
  std::vector<UnitFrame> Frames;
  size_t FrameTop = 0;

  ExecState(const pascal::Program &Prog, InterpOptions Opts)
      : Prog(Prog), Opts(Opts) {}

  void reset() {
    Failed = false;
    Error = RuntimeError();
    Output.clear();
    Steps = 0;
    NodeCounter = 0;
    CellSerial = 0;
    FrameCounter = 0;
    PooledReuses = 0;
    InputPos = 0;
    CallDepth = 0;
    Arena.clear();
    CellDeps.clear();
    FreeList.clear();
    // Keep the frame pool's buffers but release the Values they pin.
    for (UnitFrame &F : Frames) {
      F.FirstReads.clear();
      F.Writes.clear();
    }
    FrameTop = 0;
  }

  /// Pushes a (recycled) unit frame. The caller must assign every header
  /// field; FirstReads/Writes come back empty with capacity retained.
  UnitFrame &pushFrame() {
    if (FrameTop == Frames.size())
      Frames.emplace_back();
    UnitFrame &F = Frames[FrameTop++];
    F.FirstReads.clear();
    F.Writes.clear();
    return F;
  }

  void fail(SourceLoc Loc, std::string Msg) {
    if (Failed)
      return;
    Failed = true;
    Error.Loc = Loc;
    Error.Message = std::move(Msg);
  }

  /// A fresh cell holding \p V; on tracked runs its dependence set is
  /// empty.
  CellRef newCell(const pascal::VarDecl *Decl, Value V) {
    CellRef H;
    if (!FreeList.empty()) {
      H = FreeList.back();
      FreeList.pop_back();
      ++PooledReuses;
    } else {
      H = static_cast<CellRef>(Arena.size());
      Arena.emplace_back();
      if (Opts.TrackDeps)
        CellDeps.emplace_back();
    }
    Cell &C = Arena[H];
    C.V = std::move(V);
    C.Serial = ++CellSerial;
    C.ReadUpTo = 0;
    C.WriteUpTo = 0;
    C.Decl = Decl;
    return H;
  }

  /// Tracked runs: a fresh cell holding \p V with dependence set \p Deps.
  CellRef newCell(const pascal::VarDecl *Decl, Value V, DepSet Deps) {
    CellRef H = newCell(Decl, std::move(V));
    CellDeps[H] = std::move(Deps);
    return H;
  }

  /// Returns the cells this activation created to the pool, emptied so
  /// that pooled cells pin no array payload or dependence vector. Safe
  /// because no retained handle can reach them afterwards: enclosing unit
  /// frames only record cells below their watermark, which is at or below
  /// this activation's, and the activation's own frames are popped first.
  void freeActivationCells(Activation &Act) {
    for (CellRef H : Act.Slots) {
      if (H == NoCell)
        continue;
      Cell &C = Arena[H];
      if (C.Serial < Act.Watermark)
        continue; // aliased from the caller
      C.V = Value();
      if (Opts.TrackDeps)
        CellDeps[H].clear();
      FreeList.push_back(H);
    }
  }

  /// Initial value of a freshly declared variable: in strict mode scalars
  /// stay unset so use-before-assignment is detectable.
  Value initialValue(const pascal::Type *Ty) {
    if (Opts.DetectUninitialized && Ty && !Ty->isArray())
      return Value();
    return defaultValue(Ty);
  }

  //===--------------------------------------------------------------------===//
  // Cell access with unit-frame observation
  //===--------------------------------------------------------------------===//

  // Watermarks are non-decreasing with frame-stack depth, so the frames a
  // cell is non-local to form a suffix of the stack; so do the frames above
  // a cell's stamp. Observation therefore walks from the top of the stack
  // and stops at the first frame that is already covered — each event costs
  // O(frames actually recording), not O(live frames).

  /// Records a read of \p H in every active unit frame to which the cell is
  /// non-local and not already read or written. Call *before* using the
  /// value.
  ///
  /// First-read capture exists solely to assemble input bindings for the
  /// listener (finishCallUnit/exitLoopUnit read FirstReads under
  /// `if (Listener)` only), so with no listener the whole walk — including
  /// the Value copy per recorded read — is skipped. Write observation has
  /// no such shortcut: the Writes list drives output dependence merges,
  /// which persist in cells whether or not anyone is listening.
  void observeRead(CellRef H) {
    if (!Listener || FrameTop == 0)
      return;
    Cell &C = Arena[H];
    uint64_t Stamp = std::max(C.ReadUpTo, C.WriteUpTo);
    for (size_t I = FrameTop; I-- > 0;) {
      UnitFrame &F = Frames[I];
      if (F.FrameId <= Stamp || C.Serial >= F.Watermark)
        break;
      F.FirstReads.push_back({H, C.V});
    }
    if (C.ReadUpTo < Frames[FrameTop - 1].FrameId)
      C.ReadUpTo = Frames[FrameTop - 1].FrameId;
  }

  /// Records a write of \p H in every active unit frame to which the cell
  /// is non-local.
  void observeWrite(CellRef H) {
    if (FrameTop == 0)
      return;
    Cell &C = Arena[H];
    for (size_t I = FrameTop; I-- > 0;) {
      UnitFrame &F = Frames[I];
      if (F.FrameId <= C.WriteUpTo || C.Serial >= F.Watermark)
        break;
      F.Writes.push_back(H);
    }
    if (C.WriteUpTo < Frames[FrameTop - 1].FrameId)
      C.WriteUpTo = Frames[FrameTop - 1].FrameId;
  }

  /// Whether \p H was write-recorded in \p F (valid right after \p F was
  /// popped, before any new frame is pushed).
  bool writtenInFrame(const UnitFrame &F, CellRef H) const {
    return Arena[H].WriteUpTo >= F.FrameId && Arena[H].Serial < F.Watermark;
  }

  /// Stores \p V into \p H, observing the write.
  void storeCell(CellRef H, Value V) {
    observeWrite(H);
    Arena[H].V = std::move(V);
  }

  /// Tracked runs: the store above, with \p Deps plus the control
  /// dependences active in \p A as the cell's new dependence set.
  void storeCell(Activation &A, CellRef H, Value V, DepSet Deps) {
    storeCell(H, std::move(V));
    if (const DepSet *Ctrl = A.activeCtrlDeps())
      Deps.mergeWith(*Ctrl);
    CellDeps[H] = std::move(Deps);
  }

  //===--------------------------------------------------------------------===//
  // Names of cells
  //===--------------------------------------------------------------------===//

  /// The parameter declaration whose frame slot holds \p H, or null. When
  /// two reference parameters alias one cell, the last one wins (matching
  /// the map-based attribution this replaced).
  const pascal::VarDecl *paramOfCell(const Activation &Act,
                                     const pascal::RoutineDecl *Callee,
                                     CellRef H) const {
    const pascal::VarDecl *Found = nullptr;
    size_t NumParams = Callee->getParams().size();
    for (size_t I = 0; I != NumParams; ++I)
      if (Act.Slots[I] == H)
        Found = Callee->getParams()[I].get();
    return Found;
  }

  /// Returns the name under which \p H is visible from activation \p A
  /// (var parameters alias caller cells whose creation name differs from
  /// the local parameter name). Falls back to the creation name.
  std::string nameOfCell(Activation *A, CellRef H) {
    for (Activation *Cur = A; Cur; Cur = Cur->StaticLink)
      for (size_t I = 0, N = Cur->Slots.size(); I != N; ++I)
        if (Cur->Slots[I] == H)
          return Cur->R->getSlotDecls()[I]->getName();
    const pascal::VarDecl *D = Arena[H].Decl;
    return D ? D->getName() : std::string("<cell>");
  }

  //===--------------------------------------------------------------------===//
  // Step accounting and control-dependence stack
  //===--------------------------------------------------------------------===//

  bool countStep(SourceLoc Loc) {
    if (++Steps > Opts.MaxSteps) [[unlikely]] {
      fail(Loc, "step limit exceeded (possible non-termination)");
      return false;
    }
    return true;
  }

  /// Tracked runs: opens a control region governed by \p CondDeps (plus
  /// the regions already open).
  void pushCtrl(Activation &A, const DepSet &CondDeps) {
    DepSet Merged = CondDeps;
    if (const DepSet *Active = A.activeCtrlDeps())
      Merged.mergeWith(*Active);
    A.CtrlStack.push_back(std::move(Merged));
  }

  /// Tracked runs: closes the innermost control region.
  void popCtrl(Activation &A) { A.CtrlStack.pop_back(); }

  /// Tracked runs: what every output of unit \p NodeId depends on — the
  /// unit itself and the control dependences active in \p Ctl (null: none).
  static DepSet unitDeps(uint32_t NodeId, const Activation *Ctl) {
    DepSet D;
    D.insert(NodeId);
    if (Ctl)
      if (const DepSet *Ctrl = Ctl->activeCtrlDeps())
        D.mergeWith(*Ctrl);
    return D;
  }

  //===--------------------------------------------------------------------===//
  // Unit protocol: calls
  //===--------------------------------------------------------------------===//

  /// Raises the enter event for a routine-call unit and pushes its
  /// observation frame. Returns the unit's node id; finishCallUnit closes
  /// the unit after the body executed.
  uint32_t beginCallUnit(Activation &Act, const pascal::RoutineDecl *Callee,
                         const pascal::Stmt *CallStmt,
                         const pascal::Expr *CallExpr, SourceLoc Loc,
                         uint64_t Watermark) {
    uint32_t NodeId = ++NodeCounter;
    if (Listener) {
      UnitStart Start;
      Start.NodeId = NodeId;
      Start.Kind = UnitKind::Call;
      Start.Name = Callee->getName();
      Start.Routine = Callee;
      Start.CallStmt = CallStmt;
      Start.CallExpr = CallExpr;
      Start.Loc = Loc;
      Listener->enterUnit(Start);
    }
    UnitFrame &F = pushFrame();
    F.NodeId = NodeId;
    F.Kind = UnitKind::Call;
    F.Watermark = Watermark;
    F.FrameId = ++FrameCounter;
    F.Act = &Act;
    return NodeId;
  }

  /// Pops the unit frame pushed by beginCallUnit, assembles the dynamic
  /// input/output bindings, applies the output dependence merges (which
  /// persist in the written cells — semantics, not bookkeeping) and raises
  /// the exit event.
  ///
  /// \p EntryInputs carries bindings for value/in parameters (captured at
  /// entry — only when bindings are wanted). \p OutputsOut, when non-null,
  /// receives the output bindings even without a listener (callRoutine
  /// needs them); otherwise bindings are only assembled for the listener.
  /// A function's result moves to \p Result and, when \p ResultDeps is
  /// non-null (tracked runs), its dependence set to \p ResultDeps.
  void finishCallUnit(Activation &Act, const pascal::RoutineDecl *Callee,
                      std::vector<Binding> EntryInputs, uint32_t NodeId,
                      Activation *Caller, std::vector<Binding> *OutputsOut,
                      Value *Result, DepSet *ResultDeps = nullptr) {
    // Pop by decrement; the slot stays valid (nothing below pushes a unit
    // frame before this function returns) and its buffers get recycled.
    UnitFrame &Frame = Frames[--FrameTop];

    bool WantOut = Listener || OutputsOut;

    // Assemble inputs: declared-order parameters first, then true global
    // side reads. Pure bookkeeping for the listener — skipped entirely
    // when no one is listening.
    std::vector<Binding> Inputs;
    if (Listener) {
      Inputs = std::move(EntryInputs);
      // var parameters that were read before being written.
      for (const auto &[C, V] : Frame.FirstReads)
        if (const pascal::VarDecl *P = paramOfCell(Act, Callee, C))
          Inputs.push_back({P->getName(), V});
      // Global (non-parameter) reads.
      for (const auto &[C, V] : Frame.FirstReads)
        if (!paramOfCell(Act, Callee, C))
          Inputs.push_back({nameOfCell(&Act, C), V});
    }

    // Outputs: var/out parameters in declared order, then global writes,
    // then the function result. The dependence merges are semantics (they
    // persist in the written cells), so they run with or without bindings.
    std::vector<Binding> Outputs;
    std::vector<DepSet> OutputDeps;
    std::optional<DepSet> UnitDeps;
    if (Opts.TrackDeps)
      UnitDeps = unitDeps(NodeId, Caller);
    // The listener's OutputDeps stay parallel to Outputs: a listener implies
    // WantOut.
    auto finalizeOut = [&](CellRef C) {
      if (UnitDeps) {
        CellDeps[C].mergeWith(*UnitDeps);
        if (Listener)
          OutputDeps.push_back(CellDeps[C]);
      }
    };
    for (const auto &P : Callee->getParams()) {
      if (!P->isReference())
        continue;
      CellRef C = Act.Slots[P->getSlot()];
      if (C == NoCell)
        continue;
      if (writtenInFrame(Frame, C) || P->getMode() == pascal::ParamMode::Out) {
        finalizeOut(C);
        if (WantOut)
          Outputs.push_back({P->getName(), Arena[C].V});
      }
    }
    for (CellRef C : Frame.Writes)
      if (!paramOfCell(Act, Callee, C)) {
        finalizeOut(C);
        if (WantOut)
          Outputs.push_back({nameOfCell(&Act, C), Arena[C].V});
      }
    if (Callee->isFunction()) {
      CellRef C = Act.Slots[Callee->getResultVar()->getSlot()];
      if (C != NoCell) {
        if (Opts.DetectUninitialized && Arena[C].V.isUnset() && !Failed)
          fail(Callee->getLoc(), "function '" + Callee->getName() +
                                     "' returns without assigning its "
                                     "result");
        finalizeOut(C);
        if (WantOut)
          Outputs.push_back({Callee->getName(), Arena[C].V});
        if (Result)
          *Result = std::move(Arena[C].V);
        if (ResultDeps)
          *ResultDeps = std::move(CellDeps[C]);
      }
    }

    if (Listener) {
      if (OutputsOut)
        Listener->exitUnit(NodeId, std::move(Inputs), Outputs,
                           std::move(OutputDeps));
      else
        Listener->exitUnit(NodeId, std::move(Inputs), std::move(Outputs),
                           std::move(OutputDeps));
    }
    if (OutputsOut)
      *OutputsOut = std::move(Outputs);
  }

  //===--------------------------------------------------------------------===//
  // Unit protocol: loops and iterations
  //===--------------------------------------------------------------------===//

  /// Pushes a frame + listener event for a loop or iteration unit; returns
  /// the node id (0 when this unit kind is not traced).
  uint32_t enterLoopUnit(UnitKind Kind, support::Symbol Name,
                         const pascal::Stmt *LoopStmt, uint32_t IterIndex,
                         SourceLoc Loc, Activation &A) {
    if (!Opts.TraceLoops)
      return 0;
    if (Kind == UnitKind::Iteration && !Opts.TraceIterations)
      return 0;
    uint32_t NodeId = ++NodeCounter;
    if (Listener) {
      UnitStart Start;
      Start.NodeId = NodeId;
      Start.Kind = Kind;
      Start.Name = Name;
      Start.LoopStmt = LoopStmt;
      Start.IterIndex = IterIndex;
      Start.Loc = Loc;
      Listener->enterUnit(Start);
    }
    UnitFrame &F = pushFrame();
    F.NodeId = NodeId;
    F.Kind = Kind;
    F.Watermark = CellSerial + 1;
    F.FrameId = ++FrameCounter;
    F.Act = &A;
    return NodeId;
  }

  void exitLoopUnit(uint32_t NodeId, Activation &A) {
    if (NodeId == 0)
      return;
    UnitFrame &Frame = Frames[--FrameTop]; // pop; see finishCallUnit
    std::vector<Binding> Inputs, Outputs;
    std::vector<DepSet> OutputDeps;
    if (Listener)
      for (const auto &[C, V] : Frame.FirstReads)
        Inputs.push_back({nameOfCell(&A, C), V});
    std::optional<DepSet> UnitDeps;
    if (Opts.TrackDeps)
      UnitDeps = unitDeps(NodeId, &A);
    for (CellRef C : Frame.Writes) {
      if (UnitDeps) {
        CellDeps[C].mergeWith(*UnitDeps);
        if (Listener)
          OutputDeps.push_back(CellDeps[C]);
      }
      if (Listener)
        Outputs.push_back({nameOfCell(&A, C), Arena[C].V});
    }
    if (Listener)
      Listener->exitUnit(NodeId, std::move(Inputs), std::move(Outputs),
                         std::move(OutputDeps));
  }

  //===--------------------------------------------------------------------===//
  // Program entry and exit (the root unit)
  //===--------------------------------------------------------------------===//

  /// Sets up \p Act as the main activation: globals become fresh cells.
  /// \p Act must already be empty/reset.
  void setUpMainActivation(Activation &Act) {
    Act.R = Prog.getMain();
    Act.StaticLink = nullptr;
    Act.Watermark = CellSerial + 1;
    Act.Slots.assign(Prog.getMain()->getNumSlots(), NoCell);
    Act.CtrlStack.clear();
    for (const auto &G : Prog.getMain()->getLocals())
      Act.Slots[G->getSlot()] = newCell(G.get(), initialValue(G->getType()));
  }

  /// Raises the enter event for the root (whole-program) unit and pushes
  /// its observation frame. Returns the root node id.
  uint32_t enterRoot(Activation &Main) {
    uint32_t RootId = ++NodeCounter;
    if (Listener) {
      UnitStart Start;
      Start.NodeId = RootId;
      Start.Kind = UnitKind::Call;
      Start.Name = Prog.getMain()->getName();
      Start.Routine = Prog.getMain();
      Start.Loc = Prog.getMain()->getLoc();
      Listener->enterUnit(Start);
    }
    UnitFrame &F = pushFrame();
    F.NodeId = RootId;
    F.Kind = UnitKind::Call;
    F.Watermark = CellSerial + 1;
    F.FrameId = ++FrameCounter;
    F.Act = &Main;
    return RootId;
  }

  /// Pops the root frame, assembles the final-global bindings and raises
  /// the root exit event (globals plus the collected `<output>` text).
  void exitRoot(uint32_t RootId, Activation &Main, ExecResult &Res) {
    --FrameTop;
    for (const auto &G : Prog.getMain()->getLocals())
      Res.FinalGlobals.push_back(
          {G->getName(), Arena[Main.Slots[G->getSlot()]].V});
    if (Listener) {
      std::vector<Binding> Outputs = Res.FinalGlobals;
      std::vector<DepSet> OutputDeps;
      if (Opts.TrackDeps)
        for (const auto &G : Prog.getMain()->getLocals())
          OutputDeps.push_back(CellDeps[Main.Slots[G->getSlot()]]);
      if (!Output.empty()) {
        Outputs.push_back({"<output>", Value::makeStr(Output)});
        if (Opts.TrackDeps)
          OutputDeps.emplace_back();
      }
      Listener->exitUnit(RootId, {}, std::move(Outputs),
                         std::move(OutputDeps));
    }
  }
};

} // namespace interp
} // namespace gadt

#endif // GADT_INTERP_EXECSTATE_H
