//===- Passes.cpp - Bytecode middle-end -----------------------------------===//
//
// See Passes.h for the pipeline and the transcript-preservation argument.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Passes.h"

#include <algorithm>
#include <unordered_map>

using namespace gadt;
using namespace gadt::bytecode;
using namespace gadt::interp;

namespace {

bool isReg(uint16_t O) { return (O & OpModeMask) == OpReg; }
bool isCell(uint16_t O) { return isCellOperand(O); }
bool isConst(uint16_t O) { return (O & OpModeMask) == OpConst; }

/// Bool-producing comparisons/logic ops — the fusible branch feeders.
bool isCmpLike(Op O) {
  switch (O) {
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
    return true;
  default:
    return false;
  }
}

/// Binary ops that cannot fail at runtime (everything but Div/Mod) —
/// eligible for BinStore fusion and, with const operands, for folding
/// without losing a runtime error.
bool isPureBin(Op O) {
  switch (O) {
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
    return true;
  default:
    return isCmpLike(O);
  }
}

/// Scratch buffers shared by the passes within one optimizeRoutine call and
/// reused across calls (one instance per compiling thread). The passes run
/// once per routine, and for the many small routines of a real program the
/// allocation of these vectors costs more than the scans themselves — the
/// compile-time benchmarks (`BM_BytecodeCompileChain`) gate on this.
struct OptScratch {
  std::vector<char> Targets;                        ///< branchTargets
  std::vector<int32_t> RC;                          ///< folding lattice
  std::vector<std::pair<uint16_t, uint16_t>> Avail; ///< checked-load cache
  std::vector<uint32_t> Reads;                      ///< register read counts
  std::vector<char> Dead;                           ///< dead-before-clobber
  std::vector<uint32_t> NewPC;                      ///< compaction remap
};

/// Marks every instruction index that is the target of a branch or a goto
/// landing site (into \p T, resized to fit). One extra slot for
/// end-of-code targets.
void branchTargets(const std::vector<Instr> &Code,
                   const std::vector<LabelInfo> *Labels,
                   std::vector<char> &T) {
  T.assign(Code.size() + 1, 0);
  if (Labels)
    for (const LabelInfo &L : *Labels)
      if (L.Target < T.size())
        T[L.Target] = 1;
  for (const Instr &I : Code) {
    switch (I.Code) {
    case Op::Jmp:
    case Op::IfBr:
    case Op::WhileTest:
    case Op::RepeatTest:
    case Op::ForTest:
    case Op::IterEnd:
    case Op::ForEnd:
    case Op::CmpBr:
    case Op::CmpWhile:
      if (I.Aux < T.size())
        T[I.Aux] = 1;
      break;
    default:
      break;
    }
  }
}

/// Allocating convenience form for one-shot callers (staticPairFrequencies).
std::vector<char> branchTargets(const CompiledRoutine &CR) {
  std::vector<char> T;
  branchTargets(CR.Code, &CR.Labels, T);
  return T;
}

/// Evaluates a foldable binary op over two constants. False = not
/// foldable (type mismatch on a malformed pool, or a Div/Mod whose zero
/// divisor must keep failing at runtime).
bool foldBin(Op K, const Value &L, const Value &R, Value &Out) {
  auto II = [&] { return L.isInt() && R.isInt(); };
  auto BB = [&] { return L.isBool() && R.isBool(); };
  switch (K) {
  case Op::Add:
    if (!II())
      return false;
    Out = Value::makeInt(L.asInt() + R.asInt());
    return true;
  case Op::Sub:
    if (!II())
      return false;
    Out = Value::makeInt(L.asInt() - R.asInt());
    return true;
  case Op::Mul:
    if (!II())
      return false;
    Out = Value::makeInt(L.asInt() * R.asInt());
    return true;
  case Op::DivOp:
    if (!II() || R.asInt() == 0)
      return false;
    Out = Value::makeInt(L.asInt() / R.asInt());
    return true;
  case Op::ModOp:
    if (!II() || R.asInt() == 0)
      return false;
    Out = Value::makeInt(L.asInt() % R.asInt());
    return true;
  case Op::EqI:
    if (!II())
      return false;
    Out = Value::makeBool(L.asInt() == R.asInt());
    return true;
  case Op::NeI:
    if (!II())
      return false;
    Out = Value::makeBool(L.asInt() != R.asInt());
    return true;
  case Op::Lt:
    if (!II())
      return false;
    Out = Value::makeBool(L.asInt() < R.asInt());
    return true;
  case Op::Le:
    if (!II())
      return false;
    Out = Value::makeBool(L.asInt() <= R.asInt());
    return true;
  case Op::Gt:
    if (!II())
      return false;
    Out = Value::makeBool(L.asInt() > R.asInt());
    return true;
  case Op::Ge:
    if (!II())
      return false;
    Out = Value::makeBool(L.asInt() >= R.asInt());
    return true;
  case Op::EqB:
    if (!BB())
      return false;
    Out = Value::makeBool(L.asBool() == R.asBool());
    return true;
  case Op::NeB:
    if (!BB())
      return false;
    Out = Value::makeBool(L.asBool() != R.asBool());
    return true;
  case Op::AndB:
    if (!BB())
      return false;
    Out = Value::makeBool(L.asBool() && R.asBool());
    return true;
  case Op::OrB:
    if (!BB())
      return false;
    Out = Value::makeBool(L.asBool() || R.asBool());
    return true;
  default:
    return false;
  }
}

/// Appends (or finds, within this routine's segment) a scalar constant.
/// Returns -1 when the pool index space is exhausted — the fold is simply
/// skipped then. Deduplication stays inside [Base, end): operands encode
/// absolute pool indices, but incremental replay shifts them per segment,
/// so a routine must never reference another routine's rows.
int findOrAddConst(std::vector<Value> &Consts, size_t Base, const Value &V) {
  for (size_t I = Base; I != Consts.size(); ++I) {
    const Value &C = Consts[I];
    if (V.isInt() && C.isInt() && C.asInt() == V.asInt())
      return static_cast<int>(I);
    if (V.isBool() && C.isBool() && C.asBool() == V.asBool())
      return static_cast<int>(I);
  }
  if (Consts.size() > MaxRegOrConst)
    return -1;
  Consts.push_back(V);
  return static_cast<int>(Consts.size() - 1);
}

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

/// Caller provides S.Targets (valid until the next compaction: the elision
/// passes only write Nops in place, never renumber).
uint32_t foldConstants(std::vector<Instr> &Code, uint32_t NumRegs,
                       std::vector<Value> &Consts, size_t ConstBase,
                       OptScratch &S) {
  const std::vector<char> &Targets = S.Targets;
  // Lattice: register -> absolute const-pool index, -1 = unknown (top).
  // Values that are known constants provably carry an empty DepSet, so
  // rewriting a register operand to the constant changes no dependence
  // flow, only the fetch.
  S.RC.assign(NumRegs, -1);
  std::vector<int32_t> &RC = S.RC;
  uint32_t Folded = 0;

  auto killReg = [&](uint16_t R) {
    if (R < RC.size())
      RC[R] = -1;
  };
  auto prop = [&](uint16_t &Opnd) {
    if (isReg(Opnd) && Opnd < RC.size() && RC[Opnd] >= 0)
      Opnd = makeConstOperand(static_cast<uint16_t>(RC[Opnd]));
  };
  // Replace a pure compute instruction with a constant load.
  auto rewriteToConst = [&](Instr &I, const Value &V) {
    int CI = findOrAddConst(Consts, ConstBase, V);
    if (CI < 0)
      return false;
    I.Code = Op::Load;
    I.B = makeConstOperand(static_cast<uint16_t>(CI));
    I.C = 0;
    I.Aux = 0;
    RC[I.A] = CI;
    ++Folded;
    return true;
  };

  for (size_t PC = 0; PC != Code.size(); ++PC) {
    if (Targets[PC]) // merge point: drop all facts
      std::fill(RC.begin(), RC.end(), -1);
    Instr &I = Code[PC];
    switch (I.Code) {
    case Op::Load:
      prop(I.B);
      if (isConst(I.B))
        RC[I.A] = static_cast<int32_t>(I.B & ~OpModeMask);
      else if (isReg(I.B) && I.B < RC.size())
        RC[I.A] = RC[I.B];
      else
        killReg(I.A);
      break;
    case Op::LoadChecked:
    case Op::ReadFetch:
    case Op::ArrayLit:
      killReg(I.A);
      break;
    case Op::StepLoad: // not emitted before fusion, but stay safe
      prop(I.B);
      killReg(I.A);
      break;
    case Op::LoadBin: // likewise post-fusion only
      prop(I.B);
      prop(I.C);
      killReg(I.A);
      break;
    case Op::LoadIdx:
      prop(I.C);
      killReg(I.A);
      break;
    case Op::Store:
      prop(I.B);
      break;
    case Op::StoreIdx:
      prop(I.B);
      prop(I.C);
      break;
    case Op::WriteVal:
    case Op::IfBr:
    case Op::WhileTest:
    case Op::RepeatTest:
      prop(I.A);
      break;
    case Op::ForPrep:
      prop(I.A);
      prop(I.B);
      break;
    case Op::NotB:
    case Op::NegI: {
      prop(I.B);
      if (isConst(I.B)) {
        const Value &V = Consts[I.B & ~OpModeMask];
        if (I.Code == Op::NotB && V.isBool()) {
          if (rewriteToConst(I, Value::makeBool(!V.asBool())))
            break;
        } else if (I.Code == Op::NegI && V.isInt()) {
          if (rewriteToConst(I, Value::makeInt(-V.asInt())))
            break;
        }
      }
      killReg(I.A);
      break;
    }
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::DivOp:
    case Op::ModOp:
    case Op::EqI:
    case Op::NeI:
    case Op::EqB:
    case Op::NeB:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::AndB:
    case Op::OrB: {
      prop(I.B);
      prop(I.C);
      if (isConst(I.B) && isConst(I.C)) {
        Value Out;
        if (foldBin(I.Code, Consts[I.B & ~OpModeMask],
                    Consts[I.C & ~OpModeMask], Out) &&
            rewriteToConst(I, Out))
          break;
      }
      killReg(I.A);
      break;
    }
    case Op::Call:
      if (I.A != NoDest)
        killReg(I.A);
      break;
    default:
      // Jumps, loop structure, Step, PopCtrl, CallGuard, Ret, WriteNl:
      // no register writes, no operand worth rewriting.
      break;
    }
  }
  return Folded;
}

//===----------------------------------------------------------------------===//
// Redundant LoadChecked elision
//===----------------------------------------------------------------------===//

uint32_t elideRedundantChecked(std::vector<Instr> &Code, OptScratch &S) {
  // Unchecked compiles emit no LoadChecked at all; a tight opcode scan is
  // far cheaper than running the availability analysis to find nothing.
  if (std::none_of(Code.begin(), Code.end(), [](const Instr &I) {
        return I.Code == Op::LoadChecked;
      }))
    return 0;
  const std::vector<char> &Targets = S.Targets;
  // (cell operand, register still holding its checked value) — a flat
  // vector, not a hash map: the cache holds a handful of entries per
  // straight-line region, so linear scans beat hashing.
  auto &Avail = S.Avail;
  Avail.clear();
  uint32_t Elided = 0;

  auto killRegWrites = [&](uint16_t R) {
    Avail.erase(std::remove_if(Avail.begin(), Avail.end(),
                               [R](const auto &E) { return E.second == R; }),
                Avail.end());
  };

  for (size_t PC = 0; PC != Code.size(); ++PC) {
    if (Targets[PC])
      Avail.clear();
    Instr &I = Code[PC];
    switch (I.Code) {
    case Op::LoadChecked: {
      auto It = std::find_if(Avail.begin(), Avail.end(),
                             [&](const auto &E) { return E.first == I.B; });
      if (It != Avail.end()) {
        // The earlier load proved the cell set and recorded the read in
        // every live unit frame (no store, call or frame push intervened,
        // so both the check and the observeRead are no-ops here). Copy
        // the register instead — value and DepSet are identical.
        uint16_t Src = It->second;
        killRegWrites(I.A);
        if (I.A == Src) {
          // Register reuse landed the reload on its own source (nothing
          // wrote it in between, or the entry would be gone): drop it.
          I = {Op::Nop, 0, 0, 0, 0};
        } else {
          I.Code = Op::Load;
          I.B = makeRegOperand(Src);
          I.Aux = 0;
        }
        ++Elided;
      } else {
        killRegWrites(I.A);
        Avail.emplace_back(I.B, I.A);
      }
      break;
    }
    // Any cell write may alias the guarded cell through a ref parameter,
    // changing its value/deps — drop everything.
    case Op::Store:
    case Op::StoreIdx:
      Avail.clear();
      break;
    // Calls write cells and push a unit frame; loop ops push/pop unit
    // frames (a read inside a fresh frame is observable again). ForIter
    // also stores the loop variable.
    case Op::Call:
    case Op::LoopEnter:
    case Op::IterBegin:
    case Op::IterEnd:
    case Op::ForPrep:
    case Op::ForIter:
    case Op::ForEnd:
    case Op::LoopExit:
    case Op::ForExit:
    case Op::Jmp:
    case Op::Goto:
      Avail.clear();
      break;
    // Plain register writers invalidate the cached copy only.
    case Op::Load:
    case Op::LoadIdx:
    case Op::ArrayLit:
    case Op::NotB:
    case Op::NegI:
    case Op::ReadFetch:
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::DivOp:
    case Op::ModOp:
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
      killRegWrites(I.A);
      break;
    default:
      break;
    }
  }
  return Elided;
}

//===----------------------------------------------------------------------===//
// Dead-store elision
//===----------------------------------------------------------------------===//

uint32_t elideDeadStores(std::vector<Instr> &Code, uint32_t NumRegs,
                         const std::vector<CallSiteInfo> &Sites,
                         const std::vector<ArgDesc> &ArgPool, OptScratch &S) {
  S.Reads.assign(NumRegs, 0);
  std::vector<uint32_t> &Reads = S.Reads;
  auto account = [&](const Instr &I, int32_t Dir) {
    auto rd = [&](uint16_t O) {
      if (isReg(O) && O < Reads.size())
        Reads[O] += static_cast<uint32_t>(Dir);
    };
    switch (I.Code) {
    case Op::Load:
    case Op::NotB:
    case Op::NegI:
    case Op::StepLoad:
      rd(I.B);
      break;
    case Op::Store:
      rd(I.B);
      break;
    case Op::LoadIdx:
      rd(I.C);
      break;
    case Op::StoreIdx:
      rd(I.B);
      rd(I.C);
      break;
    case Op::ArrayLit:
      for (uint16_t K = 0; K != I.C; ++K)
        rd(static_cast<uint16_t>(I.B + K));
      break;
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::DivOp:
    case Op::ModOp:
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
    case Op::BinStore:
    case Op::CmpBr:
    case Op::CmpWhile:
    case Op::LoadBin:
      rd(I.B);
      rd(I.C);
      break;
    case Op::IfBr:
    case Op::WhileTest:
    case Op::RepeatTest:
    case Op::WriteVal:
      rd(I.A);
      break;
    case Op::ForPrep:
      rd(I.A);
      rd(I.B);
      break;
    case Op::Call: {
      const CallSiteInfo &Site = Sites[I.Aux];
      for (uint32_t K = 0; K != Site.ArgCount; ++K) {
        const ArgDesc &AD = ArgPool[Site.ArgStart + K];
        if (!AD.IsRef)
          rd(AD.Operand); // value args live in caller registers
      }
      break;
    }
    default:
      break;
    }
  };

  for (const Instr &I : Code)
    if (I.Code != Op::Nop)
      account(I, +1);

  uint32_t Elided = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (Instr &I : Code) {
      bool Eligible = false;
      switch (I.Code) {
      case Op::Load:
      case Op::NotB:
      case Op::NegI:
        // A cell-sourced load observes the read (dynamic input sets) —
        // only pure register/constant data flow may disappear.
        Eligible = !isCell(I.B);
        break;
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
        // Div/Mod can fail; never elide those.
        Eligible = !isCell(I.B) && !isCell(I.C);
        break;
      default:
        break;
      }
      if (!Eligible || I.A >= Reads.size() || Reads[I.A] != 0)
        continue;
      account(I, -1);
      I.Code = Op::Nop;
      ++Elided;
      Changed = true;
    }
  }
  return Elided;
}

/// Elides register writes that a later write in the same straight-line run
/// clobbers before any read. The global pass above only catches registers
/// that are *never* read; constant folding routinely leaves `Load rT <- k`
/// whose consumers were all rewritten to constant operands while rT stays
/// live elsewhere in the routine — invisible to a global read count.
///
/// One backward scan per call, tracking the dead-register set within a
/// straight-line region. Any instruction with a non-fallthrough successor
/// (its live-out includes code we did not scan) or with effects the model
/// does not cover resets the set to empty — conservatively everything is
/// live. Registers are VM-internal, so an elided dead write is unobservable
/// even when a later Step/Div fails and halts the block early; eligibility
/// is the same as elideDeadStores (no cell-sourced operands, never
/// Div/Mod), so no observeRead disappears.
uint32_t elideOverwrittenWrites(std::vector<Instr> &Code, uint32_t NumRegs,
                                OptScratch &S) {
  S.Dead.assign(NumRegs, 0);
  std::vector<char> &Dead = S.Dead;
  auto reset = [&] { std::fill(Dead.begin(), Dead.end(), 0); };
  auto useReg = [&](uint16_t O) {
    if (isReg(O) && O < Dead.size())
      Dead[O] = 0;
  };
  auto defReg = [&](uint16_t A) {
    if (A < Dead.size())
      Dead[A] = 1;
  };

  uint32_t Elided = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    reset();
    for (size_t K = Code.size(); K-- > 0;) {
      Instr &I = Code[K];
      bool Eligible = false;
      switch (I.Code) {
      case Op::Load:
      case Op::NotB:
      case Op::NegI:
        Eligible = !isCell(I.B);
        break;
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
        Eligible = !isCell(I.B) && !isCell(I.C);
        break;
      default:
        break;
      }
      if (Eligible && I.A < Dead.size() && Dead[I.A]) {
        // An elided instruction contributes no defs or uses: the later
        // clobber still kills the register upstream, and its operands do
        // not come live.
        I.Code = Op::Nop;
        ++Elided;
        Changed = true;
        continue;
      }
      switch (I.Code) {
      // No register access, always falls through.
      case Op::Step:
      case Op::Nop:
      case Op::PopCtrl:
      case Op::LoopEnter:
      case Op::CallGuard:
      case Op::WriteNl:
        break;
      // def A, use B.
      case Op::Load:
      case Op::LoadChecked:
      case Op::NotB:
      case Op::NegI:
      case Op::StepLoad:
        defReg(I.A);
        useReg(I.B);
        break;
      // def A, use B and C. Div/Mod can fail mid-block, but registers are
      // not externally observable, so the kill is still sound.
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::DivOp:
      case Op::ModOp:
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
      case Op::LoadBin:
        defReg(I.A);
        useReg(I.B);
        useReg(I.C);
        break;
      case Op::ReadFetch:
        defReg(I.A);
        break;
      case Op::Store:
        useReg(I.A);
        useReg(I.B);
        break;
      case Op::BinStore:
        useReg(I.B);
        useReg(I.C);
        break;
      case Op::WriteVal:
        useReg(I.A);
        break;
      case Op::ArrayLit: // B is a raw register base, C a count
        defReg(I.A);
        for (uint16_t E = 0; E != I.C; ++E)
          useReg(static_cast<uint16_t>(I.B + E));
        break;
      // Branches, calls, loop machinery, indexing: live-out unknown or
      // effects unmodeled.
      default:
        reset();
        break;
      }
    }
  }
  return Elided;
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion
//===----------------------------------------------------------------------===//

uint32_t fuseSuperinstructions(std::vector<Instr> &Code,
                               const std::vector<LabelInfo> *Labels,
                               OptScratch &S) {
  branchTargets(Code, Labels, S.Targets);
  const std::vector<char> &Targets = S.Targets;
  uint32_t Fused = 0;
  for (size_t PC = 0; PC + 1 < Code.size(); ++PC) {
    if (Targets[PC + 1])
      continue; // a jump into the middle of the pair must keep slot 2
    Instr &I1 = Code[PC];
    Instr &I2 = Code[PC + 1];

    // Step + Load: the statement's step accounting rides on its first
    // fetch (batching the unit-event call into the data move).
    if (I1.Code == Op::Step && I2.Code == Op::Load) {
      I1 = {Op::StepLoad, I2.A, I2.B, 0, I1.Aux};
      I2 = {Op::Nop, 0, 0, 0, 0};
      ++Fused;
      ++PC;
      continue;
    }

    // Load + binop where the binop overwrites the loaded temporary: the
    // fused form computes straight into it, so any later reader of the
    // register sees the same value either way. Requires exactly one binop
    // operand to be the temporary (both sides would need the pre-binop
    // value twice, which the fused fetch order cannot reproduce).
    if (I1.Code == Op::Load && isPureBin(I2.Code) && I2.A == I1.A) {
      bool LIsT = isReg(I2.B) && I2.B == I1.A;
      bool RIsT = isReg(I2.C) && I2.C == I1.A;
      if (LIsT != RIsT) {
        uint32_t Aux = static_cast<uint16_t>(I2.Code) | (LIsT ? 0u : 1u << 16);
        I1 = {Op::LoadBin, I2.A, I1.B, LIsT ? I2.C : I2.B, Aux};
        I2 = {Op::Nop, 0, 0, 0, 0};
        ++Fused;
        ++PC;
        continue;
      }
    }

    if (!isPureBin(I1.Code))
      continue;
    uint16_t Kind = static_cast<uint16_t>(I1.Code);

    // cmp + IfBr / loop test: the compare's destination register is a
    // statement-local temporary consumed exactly once by the branch.
    if (isCmpLike(I1.Code) && I2.Code == Op::IfBr && isReg(I2.A) &&
        I2.A == I1.A) {
      I1 = {Op::CmpBr, Kind, I1.B, I1.C, I2.Aux};
      I2 = {Op::Nop, 0, 0, 0, 0};
      ++Fused;
      ++PC;
      continue;
    }
    if (isCmpLike(I1.Code) &&
        (I2.Code == Op::WhileTest || I2.Code == Op::RepeatTest) &&
        isReg(I2.A) && I2.A == I1.A) {
      I1 = {Op::CmpWhile, Kind, I1.B, I1.C, I2.Aux};
      I2 = {Op::Nop, 0, 0, 0, 0};
      ++Fused;
      ++PC;
      continue;
    }

    // binop + Store of its result (Div/Mod excluded: they can fail
    // between the fetches and the store).
    if (I2.Code == Op::Store && isReg(I2.B) && I2.B == I1.A) {
      I1 = {Op::BinStore, I2.A, I1.B, I1.C, Kind};
      I2 = {Op::Nop, 0, 0, 0, 0};
      ++Fused;
      ++PC;
      continue;
    }
  }
  return Fused;
}

//===----------------------------------------------------------------------===//
// Compaction
//===----------------------------------------------------------------------===//

/// Strips Nop placeholders and remaps branch targets and goto landing
/// sites. A target pointing at a stripped slot lands on the next surviving
/// instruction.
void compact(std::vector<Instr> &Code, std::vector<LabelInfo> *Labels,
             OptScratch &S) {
  S.NewPC.resize(Code.size() + 1);
  std::vector<uint32_t> &NewPC = S.NewPC;
  uint32_t N = 0;
  for (size_t I = 0; I != Code.size(); ++I) {
    NewPC[I] = N;
    if (Code[I].Code != Op::Nop)
      ++N;
  }
  NewPC[Code.size()] = N;
  if (N == Code.size())
    return;
  size_t W = 0;
  for (size_t I = 0; I != Code.size(); ++I) {
    if (Code[I].Code == Op::Nop)
      continue;
    Instr In = Code[I];
    switch (In.Code) {
    case Op::Jmp:
    case Op::IfBr:
    case Op::WhileTest:
    case Op::RepeatTest:
    case Op::ForTest:
    case Op::IterEnd:
    case Op::ForEnd:
    case Op::CmpBr:
    case Op::CmpWhile:
      In.Aux = NewPC[In.Aux];
      break;
    default:
      break;
    }
    Code[W++] = In;
  }
  Code.resize(W);
  if (Labels)
    for (LabelInfo &L : *Labels) {
      L.Target = NewPC[L.Target];
      L.ScopeBegin = NewPC[L.ScopeBegin];
      L.ScopeEnd = NewPC[L.ScopeEnd];
    }
}

} // namespace

void bytecode::optimizeRoutine(std::vector<Instr> &Code, uint32_t NumRegs,
                               std::vector<Value> &Consts, size_t ConstBase,
                               const std::vector<CallSiteInfo> &Sites,
                               const std::vector<ArgDesc> &ArgPool,
                               const CompileOptions &Opts, OptStats &Stats,
                               std::vector<LabelInfo> *Labels) {
  // One scratch per compiling thread: routine bodies are often tiny, and
  // re-allocating the pass buffers per routine would dominate the passes.
  static thread_local OptScratch S;
  if (Opts.Optimize) {
    // One branch-target map serves folding and checked-load elision: both
    // only rewrite instructions in place (Nops included), so instruction
    // numbering stays valid until the compaction below.
    branchTargets(Code, Labels, S.Targets);
    Stats.Folded += foldConstants(Code, NumRegs, Consts, ConstBase, S);
    uint32_t Chk = elideRedundantChecked(Code, S);
    // Overwritten-before-read first: each elision it makes can turn a
    // feeding write into a never-read one for the global pass below.
    uint32_t Over = elideOverwrittenWrites(Code, NumRegs, S);
    uint32_t Dead = elideDeadStores(Code, NumRegs, Sites, ArgPool, S);
    Stats.LoadsElided += Chk;
    Stats.Overwritten += Over;
    Stats.DeadStores += Dead;
    // Folding rewrites in place and never leaves a Nop behind — only the
    // elision passes do, so a routine they left untouched needs no sweep.
    if (Chk + Over + Dead)
      compact(Code, Labels, S);
  }
  if (Opts.Fuse) {
    uint32_t Fused = fuseSuperinstructions(Code, Labels, S);
    Stats.Fused += Fused;
    if (Fused)
      compact(Code, Labels, S);
  }
}

std::vector<std::pair<std::pair<Op, Op>, uint32_t>>
bytecode::staticPairFrequencies(const CompiledProgram &CP) {
  std::unordered_map<uint32_t, uint32_t> Counts;
  for (const CompiledRoutine &CR : CP.Routines) {
    std::vector<char> Targets = branchTargets(CR);
    for (size_t I = 0; I + 1 < CR.Code.size(); ++I) {
      if (Targets[I + 1])
        continue;
      uint32_t Key = (static_cast<uint32_t>(CR.Code[I].Code) << 16) |
                     static_cast<uint32_t>(CR.Code[I + 1].Code);
      ++Counts[Key];
    }
  }
  std::vector<std::pair<std::pair<Op, Op>, uint32_t>> Out;
  Out.reserve(Counts.size());
  for (const auto &[Key, N] : Counts)
    Out.push_back({{static_cast<Op>(Key >> 16),
                    static_cast<Op>(Key & 0xFFFF)},
                   N});
  std::sort(Out.begin(), Out.end(), [](const auto &A, const auto &B) {
    if (A.second != B.second)
      return A.second > B.second;
    return A.first < B.first;
  });
  return Out;
}
