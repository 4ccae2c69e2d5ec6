//===- EditSession.cpp - Incremental, transactional recompute -------------===//

#include "runtime/EditSession.h"

#include "analysis/CallGraph.h"
#include "analysis/SideEffects.h"
#include "obs/Trace.h"
#include "pascal/ASTMatch.h"
#include "pascal/Frontend.h"
#include "support/Hashing.h"

#include <unordered_map>

using namespace gadt;
using namespace gadt::runtime;
using namespace gadt::pascal;

namespace {

/// Hash of a routine's caller-observable effect summary. Non-local
/// variables are identified by (name, depth, slot) — stable across edits
/// that leave the owning frame's layout alone, which is exactly when
/// callers may replay.
uint64_t effectSigOf(const analysis::RoutineEffects &E) {
  std::string S;
  auto FoldVar = [&S](const VarDecl *V) {
    S += V->getName();
    S += '@';
    S += std::to_string(V->getDepth());
    S += ':';
    S += std::to_string(V->getSlot());
    S += ';';
  };
  for (const VarDecl *V : E.GRef)
    FoldVar(V);
  S += '|';
  for (const VarDecl *V : E.GMod)
    FoldVar(V);
  S += '|';
  for (unsigned I : E.RefParams) {
    S += std::to_string(I);
    S += ',';
  }
  S += '|';
  for (unsigned I : E.ModParams) {
    S += std::to_string(I);
    S += ',';
  }
  return hashBytes(S);
}

std::vector<uint64_t>
effectSigsFor(const analysis::SideEffectAnalysis &SE,
              const std::vector<RoutineFingerprint> &Fps) {
  std::vector<uint64_t> Sigs;
  Sigs.reserve(Fps.size());
  for (const RoutineFingerprint &FP : Fps)
    Sigs.push_back(effectSigOf(SE.effects(FP.Routine)));
  return Sigs;
}

} // namespace

EditSession::EditSession() = default;

EditSession::~EditSession() = default;

EditTransaction EditSession::begin(const std::string &Source) {
  EditTransaction T;
  T.Session = this;
  DiagnosticsEngine Diags;
  std::unique_ptr<Program> P = parseAndCheck(Source, Diags);
  if (!P) {
    T.Errors = Diags.str();
    return T;
  }
  T.Prog = std::shared_ptr<const Program>(std::move(P));
  return T;
}

IncrementalStats EditTransaction::commit() {
  IncrementalStats S;
  if (!Session || !Prog)
    return S; // invalid transaction: the session stays untouched
  EditSession *Owner = Session;
  Session = nullptr;
  S = Owner->commitStaged(std::move(Prog));
  Prog.reset();
  return S;
}

/// Cold path: build every artifact of \p Staged from scratch. Staged.Prog,
/// Fps and EffectSigs are already set.
void EditSession::coldBuild(
    State &Staged, std::shared_ptr<const analysis::SideEffectAnalysis> SEA,
    IncrementalStats &S) {
  S.FullRebuild = true;
  unsigned N = static_cast<unsigned>(Staged.Fps.size());
  S.RoutinesDirty = N;
  S.PdgRebuilt = N;
  S.SummaryRecomputed = N;
  analysis::SDGBuildOptions O;
  O.KeepReplayData = true;
  O.SharedCG = Staged.CG;
  O.SharedSEA = std::move(SEA);
  Staged.Graph = std::make_unique<analysis::SDG>(*Staged.Prog, O);
  Staged.Code = bytecode::compile(*Staged.Prog, /*Checked=*/false);
  S.CodeRecompiled = Staged.Code ? N : 0;
}

IncrementalStats EditSession::commitStaged(
    std::shared_ptr<const Program> NewProg) {
  obs::Span Span("incremental.commit", "runtime");
  IncrementalStats S;
  S.Committed = true;

  State Staged;
  Staged.Prog = std::move(NewProg);
  {
    obs::Span FpSpan("incremental.fingerprint", "runtime");
    Staged.Fps = fingerprintRoutines(*Staged.Prog);
  }
  S.RoutinesTotal = static_cast<unsigned>(Staged.Fps.size());

  // Incremental commits need the same routines in the same preorder
  // positions; adding, removing or reordering routines shifts every index
  // the reuse machinery keys on, so those edits rebuild cold.
  bool CanIncrement = St.Prog && St.Graph && St.Graph->hasReplayData() &&
                      St.Fps.size() == Staged.Fps.size();
  if (CanIncrement)
    for (size_t I = 0; I != St.Fps.size(); ++I)
      if (St.Fps[I].QualifiedName != Staged.Fps[I].QualifiedName) {
        CanIncrement = false;
        break;
      }

  // The call graph and effect sets feed the dirty rules below and the SDG
  // build (SharedCG/SharedSEA) — built exactly once per commit. On the
  // incremental path they are *seeded*: clean routines' call sites and
  // direct access sets are translated from the previous state through the
  // AstMap instead of re-walking every body, so the mapping is built first
  // and the dirty rules that need the new call graph run after it.
  std::shared_ptr<const analysis::SideEffectAnalysis> SEA;

  if (!CanIncrement) {
    {
      obs::Span EffSpan("incremental.effects", "runtime");
      Staged.CG = std::make_shared<const analysis::CallGraph>(*Staged.Prog);
      SEA = std::make_shared<const analysis::SideEffectAnalysis>(*Staged.Prog,
                                                                 *Staged.CG);
      Staged.EffectSigs = effectSigsFor(*SEA, Staged.Fps);
    }
    Staged.SEA = SEA;
    coldBuild(Staged, std::move(SEA), S);
  } else {
    const size_t N = Staged.Fps.size();
    std::unordered_map<const RoutineDecl *, size_t> NewIdx;
    for (size_t I = 0; I != N; ++I)
      NewIdx[Staged.Fps[I].Routine] = I;

    std::vector<char> HeaderChanged(N, 0), FrameChanged(N, 0),
        BodyChanged(N, 0), PdgDirty(N, 0), CodeDirty(N, 0);
    for (size_t I = 0; I != N; ++I) {
      HeaderChanged[I] = St.Fps[I].HeaderHash != Staged.Fps[I].HeaderHash;
      FrameChanged[I] = St.Fps[I].FrameHash != Staged.Fps[I].FrameHash;
      BodyChanged[I] = St.Fps[I].BodyHash != Staged.Fps[I].BodyHash;
      if (St.Fps[I].FullHash != Staged.Fps[I].FullHash)
        PdgDirty[I] = CodeDirty[I] = 1;
    }

    // A frame change re-slots the owner's frame; everything lexically
    // inside addresses it by (hops, slot), so the whole subtree rebuilds.
    // The subtree flag doubles as "binding may have changed": a frame edit
    // anywhere on the ancestor chain can re-bind names in this body (a new
    // local shadowing a global), which gates effect-set seeding below.
    std::vector<char> FrameSubtree(N, 0);
    for (size_t I = 0; I != N; ++I)
      for (const RoutineDecl *R = Staged.Fps[I].Routine; R;
           R = R->getParent())
        if (FrameChanged[NewIdx.at(R)]) {
          FrameSubtree[I] = 1;
          PdgDirty[I] = CodeDirty[I] = 1;
          break;
        }

    // Old->new AST correspondence for everything that may replay. Mapping
    // failures (which fingerprint equality should preclude) demote the
    // routine to a rebuild — never to a wrong replay.
    AstMap Map;
    std::vector<char> BodyMapped(N, 0);
    {
      obs::Span MapSpan("incremental.map", "runtime");
      Map.bindNewProgram(*Staged.Prog);
      for (size_t I = 0; I != N; ++I)
        Map.addRoutine(St.Fps[I].Routine, Staged.Fps[I].Routine);
      for (size_t I = 0; I != N; ++I) {
        if (!HeaderChanged[I] &&
            !Map.mapHeaderVars(St.Fps[I].Routine, Staged.Fps[I].Routine))
          PdgDirty[I] = CodeDirty[I] = 1;
        if (!FrameChanged[I] &&
            !Map.mapLocalVars(St.Fps[I].Routine, Staged.Fps[I].Routine))
          PdgDirty[I] = CodeDirty[I] = 1;
        if (!BodyChanged[I]) {
          if (Map.mapBody(St.Fps[I].Routine, Staged.Fps[I].Routine))
            BodyMapped[I] = 1;
          else
            PdgDirty[I] = CodeDirty[I] = 1;
        }
      }
    }

    {
      obs::Span EffSpan("incremental.effects", "runtime");
      // Call sites depend only on the body text, so a mapped body reuses
      // them outright. Direct access sets additionally depend on name
      // binding, so they seed only when no ancestor frame changed either;
      // per-routine translation failures inside fall back to the walk.
      Staged.CG = St.CG ? std::make_shared<const analysis::CallGraph>(
                              *Staged.Prog, *St.CG, Map, BodyMapped)
                        : std::make_shared<const analysis::CallGraph>(
                              *Staged.Prog);
      std::vector<char> CleanDirect(N, 0);
      for (size_t I = 0; I != N; ++I)
        CleanDirect[I] = (BodyMapped[I] && !FrameSubtree[I]) ? 1 : 0;
      // The walk's var-argument exclusion set depends on callee parameter
      // modes, so a callee header change stales the caller's direct sets
      // even though the caller's own text is untouched.
      for (const analysis::CallSite &CS : Staged.CG->allCallSites())
        if (CS.Callee && HeaderChanged[NewIdx.at(CS.Callee)])
          CleanDirect[NewIdx.at(CS.Caller)] = 0;
      SEA = std::make_shared<const analysis::SideEffectAnalysis>(
          *Staged.Prog, *Staged.CG, St.SEA.get(), &Map, &CleanDirect);
      Staged.EffectSigs = effectSigsFor(*SEA, Staged.Fps);
    }
    Staged.SEA = SEA;
    const analysis::CallGraph &NewCG = *Staged.CG;

    // A header change alters the caller side of every call (parameter
    // shapes, actual vertices, call-site code); an effect-signature change
    // alters only the caller's dependence vertices for globals — bytecode
    // never bakes callee effect sets.
    for (const analysis::CallSite &CS : NewCG.allCallSites()) {
      size_t Caller = NewIdx.at(CS.Caller), Callee = NewIdx.at(CS.Callee);
      if (HeaderChanged[Callee])
        PdgDirty[Caller] = CodeDirty[Caller] = 1;
      if (Staged.EffectSigs[Callee] != St.EffectSigs[Callee])
        PdgDirty[Caller] = 1;
    }

    // Summary pairs must re-solve for dirty routines and all transitive
    // callers (a callee's new pairs can change what flows through a caller's
    // call sites, hence the caller's own pairs).
    std::vector<std::vector<size_t>> CallersOf(N);
    for (const analysis::CallSite &CS : NewCG.allCallSites())
      CallersOf[NewIdx.at(CS.Callee)].push_back(NewIdx.at(CS.Caller));
    std::vector<char> Affected(PdgDirty);
    std::vector<size_t> Work;
    for (size_t I = 0; I != N; ++I)
      if (Affected[I])
        Work.push_back(I);
    while (!Work.empty()) {
      size_t I = Work.back();
      Work.pop_back();
      for (size_t C : CallersOf[I])
        if (!Affected[C]) {
          Affected[C] = 1;
          Work.push_back(C);
        }
    }

    analysis::SDGReusePlan Plan;
    Plan.Old = St.Graph.get();
    Plan.Map = &Map;
    Plan.Replay.resize(N);
    for (size_t I = 0; I != N; ++I)
      Plan.Replay[I] = !PdgDirty[I];
    Plan.SummaryAffected = Affected;
    analysis::SDGRebuildStats RS;
    analysis::SDGBuildOptions O;
    O.KeepReplayData = true;
    O.Reuse = &Plan;
    O.Stats = &RS;
    O.SharedCG = Staged.CG;
    O.SharedSEA = std::move(SEA);
    Staged.Graph = std::make_unique<analysis::SDG>(*Staged.Prog, O);
    S.PdgRebuilt = RS.PdgBuilt;
    S.PdgReplayed = RS.PdgReplayed;
    S.SummaryRecomputed = RS.SummaryRecomputed;

    // Bytecode: splice clean routines' segments, recompile dirty ones. A
    // previously rejected program (null code) retries a full compile — the
    // edit may have removed whatever overflowed the encoding.
    obs::Span CodeSpan("incremental.code", "runtime");
    if (St.Code) {
      bytecode::CodeReusePlan CP;
      CP.Old = St.Code.get();
      CP.Map = &Map;
      CP.Replay.resize(N);
      for (size_t I = 0; I != N; ++I)
        CP.Replay[I] = !CodeDirty[I];
      bytecode::CodeRebuildStats CS;
      Staged.Code = bytecode::compileWithReuse(*Staged.Prog,
                                               /*Checked=*/false, CP, &CS);
      S.CodeRecompiled = CS.Recompiled;
      S.CodeReplayed = CS.Replayed;
    } else {
      Staged.Code = bytecode::compile(*Staged.Prog, /*Checked=*/false);
      S.CodeRecompiled =
          Staged.Code ? static_cast<unsigned>(N) : 0;
    }

    for (size_t I = 0; I != N; ++I)
      if (PdgDirty[I] || CodeDirty[I])
        ++S.RoutinesDirty;
  }

  // Destroys the replaced state (AST, replay arenas, bytecode, slices)
  // while it is still warm in cache.
  St = std::move(Staged);

  if (Span.active()) {
    Span.arg("full_rebuild", S.FullRebuild);
    Span.arg("routines_total", S.RoutinesTotal);
    Span.arg("routines_dirty", S.RoutinesDirty);
    Span.arg("pdg_rebuilt", S.PdgRebuilt);
    Span.arg("pdg_replayed", S.PdgReplayed);
    Span.arg("summary_recomputed", S.SummaryRecomputed);
    Span.arg("code_recompiled", S.CodeRecompiled);
    Span.arg("code_replayed", S.CodeReplayed);
  }
  return S;
}

std::shared_ptr<const slicing::StaticSlice>
EditSession::sliceOnOutput(const std::string &Routine,
                           const std::string &Var) {
  if (!St.Prog || !St.Graph)
    return nullptr;
  const RoutineDecl *Target = findRoutine(*St.Prog, Routine);
  if (!Target)
    return nullptr;
  auto Key = std::make_pair(Target, Var);
  auto It = St.Slices.find(Key);
  if (It != St.Slices.end())
    return It->second;
  auto Slice = std::make_shared<const slicing::StaticSlice>(
      slicing::sliceOnRoutineOutput(*St.Graph, Target, Var));
  St.Slices.emplace(std::move(Key), Slice);
  return Slice;
}
