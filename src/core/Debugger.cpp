//===- Debugger.cpp - The algorithmic debugger ----------------------------===//

#include "core/Debugger.h"

#include "obs/Trace.h"
#include "slicing/DynamicSlicer.h"
#include "slicing/StaticSlicer.h"
#include "slicing/TreePruner.h"

#include <algorithm>

using namespace gadt;
using namespace gadt::core;
using namespace gadt::trace;

std::string DialogueEntry::str() const {
  std::string Out = Query + "? ";
  switch (A) {
  case Answer::Correct:
    Out += "yes";
    break;
  case Answer::Incorrect:
    Out += "no";
    if (!WrongOutput.empty())
      Out += ", error on output " + WrongOutput;
    break;
  case Answer::DontKnow:
    Out += "(no answer)";
    break;
  }
  if (FromMemo)
    Out += "  [remembered]";
  else if (!Source.empty() && Source != "user")
    Out += "  [answered by " + Source + "]";
  return Out;
}

std::string SessionStats::transcript() const {
  std::string Out;
  for (const DialogueEntry &E : Dialogue) {
    Out += E.str();
    Out += '\n';
  }
  return Out;
}

AlgorithmicDebugger::AlgorithmicDebugger(ExecTree &Tree, Oracle &O,
                                         DebuggerOptions Opts)
    : Tree(Tree), O(O), Opts(Opts), Active(Tree.maxNodeId() + 1) {
  Active.insertRange(1, Tree.maxNodeId() + 1);
}

/// One telemetry event per oracle exchange: who answered, what the verdict
/// was, and whether the memo short-circuited the oracle.
static void emitJudgementEvent(const trace::ExecNode &N, const Judgement &J,
                               bool FromMemo) {
  if (!obs::enabled())
    return;
  const char *Verdict = J.A == Answer::Correct     ? "correct"
                        : J.A == Answer::Incorrect ? "incorrect"
                                                   : "dont_know";
  std::vector<obs::TraceArg> Args;
  Args.push_back({"unit", N.getName(), /*Quote=*/true});
  Args.push_back({"source",
                  FromMemo ? std::string("memo")
                           : (J.Source.empty() ? std::string("unknown")
                                               : J.Source),
                  /*Quote=*/true});
  Args.push_back({"verdict", Verdict, /*Quote=*/true});
  if (!J.WrongOutput.empty())
    Args.push_back({"wrong_output", J.WrongOutput, /*Quote=*/true});
  obs::Tracer::global().instant("judgement", "debug", std::move(Args));
}

namespace {

uint64_t hashMix(uint64_t H, uint64_t V) {
  H ^= V;
  H *= 1099511628211ull; // FNV-1a step over 64-bit lanes
  return H;
}

/// True when the unit is a function whose last output is its result binding
/// — the signature renders that binding as "=value" rather than "Out ...".
bool hasResultBinding(const ExecNode &N) {
  return N.getRoutine() && N.getRoutine()->isFunction() &&
         !N.getOutputs().empty() &&
         N.getOutputs().back().Name == N.getRoutine()->getName();
}

uint64_t hashValueRender(uint64_t H, const interp::Value &V) {
  using K = interp::Value::Kind;
  H = hashMix(H, static_cast<uint64_t>(V.kind()));
  switch (V.kind()) {
  case K::Unset:
    break;
  case K::Int:
    H = hashMix(H, static_cast<uint64_t>(V.asInt()));
    break;
  case K::Bool:
    H = hashMix(H, V.asBool() ? 1 : 2);
    break;
  case K::Str:
    for (unsigned char C : V.asStr())
      H = hashMix(H, C);
    break;
  case K::Array:
    // Bounds are deliberately excluded: Value::str() renders elements only,
    // and the memo must hit exactly when the rendered signatures coincide.
    for (int64_t E : V.asArray().Elems)
      H = hashMix(H, static_cast<uint64_t>(E));
    break;
  }
  return H;
}

/// Equality of the *rendered* text of two values without rendering it:
/// Value::str() is injective within each kind and distinguishes kinds
/// (quotes, brackets, true/false), except that array bounds do not appear.
bool valueRenderEqual(const interp::Value &A, const interp::Value &B) {
  using K = interp::Value::Kind;
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case K::Unset:
    return true;
  case K::Int:
    return A.asInt() == B.asInt();
  case K::Bool:
    return A.asBool() == B.asBool();
  case K::Str:
    return A.asStr() == B.asStr();
  case K::Array:
    // Copies of one value share its elements.
    return &A.asArray() == &B.asArray() ||
           A.asArray().Elems == B.asArray().Elems;
  }
  return false;
}

bool bindingsRenderEqual(const std::vector<interp::Binding> &A,
                         const std::vector<interp::Binding> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Name != B[I].Name || !valueRenderEqual(A[I].V, B[I].V))
      return false;
  return true;
}

/// The iteration tag rendered into the signature: the 1-based index for
/// Iteration units, absent (0) otherwise.
uint64_t iterationTag(const ExecNode &N) {
  return N.getKind() == interp::UnitKind::Iteration ? N.getIterIndex() + 1
                                                    : 0;
}

uint64_t judgementKeyHash(const ExecNode &N) {
  uint64_t H = 1469598103934665603ull;
  H = hashMix(H, N.getNameSymbol().id());
  H = hashMix(H, iterationTag(N));
  H = hashMix(H, hasResultBinding(N) ? 1 : 0);
  for (const interp::Binding &B : N.getInputs()) {
    H = hashMix(H, B.Name.id());
    H = hashValueRender(H, B.V);
  }
  H = hashMix(H, 0x9e3779b97f4a7c15ull); // input/output boundary
  for (const interp::Binding &B : N.getOutputs()) {
    H = hashMix(H, B.Name.id());
    H = hashValueRender(H, B.V);
  }
  return H;
}

/// True iff \p A and \p B render identical dialogue signatures.
bool judgementKeyEqual(const ExecNode &A, const ExecNode &B) {
  return A.getNameSymbol() == B.getNameSymbol() &&
         iterationTag(A) == iterationTag(B) &&
         hasResultBinding(A) == hasResultBinding(B) &&
         bindingsRenderEqual(A.getInputs(), B.getInputs()) &&
         bindingsRenderEqual(A.getOutputs(), B.getOutputs());
}

} // namespace

Judgement AlgorithmicDebugger::ask(const ExecNode &N) {
  // Identical unit behaviour needs only one verdict: the memo key is the
  // interned unit name plus the binding names and values — equal exactly
  // when the rendered dialogue signatures are equal, without making the
  // signature string the key.
  std::string Key = N.signature();
  std::vector<MemoEntry> *Bucket = nullptr;
  if (Opts.MemoizeJudgements) {
    Bucket = &Memo[judgementKeyHash(N)];
    for (const MemoEntry &E : *Bucket) {
      if (!judgementKeyEqual(*E.Rep, N))
        continue;
      ++Stats.MemoHits;
      Stats.Dialogue.push_back(
          {Key, E.J.A, E.J.WrongOutput, E.J.Source, /*FromMemo=*/true});
      emitJudgementEvent(N, E.J, /*FromMemo=*/true);
      return E.J;
    }
  }
  ++Stats.Judgements;
  Judgement J = O.judge(N);
  if (J.A == Answer::DontKnow)
    ++Stats.Unanswered;
  else
    ++Stats.AnswersBySource[J.Source.empty() ? "unknown" : J.Source];
  Stats.Dialogue.push_back(
      {Key, J.A, J.WrongOutput, J.Source, /*FromMemo=*/false});
  emitJudgementEvent(N, J, /*FromMemo=*/false);
  if (J.A == Answer::Incorrect && !J.WrongOutput.empty())
    WrongOutputOf[&N] = J.WrongOutput;
  if (Bucket && J.A != Answer::DontKnow)
    Bucket->push_back({&N, J});
  return J;
}

unsigned
AlgorithmicDebugger::activeSubtreeSize(const ExecNode *N) const {
  // Chain-closed active set + contiguous subtree interval: the reachable
  // active weight is a masked popcount, not a traversal.
  if (!Active.contains(N->getId()))
    return 0;
  return static_cast<unsigned>(
      Active.countRange(N->getId(), N->subtreeEnd()));
}

std::shared_ptr<const slicing::StaticSlice>
AlgorithmicDebugger::staticSliceFor(const pascal::RoutineDecl *R,
                                    const std::string &Output) const {
  if (!Sdg)
    return nullptr;
  if (Slices)
    if (std::shared_ptr<const slicing::StaticSlice> S = Slices(R, Output))
      return S;
  return std::make_shared<const slicing::StaticSlice>(
      slicing::sliceOnRoutineOutput(*Sdg, R, Output));
}

void AlgorithmicDebugger::applySliceIfPossible(
    const ExecNode &N, const std::string &WrongOutput) {
  support::NodeSet Kept;
  switch (Opts.Slicing) {
  case SliceMode::None:
    return;
  case SliceMode::Static: {
    if (!Sdg || !N.getRoutine())
      return;
    std::shared_ptr<const slicing::StaticSlice> Slice =
        staticSliceFor(N.getRoutine(), WrongOutput);
    if (!Slice || Slice->size() == 0)
      return; // no formal-out vertex for this output
    Kept = slicing::pruneByStaticSlice(&N, *Slice);
    break;
  }
  case SliceMode::Dynamic: {
    if (!N.findOutput(WrongOutput))
      return;
    Kept = slicing::dynamicSlice(&N, WrongOutput);
    break;
  }
  }

  unsigned Before = activeSubtreeSize(&N);
  // Restrict the active set within N's subtree to the kept ids; nodes
  // outside N's subtree are unaffected (the search is inside N now anyway).
  Active.intersectRangeWith(Kept, N.getId(), N.subtreeEnd());
  Active.insert(N.getId()); // the sliced node itself stays suspect
  unsigned After = activeSubtreeSize(&N);
  ++Stats.SlicingActivations;
  Stats.NodesPruned += Before - After;
}

BugReport AlgorithmicDebugger::bugAt(const ExecNode *N) const {
  BugReport R;
  R.Found = true;
  R.Node = N;
  R.UnitName = N->getName();
  const char *Kind = "procedure";
  if (N->getRoutine()) {
    R.Loc = N->getRoutine()->getLoc();
    Kind = N->getRoutine()->isFunction() ? "function" : "procedure";
  } else if (N->getLoopStmt()) {
    R.Loc = N->getLoopStmt()->getLoc();
    Kind = "loop";
  }
  R.Message = "an error is localized inside the body of " +
              std::string(Kind) + " " + N->getName();
  auto It = WrongOutputOf.find(N);
  if (It != WrongOutputOf.end())
    R.WrongOutput = It->second;

  // Narrow further: the statements of the unit's own body that can affect
  // the wrong output (or any output when none was singled out).
  if (Sdg && N->getRoutine()) {
    const pascal::RoutineDecl *Routine = N->getRoutine();
    std::vector<std::shared_ptr<const slicing::StaticSlice>> OutputSlices;
    auto Collect = [&](const std::string &Output) {
      if (auto Slice = staticSliceFor(Routine, Output))
        OutputSlices.push_back(std::move(Slice));
    };
    if (!R.WrongOutput.empty())
      Collect(R.WrongOutput);
    else
      for (const interp::Binding &Out : N->getOutputs())
        Collect(Out.Name);
    if (!OutputSlices.empty() && Routine->getBody())
      pascal::forEachStmt(
          const_cast<pascal::CompoundStmt *>(Routine->getBody()),
          [&](pascal::Stmt *S) {
            if (std::any_of(OutputSlices.begin(), OutputSlices.end(),
                            [S](const auto &Slice) {
                              return Slice->containsStmt(S);
                            }))
              R.CandidateStmts.push_back(S);
          });
  }
  return R;
}

BugReport AlgorithmicDebugger::run() {
  ExecNode *Root = Tree.getRoot();
  if (!Root) {
    BugReport R;
    R.Message = "empty execution tree";
    return R;
  }
  // The user invoked the debugger after observing a symptom, so the root
  // is known to misbehave and is never queried (paper Section 3).
  switch (Opts.Strategy) {
  case SearchStrategy::TopDown:
    return runTopDown(Root, /*HeaviestFirst=*/false);
  case SearchStrategy::TopDownHeaviest:
    return runTopDown(Root, /*HeaviestFirst=*/true);
  case SearchStrategy::DivideAndQuery:
    return runDivideAndQuery(Root);
  case SearchStrategy::BottomUp:
    return runBottomUp(Root);
  }
  return BugReport();
}

BugReport AlgorithmicDebugger::runTopDown(const ExecNode *Root,
                                          bool HeaviestFirst) {
  const ExecNode *Suspect = Root;
  for (;;) {
    std::vector<const ExecNode *> Order;
    for (const ExecNode *C : Suspect->getChildren())
      if (Active.contains(C->getId()))
        Order.push_back(C);
    if (HeaviestFirst)
      std::stable_sort(Order.begin(), Order.end(),
                       [this](const ExecNode *A, const ExecNode *B) {
                         return activeSubtreeSize(A) > activeSubtreeSize(B);
                       });

    const ExecNode *Next = nullptr;
    for (const ExecNode *C : Order) {
      Judgement J = ask(*C);
      if (J.A != Answer::Incorrect)
        continue; // correct, or unanswerable: search elsewhere
      if (!J.WrongOutput.empty())
        applySliceIfPossible(*C, J.WrongOutput);
      Next = C;
      break;
    }
    if (!Next)
      return bugAt(Suspect);
    Suspect = Next;
  }
}

BugReport AlgorithmicDebugger::runDivideAndQuery(const ExecNode *Root) {
  const ExecNode *Suspect = Root;
  for (;;) {
    // Gather the active proper descendants of the suspect.
    std::vector<const ExecNode *> Candidates;
    std::vector<const ExecNode *> Stack;
    for (const ExecNode *C : Suspect->getChildren())
      Stack.push_back(C);
    while (!Stack.empty()) {
      const ExecNode *N = Stack.back();
      Stack.pop_back();
      if (!Active.contains(N->getId()))
        continue;
      Candidates.push_back(N);
      for (const ExecNode *C : N->getChildren())
        Stack.push_back(C);
    }
    if (Candidates.empty())
      return bugAt(Suspect);

    // Shapiro's heuristic: query the node whose subtree weight is closest
    // to half the suspect's weight.
    unsigned Total = static_cast<unsigned>(Candidates.size());
    const ExecNode *Pick = nullptr;
    long BestDist = -1;
    for (const ExecNode *N : Candidates) {
      long W = activeSubtreeSize(N);
      long Dist = std::abs(2 * W - static_cast<long>(Total));
      if (!Pick || Dist < BestDist) {
        Pick = N;
        BestDist = Dist;
      }
    }

    Judgement J = ask(*Pick);
    if (J.A == Answer::Incorrect) {
      if (!J.WrongOutput.empty())
        applySliceIfPossible(*Pick, J.WrongOutput);
      Suspect = Pick;
      continue;
    }
    // Correct (or unanswerable): discard the whole subtree.
    Active.eraseRange(Pick->getId(), Pick->subtreeEnd());
  }
}

BugReport AlgorithmicDebugger::runBottomUp(const ExecNode *Root) {
  // Exhaustive postorder baseline: children are judged before parents, so
  // the first incorrect node has all-correct children and is the bug.
  // Iterative with an explicit frame stack — recursion depth would equal
  // tree depth.
  const ExecNode *Found = nullptr;
  struct Frame {
    const ExecNode *N;
    const ExecNode *NextChild;
  };
  std::vector<Frame> St;
  if (Active.contains(Root->getId()))
    St.push_back({Root, Root->firstChild()});
  while (!St.empty() && !Found) {
    Frame &F = St.back();
    if (F.NextChild) {
      const ExecNode *C = F.NextChild;
      F.NextChild = C->nextSibling();
      if (Active.contains(C->getId()))
        St.push_back({C, C->firstChild()});
      continue;
    }
    const ExecNode *N = F.N;
    St.pop_back();
    if (N == Root)
      break; // the root is assumed incorrect, not queried
    Judgement J = ask(*N);
    if (J.A == Answer::Incorrect)
      Found = N;
  }
  if (Found)
    return bugAt(Found);
  return bugAt(Root);
}
