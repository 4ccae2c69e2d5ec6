//===- IncrementalTest.cpp - Edit-sequence differential tests -------------===//
//
// The correctness bar for the incremental recompute layer
// (runtime/EditSession.h): for scripted edit sequences, an incremental
// commit must produce byte-identical artifacts to a cold full rebuild of
// the same source — the SDG's str() and dot() renderings, every memoized
// static slice, and the execution transcript of the spliced bytecode.
// Alongside identity, the IncrementalStats counters pin *how much* work
// each edit did, so a regression that silently rebuilds everything (right
// answer, no reuse) fails here too.
//
//===----------------------------------------------------------------------===//

#include "TwoHelpers.h"
#include "interp/Interpreter.h"
#include "runtime/EditSession.h"
#include "slicing/DynamicSlicer.h"
#include "trace/ExecTreeBuilder.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

using namespace gadt;
using namespace gadt::runtime;

namespace {

std::vector<int64_t> sampleInput() {
  return {3, 7, 2, 9, 4, 1, 8, 5, 6, 10, 11, 13, 12, 15, 14, 17};
}

/// One full observable execution under the session's compiled code:
/// result, final globals, execution tree, and every dynamic slice.
std::string execTranscript(const pascal::Program &Prog,
                           std::shared_ptr<const bytecode::CompiledProgram> Code) {
  interp::InterpOptions Opts;
  Opts.TraceLoops = true;
  Opts.TraceIterations = true;
  Opts.TrackDeps = true;
  Opts.Code = std::move(Code);
  interp::Interpreter I(Prog, Opts);
  I.setInput(sampleInput());
  trace::ExecTreeBuilder Builder;
  I.setListener(&Builder);
  interp::ExecResult R = I.run();
  auto Tree = Builder.takeTree();

  std::ostringstream Out;
  Out << "ok: " << (R.Ok ? 1 : 0) << "\n";
  if (!R.Ok)
    Out << "error: " << R.Error.Loc.Line << ":" << R.Error.Loc.Column << " "
        << R.Error.Message << "\n";
  Out << "output: " << R.Output << "\n";
  Out << "steps: " << R.Steps << "\n";
  Out << "units: " << R.UnitsExecuted << "\n";
  for (const interp::Binding &B : R.FinalGlobals)
    Out << "global " << B.Name << " = " << B.V.str() << "\n";
  Out << "tree:\n" << (Tree && Tree->getRoot() ? Tree->str() : "<none>\n");
  if (Tree && Tree->getRoot()) {
    Out << "slices:\n";
    for (uint32_t Id = 1; Id <= R.UnitsExecuted; ++Id) {
      const trace::ExecNode *N = Tree->node(Id);
      if (!N)
        continue;
      for (const interp::Binding &B : N->getOutputs()) {
        auto Kept = slicing::dynamicSlice(N, B.Name);
        Out << "slice " << Id << "." << B.Name << ":";
        for (uint32_t K : Kept.ids())
          Out << " " << K;
        Out << "\n";
      }
    }
  }
  return Out.str();
}

IncrementalStats commitSource(EditSession &S, const std::string &Source) {
  EditTransaction T = S.begin(Source);
  EXPECT_TRUE(T.valid()) << T.errors();
  return T.commit();
}

/// A fresh session whose single (cold) commit is the reference state.
std::unique_ptr<EditSession> coldSession(const std::string &Source) {
  auto S = std::make_unique<EditSession>();
  IncrementalStats St = commitSource(*S, Source);
  EXPECT_TRUE(St.Committed);
  EXPECT_TRUE(St.FullRebuild);
  return S;
}

/// Byte-identity of the committed artifacts of two sessions over the same
/// source: SDG text and dot renderings, and the execution transcript of the
/// session bytecode.
void expectSameCommitted(EditSession &Inc, EditSession &Cold) {
  ASSERT_NE(Inc.sdg(), nullptr);
  ASSERT_NE(Cold.sdg(), nullptr);
  EXPECT_EQ(Inc.sdg()->str(), Cold.sdg()->str());
  EXPECT_EQ(Inc.sdg()->dot(), Cold.sdg()->dot());
  ASSERT_NE(Inc.program(), nullptr);
  ASSERT_NE(Cold.program(), nullptr);
  ASSERT_NE(Inc.code(), nullptr);
  ASSERT_NE(Cold.code(), nullptr);
  EXPECT_EQ(execTranscript(*Inc.program(), Inc.code()),
            execTranscript(*Cold.program(), Cold.code()));
}

std::vector<uint32_t> sliceIds(EditSession &S, const std::string &Routine,
                               const std::string &Var) {
  auto Slice = S.sliceOnOutput(Routine, Var);
  EXPECT_NE(Slice, nullptr) << Routine << "." << Var;
  return Slice ? Slice->nodes().ids() : std::vector<uint32_t>{};
}

constexpr unsigned kLeaves = 6;

std::string baseProgram() {
  return workload::incrementalEditProgram(kLeaves);
}
std::string editedProgram(unsigned Leaf, unsigned Variant) {
  return workload::incrementalEditProgram(kLeaves, Leaf, Variant);
}

//===----------------------------------------------------------------------===//
// Commit mechanics
//===----------------------------------------------------------------------===//

TEST(IncrementalTest, FirstCommitBuildsCold) {
  EditSession S;
  EXPECT_EQ(S.program(), nullptr);
  IncrementalStats St = commitSource(S, baseProgram());
  EXPECT_TRUE(St.Committed);
  EXPECT_TRUE(St.FullRebuild);
  // Main + kLeaves leaves + hub, fingerprinted main-first.
  EXPECT_EQ(St.RoutinesTotal, kLeaves + 2);
  EXPECT_EQ(St.RoutinesDirty, kLeaves + 2);
  EXPECT_EQ(St.PdgRebuilt, kLeaves + 2);
  EXPECT_EQ(St.CodeRecompiled, kLeaves + 2);
  EXPECT_EQ(St.PdgReplayed, 0u);
  EXPECT_EQ(St.CodeReplayed, 0u);
  ASSERT_NE(S.sdg(), nullptr);
  ASSERT_NE(S.code(), nullptr);
  EXPECT_TRUE(S.sdg()->hasReplayData());
}

TEST(IncrementalTest, SingleLeafEditRebuildsOnlyThatRoutine) {
  EditSession S;
  commitSource(S, baseProgram());

  const std::string Edited = editedProgram(3, 1);
  IncrementalStats St = commitSource(S, Edited);
  EXPECT_TRUE(St.Committed);
  EXPECT_FALSE(St.FullRebuild);
  EXPECT_EQ(St.RoutinesTotal, kLeaves + 2);
  EXPECT_EQ(St.RoutinesDirty, 1u);
  EXPECT_EQ(St.PdgRebuilt, 1u);
  EXPECT_EQ(St.PdgReplayed, kLeaves + 1);
  EXPECT_EQ(St.CodeRecompiled, 1u);
  EXPECT_EQ(St.CodeReplayed, kLeaves + 1);
  // The edited leaf's summary pairs must re-solve; so may its transitive
  // callers', but never the untouched sibling leaves'.
  EXPECT_GE(St.SummaryRecomputed, 1u);
  EXPECT_LE(St.SummaryRecomputed, 3u);

  auto Cold = coldSession(Edited);
  expectSameCommitted(S, *Cold);
  EXPECT_EQ(sliceIds(S, "hub", "b"), sliceIds(*Cold, "hub", "b"));
  EXPECT_EQ(sliceIds(S, "leaf3", "y"), sliceIds(*Cold, "leaf3", "y"));
}

TEST(IncrementalTest, EditEditRevertMatchesColdAtEveryStep) {
  EditSession S;
  commitSource(S, baseProgram());
  struct Step {
    unsigned Leaf, Variant;
  } Steps[] = {{4, 2}, {4, 7}, {1, 3}, {4, 0}};
  for (const Step &E : Steps) {
    const std::string Src = editedProgram(E.Leaf, E.Variant);
    IncrementalStats St = commitSource(S, Src);
    EXPECT_TRUE(St.Committed);
    EXPECT_FALSE(St.FullRebuild);
    auto Cold = coldSession(Src);
    expectSameCommitted(S, *Cold);
  }
  // The final revert restored the original text exactly.
  auto Cold = coldSession(baseProgram());
  expectSameCommitted(S, *Cold);
}

//===----------------------------------------------------------------------===//
// Invalidation rules
//===----------------------------------------------------------------------===//

// Four routines in fingerprint order: main, leafa, leafb, hub.
const char *kHandBase = R"(program p;
var r, g: integer;
procedure leafa(x: integer; var y: integer);
begin
  y := x + 1;
end;
procedure leafb(x: integer; var y: integer);
begin
  y := x * 2;
end;
procedure hub(a: integer; var b: integer);
var t, u: integer;
begin
  leafa(a, t);
  leafb(a, u);
  b := t + u;
end;
begin
  g := 5;
  hub(3, r);
  writeln(r + g);
end.
)";

TEST(IncrementalTest, HeaderChangeDirtiesCallers) {
  // Renaming leafa's parameter changes its header (and body), so hub — whose
  // own text is untouched — must rebuild both PDG and code; leafb and main
  // replay.
  std::string Edited = kHandBase;
  auto ReplaceAll = [&Edited](const std::string &From, const std::string &To) {
    for (size_t P = Edited.find(From); P != std::string::npos;
         P = Edited.find(From, P + To.size()))
      Edited.replace(P, From.size(), To);
  };
  ReplaceAll("leafa(x: integer", "leafa(x0: integer");
  ReplaceAll("y := x + 1", "y := x0 + 1");

  EditSession S;
  commitSource(S, kHandBase);
  IncrementalStats St = commitSource(S, Edited);
  EXPECT_FALSE(St.FullRebuild);
  EXPECT_EQ(St.PdgRebuilt, 2u);      // leafa + hub
  EXPECT_EQ(St.CodeRecompiled, 2u);  // leafa + hub
  EXPECT_EQ(St.PdgReplayed, 2u);     // main + leafb
  EXPECT_EQ(St.CodeReplayed, 2u);
  EXPECT_EQ(St.RoutinesDirty, 2u);
  auto Cold = coldSession(Edited);
  expectSameCommitted(S, *Cold);
  EXPECT_EQ(sliceIds(S, "hub", "b"), sliceIds(*Cold, "hub", "b"));
}

TEST(IncrementalTest, EffectSignatureChangeRedoesCallerPdgOnly) {
  // leafa starts reading the global g: its GREF set — and transitively
  // hub's — changes, so both callers re-derive their PDGs (global
  // formal/actual vertices), but only leafa itself recompiles; bytecode
  // never bakes callee effect sets.
  std::string Edited = kHandBase;
  size_t P = Edited.find("y := x + 1");
  ASSERT_NE(P, std::string::npos);
  Edited.replace(P, std::string("y := x + 1").size(), "y := x + g");

  EditSession S;
  commitSource(S, kHandBase);
  IncrementalStats St = commitSource(S, Edited);
  EXPECT_FALSE(St.FullRebuild);
  EXPECT_EQ(St.PdgRebuilt, 3u);     // leafa (body) + hub + main (effects)
  EXPECT_EQ(St.PdgReplayed, 1u);    // leafb
  EXPECT_EQ(St.CodeRecompiled, 1u); // leafa only
  EXPECT_EQ(St.CodeReplayed, 3u);
  auto Cold = coldSession(Edited);
  expectSameCommitted(S, *Cold);
}

TEST(IncrementalTest, InvalidEditLeavesSessionUntouched) {
  EditSession S;
  commitSource(S, baseProgram());
  const pascal::Program *Prog = S.program();
  const analysis::SDG *Graph = S.sdg();
  auto Code = S.code();
  const std::string GraphText = Graph->str();

  // Sema error: undeclared variable.
  EditTransaction Bad =
      S.begin("program p;\nbegin\n  x := 1;\nend.\n");
  EXPECT_FALSE(Bad.valid());
  EXPECT_FALSE(Bad.errors().empty());
  IncrementalStats St = Bad.commit();
  EXPECT_FALSE(St.Committed);

  // Syntax error.
  EditTransaction Worse = S.begin("program p; begin end");
  EXPECT_FALSE(Worse.valid());
  EXPECT_FALSE(Worse.commit().Committed);

  // The master state is bit-for-bit the one from the last good commit.
  EXPECT_EQ(S.program(), Prog);
  EXPECT_EQ(S.sdg(), Graph);
  EXPECT_EQ(S.code(), Code);
  EXPECT_EQ(S.sdg()->str(), GraphText);
}

TEST(IncrementalTest, RoutineListChangeFallsBackToFullRebuild) {
  EditSession S;
  commitSource(S, workload::incrementalEditProgram(3));
  const std::string Grown = workload::incrementalEditProgram(4);
  IncrementalStats St = commitSource(S, Grown);
  EXPECT_TRUE(St.Committed);
  EXPECT_TRUE(St.FullRebuild);
  EXPECT_EQ(St.RoutinesTotal, 6u); // main + 4 leaves + hub
  EXPECT_EQ(St.PdgRebuilt, 6u);
  auto Cold = coldSession(Grown);
  expectSameCommitted(S, *Cold);
}

TEST(IncrementalTest, SliceMemoEvictsIntersectingAndRemapsSurvivors) {
  EditSession S;
  commitSource(S, baseProgram());
  // Memoize three slices before the edit: one inside the edited leaf, one
  // through the hub (whose closure descends into every leaf), one in an
  // untouched sibling leaf.
  std::vector<uint32_t> Leaf5Before = sliceIds(S, "leaf5", "y");
  sliceIds(S, "leaf3", "y");
  sliceIds(S, "hub", "b");

  const std::string Edited = editedProgram(3, 9);
  IncrementalStats St = commitSource(S, Edited);
  EXPECT_FALSE(St.FullRebuild);

  // The commit starts an empty memo: every slice asked after the edit is
  // the one a cold session computes over the edited program.
  auto Cold = coldSession(Edited);
  EXPECT_EQ(sliceIds(S, "leaf5", "y"), sliceIds(*Cold, "leaf5", "y"));
  EXPECT_EQ(sliceIds(S, "leaf3", "y"), sliceIds(*Cold, "leaf3", "y"));
  EXPECT_EQ(sliceIds(S, "hub", "b"), sliceIds(*Cold, "hub", "b"));
  // The edit left the sibling leaf alone, so its slice has the same size
  // as before the edit.
  EXPECT_EQ(sliceIds(S, "leaf5", "y").size(), Leaf5Before.size());
}

/// Nine nested procedures under p1, the innermost with a local goto and a
/// non-local one to the main program, plus a separate leaf whose increment
/// \p K is the edit. The innermost body reads g0 nine static hops away —
/// a wide cell operand — so replaying it exercises the wide-cell and label
/// rebasing of compileWithReuse.
std::string deepProgram(unsigned K) {
  std::string Src = "program d;\nlabel 99;\nvar g0, g1: integer;\n"
                    "procedure leaf(var r: integer);\nbegin r := r + " +
                    std::to_string(K) + " end;\n";
  for (unsigned D = 1; D <= 9; ++D)
    Src += "procedure p" + std::to_string(D) + "(var r: integer);\n";
  Src += "label 5;\nbegin\n  r := r + g0;\n  if r > 1000 then goto 99;\n"
         "  leaf(g1);\n  goto 5;\n  r := 0;\n  5: r := r + 1\nend;\n";
  for (unsigned D = 8; D >= 1; --D)
    Src += "begin p" + std::to_string(D + 1) + "(r) end;\n";
  Src += "begin\n  g0 := 2;\n  p1(g1);\n  99: writeln(g1)\nend.\n";
  return Src;
}

TEST(IncrementalTest, WideOperandsAndLabelsReplay) {
  EditSession S;
  IncrementalStats First = commitSource(S, deepProgram(1));
  ASSERT_TRUE(First.Committed);
  ASSERT_NE(S.code(), nullptr);
  EXPECT_FALSE(S.code()->WideCells.empty());

  IncrementalStats St = commitSource(S, deepProgram(4));
  EXPECT_FALSE(St.FullRebuild);
  EXPECT_EQ(St.CodeRecompiled, 1u);
  EXPECT_EQ(St.CodeReplayed, 10u);
  auto Cold = coldSession(deepProgram(4));
  expectSameCommitted(S, *Cold);
}

TEST(IncrementalTest, SliceOnOutputNeedsAName) {
  // `helper` is both p.a.helper and p.b.helper: the plain name is no
  // criterion, the qualified one slices its own routine.
  EditSession S;
  ASSERT_TRUE(commitSource(S, test::TwoHelpers).Committed);
  EXPECT_EQ(S.sliceOnOutput("helper", "x"), nullptr);
  const pascal::RoutineDecl *B =
      S.program()->getMain()->findNested("b")->findNested("helper");
  analysis::SDG Cold(*S.program());
  EXPECT_EQ(sliceIds(S, "p.b.helper", "x"),
            slicing::sliceOnRoutineOutput(Cold, B, "x").nodes().ids());
  EXPECT_NE(sliceIds(S, "p.a.helper", "x"), sliceIds(S, "p.b.helper", "x"));
  EXPECT_EQ(S.sliceOnOutput("p.b.helper", "x"),
            S.sliceOnOutput("p.b.helper", "x"))
      << "memoized";
}

} // namespace
