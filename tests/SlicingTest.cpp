//===- SlicingTest.cpp - Static/dynamic slicing tests (Figures 2, 8, 9) ---===//

#include "slicing/DynamicSlicer.h"
#include "slicing/ProgramProjection.h"
#include "slicing/StaticSlicer.h"
#include "slicing/TreePruner.h"

#include "TwoHelpers.h"
#include "pascal/Frontend.h"
#include "pascal/PrettyPrinter.h"
#include "trace/ExecTreeBuilder.h"
#include "transform/Transform.h"
#include "workload/PaperPrograms.h"
#include "workload/Payroll.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

using namespace gadt;
using namespace gadt::analysis;
using namespace gadt::interp;
using namespace gadt::pascal;
using namespace gadt::slicing;
using namespace gadt::trace;

namespace {

std::unique_ptr<Program> compile(std::string_view Src) {
  DiagnosticsEngine Diags;
  auto Prog = parseAndCheck(Src, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

ExecNode *findNode(ExecTree &T, const std::string &Name) {
  ExecNode *Found = nullptr;
  T.forEachNode([&](ExecNode *N) {
    if (!Found && N->getName() == Name)
      Found = N;
  });
  return Found;
}

//===----------------------------------------------------------------------===//
// Figure 2: classic Weiser slice + projection
//===----------------------------------------------------------------------===//

TEST(StaticSliceTest, Figure2SliceOnMul) {
  auto Prog = compile(workload::Figure2);
  SDG G(*Prog);
  StaticSlice Slice = sliceOnProgramVar(G, *Prog, "mul");
  ASSERT_GT(Slice.size(), 0u);

  const auto &Body = Prog->getMain()->getBody()->getBody();
  // read(x,y); mul := 0; sum := 0; if ...
  EXPECT_TRUE(Slice.containsStmt(Body[0].get())) << "read(x, y) stays";
  EXPECT_TRUE(Slice.containsStmt(Body[1].get())) << "mul := 0 stays";
  EXPECT_FALSE(Slice.containsStmt(Body[2].get())) << "sum := 0 goes";
  const auto *If = cast<IfStmt>(Body[3].get());
  EXPECT_TRUE(Slice.containsStmt(If)) << "the predicate stays";
  EXPECT_FALSE(Slice.containsStmt(If->getThen())) << "sum := x + y goes";
  const auto *Else = cast<CompoundStmt>(If->getElse());
  EXPECT_FALSE(Slice.containsStmt(Else->getBody()[0].get()))
      << "read(z) goes";
  EXPECT_TRUE(Slice.containsStmt(Else->getBody()[1].get()))
      << "mul := x * y stays";
}

TEST(StaticSliceTest, Figure2ProjectionMatchesPaper) {
  auto Prog = compile(workload::Figure2);
  SDG G(*Prog);
  StaticSlice Slice = sliceOnProgramVar(G, *Prog, "mul");
  DiagnosticsEngine Diags;
  auto Projected = projectSlice(*Prog, Slice, Diags);
  ASSERT_TRUE(Projected) << Diags.str();
  std::string Src = printProgram(*Projected);
  // The paper's Figure 2(b): x, y, mul declared; z and sum gone.
  EXPECT_NE(Src.find("x: integer"), std::string::npos) << Src;
  EXPECT_NE(Src.find("mul: integer"), std::string::npos) << Src;
  EXPECT_EQ(Src.find("sum"), std::string::npos) << Src;
  EXPECT_EQ(Src.find("z:"), std::string::npos) << Src;
  EXPECT_NE(Src.find("mul := x * y"), std::string::npos) << Src;
  EXPECT_NE(Src.find("if x <= 1"), std::string::npos) << Src;
}

TEST(StaticSliceTest, Figure2ProjectionPreservesCriterionBehaviour) {
  // The slice must compute the same value of mul as the original for any
  // input (Weiser's correctness property), including both branch outcomes.
  auto Prog = compile(workload::Figure2);
  SDG G(*Prog);
  StaticSlice Slice = sliceOnProgramVar(G, *Prog, "mul");
  DiagnosticsEngine Diags;
  auto Projected = projectSlice(*Prog, Slice, Diags);
  ASSERT_TRUE(Projected);
  for (std::vector<int64_t> Input :
       {std::vector<int64_t>{0, 5, 7}, std::vector<int64_t>{3, 4, 9}}) {
    Interpreter Orig(*Prog);
    Orig.setInput(Input);
    auto RO = Orig.run();
    ASSERT_TRUE(RO.Ok) << RO.Error.Message;
    Interpreter Sliced(*Projected);
    Sliced.setInput(Input);
    auto RS = Sliced.run();
    ASSERT_TRUE(RS.Ok) << RS.Error.Message;
    auto MulOf = [](const ExecResult &R) {
      for (const Binding &B : R.FinalGlobals)
        if (B.Name == "mul")
          return B.V.asInt();
      return int64_t(-999);
    };
    EXPECT_EQ(MulOf(RO), MulOf(RS));
  }
}

TEST(StaticSliceTest, SliceOnSumKeepsOtherBranch) {
  auto Prog = compile(workload::Figure2);
  SDG G(*Prog);
  StaticSlice Slice = sliceOnProgramVar(G, *Prog, "sum");
  const auto &Body = Prog->getMain()->getBody()->getBody();
  EXPECT_TRUE(Slice.containsStmt(Body[2].get())) << "sum := 0 stays";
  const auto *If = cast<IfStmt>(Body[3].get());
  EXPECT_TRUE(Slice.containsStmt(If->getThen())) << "sum := x + y stays";
  const auto *Else = cast<CompoundStmt>(If->getElse());
  EXPECT_FALSE(Slice.containsStmt(Else->getBody()[1].get()))
      << "mul := x * y goes";
}

TEST(StaticSliceTest, EmptyCriterionYieldsEmptySlice) {
  auto Prog = compile(workload::Figure2);
  SDG G(*Prog);
  StaticSlice Slice = sliceOnProgramVar(G, *Prog, "nosuchvar");
  EXPECT_EQ(Slice.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Interprocedural slicing on Figure 4
//===----------------------------------------------------------------------===//

TEST(StaticSliceTest, Figure4SliceOnR1ExcludesComput2) {
  auto Prog = compile(workload::Figure4Buggy);
  SDG G(*Prog);
  const RoutineDecl *Computs = Prog->getMain()->findNested("computs");
  StaticSlice Slice = sliceOnRoutineOutput(G, Computs, "r1");
  ASSERT_GT(Slice.size(), 0u);
  EXPECT_TRUE(Slice.containsRoutine(Prog->getMain()->findNested("comput1")));
  EXPECT_TRUE(Slice.containsRoutine(Prog->getMain()->findNested("sum1")));
  EXPECT_TRUE(Slice.containsRoutine(Prog->getMain()->findNested("sum2")));
  EXPECT_TRUE(Slice.containsRoutine(Prog->getMain()->findNested("add")));
  EXPECT_TRUE(
      Slice.containsRoutine(Prog->getMain()->findNested("decrement")));
  // comput2/square only affect r2.
  const RoutineDecl *Comput2 = Prog->getMain()->findNested("comput2");
  const auto *Comput2Call =
      cast<ProcCallStmt>(Computs->getBody()->getBody()[1].get());
  EXPECT_EQ(Comput2Call->getCallee(), Comput2);
  EXPECT_FALSE(Slice.containsStmt(Comput2Call));
}

TEST(StaticSliceTest, Figure4SliceOnS2ExcludesSum1) {
  auto Prog = compile(workload::Figure4Buggy);
  SDG G(*Prog);
  const RoutineDecl *Partialsums = Prog->getMain()->findNested("partialsums");
  StaticSlice Slice = sliceOnRoutineOutput(G, Partialsums, "s2");
  const auto &Body = Partialsums->getBody()->getBody();
  EXPECT_FALSE(Slice.containsStmt(Body[0].get())) << "sum1 call goes";
  EXPECT_TRUE(Slice.containsStmt(Body[1].get())) << "sum2 call stays";
  EXPECT_TRUE(Slice.containsRoutine(Prog->getMain()->findNested("decrement")));
}

TEST(StaticSliceTest, SliceOnFunctionResult) {
  auto Prog = compile(workload::Figure4Buggy);
  SDG G(*Prog);
  const RoutineDecl *Dec = Prog->getMain()->findNested("decrement");
  StaticSlice Slice = sliceOnRoutineOutput(G, Dec, "decrement");
  EXPECT_GT(Slice.size(), 0u);
  EXPECT_TRUE(Slice.containsStmt(Dec->getBody()->getBody()[0].get()));
}

//===----------------------------------------------------------------------===//
// Membership queries against the sliced ids
//===----------------------------------------------------------------------===//

/// Every statement, routine and expression call some sliced vertex names:
/// the views a slice once materialized from its ids, kept as the reference
/// the SDG-index queries must agree with.
struct IdWalk {
  std::unordered_set<const Stmt *> Stmts;
  std::unordered_set<const RoutineDecl *> Routines;
  std::unordered_set<const Expr *> CallExprs;

  IdWalk(const SDG &G, const StaticSlice &S) {
    for (uint32_t Id : S.nodes().ids()) {
      const SDGNode &N = G.node(Id);
      if (N.getStmt())
        Stmts.insert(N.getStmt());
      if (N.getRoutine())
        Routines.insert(N.getRoutine());
      if (N.getCall() && N.getCall()->Site.CallExpr)
        CallExprs.insert(N.getCall()->Site.CallExpr);
    }
  }
};

/// Checks every membership query of every (routine, formal-out) slice and
/// every program-variable slice of \p P against the id walk; returns the
/// number of slices checked.
unsigned checkMembership(const Program &P, const std::string &Label) {
  SDG G(P);
  std::vector<const RoutineDecl *> Routines;
  std::vector<const Stmt *> Stmts;
  std::vector<const Expr *> Calls;
  forEachRoutine(P.getMain(), [&](RoutineDecl *R) {
    Routines.push_back(R);
    if (!R->getBody())
      return;
    forEachStmt(R->getBody(), [&](Stmt *S) { Stmts.push_back(S); });
    forEachExpr(R->getBody(), [&](Expr *E) {
      if (isa<CallExpr>(E))
        Calls.push_back(E);
    });
  });

  unsigned Checked = 0;
  auto Check = [&](const StaticSlice &S, const std::string &Criterion) {
    IdWalk Ref(G, S);
    unsigned Walked = 0;
    for (const Stmt *St : Stmts) {
      bool In = Ref.Stmts.count(St) != 0;
      Walked += In;
      ASSERT_EQ(S.containsStmt(St), In)
          << Label << " " << Criterion << " stmt@" << St->getLoc().str();
    }
    // The statement walk reaches every sliced statement, so counting by
    // it (bugAt, bench/slice_sizes) equals the old view's size.
    ASSERT_EQ(Walked, Ref.Stmts.size()) << Label << " " << Criterion;
    for (const RoutineDecl *R : Routines)
      ASSERT_EQ(S.containsRoutine(R), Ref.Routines.count(R) != 0)
          << Label << " " << Criterion << " routine " << R->qualifiedName();
    for (const Expr *E : Calls)
      ASSERT_EQ(S.containsCallExpr(E), Ref.CallExprs.count(E) != 0)
          << Label << " " << Criterion << " call@" << E->getLoc().str();
    ++Checked;
  };
  for (const SDGNode &N : G.nodes()) {
    if (N.getKind() != SDGNode::Kind::FormalOut)
      continue;
    const RoutineDecl *R = N.getRoutine();
    std::string Var = N.getVar() ? N.getVar()->getName() : R->getName();
    Check(sliceOnRoutineOutput(G, R, Var), R->qualifiedName() + "." + Var);
    if (R == P.getMain() && N.getVar())
      Check(sliceOnProgramVar(G, P, Var), "program " + Var);
  }
  return Checked;
}

TEST(StaticSliceTest, MembershipMatchesTheIdWalk) {
  std::vector<std::pair<std::string, std::string>> Subjects = {
      {"figure2", workload::Figure2},
      {"figure4", workload::Figure4Buggy},
      {"section6-globals", workload::Section6Globals},
      {"section6-global-goto", workload::Section6GlobalGoto},
      {"section6-loop-goto", workload::Section6LoopGoto},
      {"arrsum", workload::ArrsumProgram},
      {"payroll", workload::PayrollCorrect},
      {"payroll-tax", workload::PayrollTaxBug},
      {"payroll-overtime", workload::PayrollOvertimeBug},
      {"chain", workload::chainProgram(6, 3).Buggy},
      {"tree", workload::treeProgram(3).Buggy},
      {"mesh", workload::summaryMeshProgram(3, 3).Buggy},
      {"wide", workload::wideIrrelevantProgram(6).Buggy},
      {"hub", workload::incrementalEditProgram(12)},
      {"two-helpers", test::TwoHelpers},
      // A call nested in another call's argument, and a recursive call.
      {"nested-calls", R"(
program nest;
var r: integer;

function sq(n: integer): integer;
begin
  sq := n * n;
end;

function fact(n: integer): integer;
begin
  if n <= 1 then
    fact := 1
  else
    fact := n * fact(n - 1);
end;

function add(u, v: integer): integer;
begin
  add := u + v;
end;

begin
  read(r);
  r := add(sq(r), fact(sq(2)));
  writeln(r);
end.
)"},
  };
  for (uint32_t Seed = 1; Seed <= 120; ++Seed) {
    workload::SyntheticOptions Opts;
    Opts.Seed = Seed;
    Opts.NumRoutines = 3 + Seed % 5;
    Opts.UseGotos = Seed % 2 == 0;
    Subjects.push_back(
        {"random-" + std::to_string(Seed), workload::randomProgram(Opts).Buggy});
  }

  unsigned Slices = 0;
  for (const auto &[Label, Source] : Subjects) {
    auto Prog = compile(Source);
    ASSERT_TRUE(Prog) << Label;
    Slices += checkMembership(*Prog, Label);
    DiagnosticsEngine Diags;
    transform::TransformResult X = transform::transformProgram(*Prog, Diags);
    ASSERT_TRUE(X.Transformed) << Label << "\n" << Diags.str();
    Slices += checkMembership(*X.Transformed, Label + " (transformed)");
  }
  EXPECT_GT(Slices, 5000u);

  // A slice attached to no graph contains nothing.
  StaticSlice Empty;
  auto Prog = compile(workload::Figure4Buggy);
  EXPECT_FALSE(
      Empty.containsStmt(Prog->getMain()->getBody()->getBody()[0].get()));
  EXPECT_FALSE(Empty.containsRoutine(Prog->getMain()));
  EXPECT_FALSE(Empty.containsCallExpr(nullptr));
}

//===----------------------------------------------------------------------===//
// Execution-tree pruning: Figures 8 and 9
//===----------------------------------------------------------------------===//

struct Fig4Trace {
  std::unique_ptr<Program> Prog;
  std::unique_ptr<SDG> G;
  std::unique_ptr<ExecTree> Tree;

  explicit Fig4Trace(bool TrackDeps = false) {
    Prog = compile(workload::Figure4Buggy);
    G = std::make_unique<SDG>(*Prog);
    InterpOptions Opts;
    Opts.TrackDeps = TrackDeps;
    ExecResult Res;
    Tree = buildExecTree(*Prog, Opts, {}, &Res);
    EXPECT_TRUE(Res.Ok) << Res.Error.Message;
  }
};

TEST(TreePrunerTest, Figure8PrunedTree) {
  Fig4Trace F;
  ExecNode *Computs = findNode(*F.Tree, "computs");
  ASSERT_TRUE(Computs);
  StaticSlice Slice = sliceOnRoutineOutput(
      *F.G, F.Prog->getMain()->findNested("computs"), "r1");
  auto Kept = pruneByStaticSlice(Computs, Slice);

  const char *Expected =
      R"(computs(In y: 3, Out r1: 12, Out r2: 9)
  comput1(In y: 3, Out r1: 12)
    partialsums(In y: 3, Out s1: 6, Out s2: 6)
      sum1(In y: 3, Out s1: 6)
        increment(In y: 3)=4
      sum2(In y: 3, Out s2: 6)
        decrement(In y: 3)=4
    add(In s1: 6, In s2: 6, Out r1: 12)
)";
  EXPECT_EQ(renderPruned(Computs, Kept), Expected);
  EXPECT_EQ(countRetained(Computs, Kept), 8u);
}

TEST(TreePrunerTest, Figure9PrunedTree) {
  Fig4Trace F;
  ExecNode *Partialsums = findNode(*F.Tree, "partialsums");
  ASSERT_TRUE(Partialsums);
  StaticSlice Slice = sliceOnRoutineOutput(
      *F.G, F.Prog->getMain()->findNested("partialsums"), "s2");
  auto Kept = pruneByStaticSlice(Partialsums, Slice);

  const char *Expected =
      R"(partialsums(In y: 3, Out s1: 6, Out s2: 6)
  sum2(In y: 3, Out s2: 6)
    decrement(In y: 3)=4
)";
  EXPECT_EQ(renderPruned(Partialsums, Kept), Expected);
  EXPECT_EQ(countRetained(Partialsums, Kept), 3u);
}

TEST(TreePrunerTest, PruningNeverDropsTheCriterionNode) {
  Fig4Trace F;
  ExecNode *Test = findNode(*F.Tree, "test");
  ASSERT_TRUE(Test);
  StaticSlice Empty;
  auto Kept = pruneByStaticSlice(Test, Empty);
  EXPECT_EQ(Kept.size(), 1u);
  EXPECT_TRUE(Kept.count(Test->getId()));
}

TEST(TreePrunerTest, RootOnlyRetentionRendersJustTheRoot) {
  Fig4Trace F;
  ExecNode *Computs = findNode(*F.Tree, "computs");
  ASSERT_TRUE(Computs);
  StaticSlice Empty;
  auto Kept = pruneByStaticSlice(Computs, Empty);
  EXPECT_EQ(countRetained(Computs, Kept), 1u);
  EXPECT_EQ(renderPruned(Computs, Kept),
            "computs(In y: 3, Out r1: 12, Out r2: 9)\n");
  // The set only speaks for Computs' subtree: counting from another root
  // that is not retained yields zero.
  ExecNode *Test = findNode(*F.Tree, "test");
  ASSERT_TRUE(Test);
  EXPECT_EQ(countRetained(Test, Kept), 0u);
}

TEST(TreePrunerTest, LoopNodeOutsideSliceDropsItsSubtree) {
  // The for-loop (and the calls made inside it) only affects u; a slice on
  // v must discard the loop unit together with everything under it.
  auto Prog = compile(
      "program p; var a, b, i: integer;"
      "function inc(x: integer): integer; begin inc := x + 1; end;"
      "procedure work(var u, v: integer);"
      "begin u := 0; for i := 1 to 3 do u := inc(u); v := 5; end;"
      "begin work(a, b); end.");
  SDG G(*Prog);
  InterpOptions Opts;
  Opts.TraceLoops = true;
  ExecResult Res;
  auto Tree = buildExecTree(*Prog, Opts, {}, &Res);
  ASSERT_TRUE(Res.Ok) << Res.Error.Message;
  ExecNode *Work = findNode(*Tree, "work");
  ASSERT_TRUE(Work);
  ExecNode *Loop = findNode(*Tree, "work.for#1");
  ASSERT_TRUE(Loop);
  EXPECT_EQ(Loop->getChildren().size(), 3u); // the three inc calls

  StaticSlice OnV = sliceOnRoutineOutput(
      G, Prog->getMain()->findNested("work"), "v");
  ASSERT_GT(OnV.size(), 0u);
  auto Kept = pruneByStaticSlice(Work, OnV);
  EXPECT_TRUE(Kept.count(Work->getId()));
  EXPECT_FALSE(Kept.count(Loop->getId()));
  for (const ExecNode *Inc : Loop->getChildren())
    EXPECT_FALSE(Kept.count(Inc->getId()))
        << "discarded loop must take its calls with it";
  EXPECT_EQ(countRetained(Work, Kept), 1u);

  // A slice on u keeps the loop and the calls.
  StaticSlice OnU = sliceOnRoutineOutput(
      G, Prog->getMain()->findNested("work"), "u");
  auto KeptU = pruneByStaticSlice(Work, OnU);
  EXPECT_TRUE(KeptU.count(Loop->getId()));
  EXPECT_EQ(countRetained(Work, KeptU), 5u);
}

TEST(TreePrunerTest, ReslicingPrunedTreeIntersectsRetainedSets) {
  // Debugger-style re-slicing: prune at computs on r1, then — inside the
  // already-pruned tree — prune at partialsums on s2 and intersect within
  // that subtree's interval. Successive slices only ever shrink the set.
  Fig4Trace F;
  ExecNode *Computs = findNode(*F.Tree, "computs");
  ExecNode *Partialsums = findNode(*F.Tree, "partialsums");
  ASSERT_TRUE(Computs && Partialsums);

  auto Active = pruneByStaticSlice(
      Computs, sliceOnRoutineOutput(
                   *F.G, F.Prog->getMain()->findNested("computs"), "r1"));
  ASSERT_EQ(countRetained(Computs, Active), 8u);

  auto Second = pruneByStaticSlice(
      Partialsums,
      sliceOnRoutineOutput(
          *F.G, F.Prog->getMain()->findNested("partialsums"), "s2"));
  Active.intersectRangeWith(Second, Partialsums->getId(),
                            Partialsums->subtreeEnd());

  // sum1 and increment drop out of partialsums; the rest is untouched.
  EXPECT_EQ(countRetained(Partialsums, Active), 3u);
  EXPECT_EQ(countRetained(Computs, Active), 6u);
  const char *Expected =
      R"(computs(In y: 3, Out r1: 12, Out r2: 9)
  comput1(In y: 3, Out r1: 12)
    partialsums(In y: 3, Out s1: 6, Out s2: 6)
      sum2(In y: 3, Out s2: 6)
        decrement(In y: 3)=4
    add(In s1: 6, In s2: 6, Out r1: 12)
)";
  EXPECT_EQ(renderPruned(Computs, Active), Expected);
}

//===----------------------------------------------------------------------===//
// Dynamic slicing
//===----------------------------------------------------------------------===//

TEST(DynamicSliceTest, Figure8DynamicMatchesStatic) {
  Fig4Trace F(/*TrackDeps=*/true);
  ExecNode *Computs = findNode(*F.Tree, "computs");
  ASSERT_TRUE(Computs);
  auto Kept = dynamicSlice(Computs, "r1");
  const char *Expected =
      R"(computs(In y: 3, Out r1: 12, Out r2: 9)
  comput1(In y: 3, Out r1: 12)
    partialsums(In y: 3, Out s1: 6, Out s2: 6)
      sum1(In y: 3, Out s1: 6)
        increment(In y: 3)=4
      sum2(In y: 3, Out s2: 6)
        decrement(In y: 3)=4
    add(In s1: 6, In s2: 6, Out r1: 12)
)";
  EXPECT_EQ(renderPruned(Computs, Kept), Expected);
}

TEST(DynamicSliceTest, Figure9DynamicMatchesStatic) {
  Fig4Trace F(/*TrackDeps=*/true);
  ExecNode *Partialsums = findNode(*F.Tree, "partialsums");
  ASSERT_TRUE(Partialsums);
  auto Kept = dynamicSlice(Partialsums, "s2");
  EXPECT_EQ(countRetained(Partialsums, Kept), 3u);
}

TEST(DynamicSliceTest, BranchNotExecutedIsExcluded) {
  // Static slicing keeps both branches; dynamic slicing keeps only what
  // actually ran.
  auto Prog = compile(
      "program p; var x, r: integer;"
      "function f(a: integer): integer; begin f := a + 1; end;"
      "function g(a: integer): integer; begin g := a + 2; end;"
      "procedure pick(sel: integer; var out1: integer);"
      "begin if sel > 0 then out1 := f(sel) else out1 := g(sel); end;"
      "begin x := 5; pick(x, r); end.");
  InterpOptions Opts;
  Opts.TrackDeps = true;
  ExecResult Res;
  auto Tree = buildExecTree(*Prog, Opts, {}, &Res);
  ASSERT_TRUE(Res.Ok);
  ExecNode *Pick = findNode(*Tree, "pick");
  ASSERT_TRUE(Pick);
  auto Kept = dynamicSlice(Pick, "out1");
  // f executed and is relevant; g never ran, so it cannot appear.
  ExecNode *FNode = findNode(*Tree, "f");
  ASSERT_TRUE(FNode);
  EXPECT_TRUE(Kept.count(FNode->getId()));
  EXPECT_EQ(findNode(*Tree, "g"), nullptr);
}

TEST(DynamicSliceTest, IrrelevantSiblingCallExcluded) {
  auto Prog = compile(
      "program p; var a, b: integer;"
      "procedure one(var v: integer); begin v := 1; end;"
      "procedure two(var v: integer); begin v := 2; end;"
      "procedure driver(var x, y: integer); begin one(x); two(y); end;"
      "begin driver(a, b); end.");
  InterpOptions Opts;
  Opts.TrackDeps = true;
  ExecResult Res;
  auto Tree = buildExecTree(*Prog, Opts, {}, &Res);
  ASSERT_TRUE(Res.Ok);
  ExecNode *Driver = findNode(*Tree, "driver");
  auto Kept = dynamicSlice(Driver, "y");
  EXPECT_TRUE(Kept.count(findNode(*Tree, "two")->getId()));
  EXPECT_FALSE(Kept.count(findNode(*Tree, "one")->getId()));
}

TEST(DynamicSliceTest, ControlDependenceIsTracked) {
  // cond() decides whether out gets set by f: f's output is control
  // dependent on cond's result, so cond must be in the dynamic slice.
  auto Prog = compile(
      "program p; var r: integer;"
      "function cond(x: integer): boolean; begin cond := x > 0; end;"
      "function f(a: integer): integer; begin f := a * 2; end;"
      "procedure driver(var out1: integer);"
      "begin out1 := 0; if cond(3) then out1 := f(7); end;"
      "begin driver(r); end.");
  InterpOptions Opts;
  Opts.TrackDeps = true;
  ExecResult Res;
  auto Tree = buildExecTree(*Prog, Opts, {}, &Res);
  ASSERT_TRUE(Res.Ok);
  ExecNode *Driver = findNode(*Tree, "driver");
  auto Kept = dynamicSlice(Driver, "out1");
  EXPECT_TRUE(Kept.count(findNode(*Tree, "cond")->getId()));
  EXPECT_TRUE(Kept.count(findNode(*Tree, "f")->getId()));
}

TEST(DynamicSliceTest, WithoutTrackingOnlyCriterionRemains) {
  Fig4Trace F(/*TrackDeps=*/false);
  ExecNode *Computs = findNode(*F.Tree, "computs");
  auto Kept = dynamicSlice(Computs, "r1");
  EXPECT_EQ(Kept.size(), 1u);
}

//===----------------------------------------------------------------------===//
// dynamicSlice edge cases (hand-built trees)
//===----------------------------------------------------------------------===//

/// Hand-builds a tree by replaying enter/exit events: \p Parents[i] is the
/// parent id of node i+1 (0 for the root). Children must follow parents in
/// id (preorder) order, as the interpreter emits them. \p Outputs, with
/// the parallel dependence sets \p OutputDeps, go to node \p OutputsAt.
std::unique_ptr<ExecTree>
syntheticTree(const std::vector<uint32_t> &Parents,
              std::vector<Binding> Outputs = {},
              std::vector<DepSet> OutputDeps = {}, uint32_t OutputsAt = 1) {
  ExecTreeBuilder B;
  std::vector<uint32_t> Open; // entered-but-not-exited, innermost last
  auto CloseTo = [&](uint32_t ParentId) {
    while (!Open.empty() && Open.back() != ParentId) {
      uint32_t Id = Open.back();
      Open.pop_back();
      if (Id == OutputsAt)
        B.exitUnit(Id, {}, std::move(Outputs), std::move(OutputDeps));
      else
        B.exitUnit(Id, {}, {}, {});
    }
  };
  for (uint32_t I = 0; I < Parents.size(); ++I) {
    CloseTo(Parents[I]);
    UnitStart S;
    S.NodeId = I + 1;
    S.Name = 'n' + std::to_string(I + 1);
    B.enterUnit(S);
    Open.push_back(I + 1);
  }
  CloseTo(0);
  return B.takeTree();
}

TEST(DynamicSliceTest, NullCriterionYieldsEmptySlice) {
  EXPECT_TRUE(dynamicSlice(nullptr, "y").empty());
}

TEST(DynamicSliceTest, UnknownOutputNameKeepsOnlyCriterion) {
  DepSet Deps;
  Deps.insert(2);
  auto Tree = syntheticTree({0, 1}, {{"y", Value::makeInt(7)}}, {Deps});
  auto Kept = dynamicSlice(Tree->getRoot(), "nosuch");
  EXPECT_EQ(Kept.ids(), (std::vector<uint32_t>{1}));
}

TEST(DynamicSliceTest, IntermediateKeptViaMarkedDescendant) {
  // root(1) -> mid(2) -> leaf(3), plus an irrelevant sibling other(4).
  // The output depends only on leaf; mid must be retained purely through
  // the ancestry closure, and other must not.
  DepSet Deps;
  Deps.insert(3);
  auto Tree =
      syntheticTree({0, 1, 2, 1}, {{"y", Value::makeInt(42)}}, {Deps});

  auto Kept = dynamicSlice(Tree->getRoot(), "y");
  EXPECT_EQ(Kept.ids(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_FALSE(Kept.count(4)) << "irrelevant sibling must be sliced away";
}

/// The dynamic slice computed id by id, as dynamicSlice did before it read
/// runs: every dependence id inside the criterion's proper subtree, walked
/// up until an already-marked ancestor.
support::NodeSet idWalkSlice(const ExecNode *Crit, const DepSet &Deps) {
  uint32_t CritId = Crit->getId(), End = Crit->subtreeEnd();
  support::NodeSet Kept(End);
  Kept.insert(CritId);
  for (uint32_t DepId : Deps.ids()) {
    if (DepId <= CritId || DepId >= End)
      continue;
    for (uint32_t Id = DepId; !Kept.contains(Id);
         Id = Crit->nodeAt(Id)->getParentId())
      Kept.insert(Id);
  }
  return Kept;
}

TEST(DynamicSliceTest, RunsClampAndCloseLikeTheIdWalk) {
  // 1 -+- 2 - 3
  //    +- 4 (criterion, subtree [4, 12)) -+- 5 -+- 6
  //    |                                  |     +- 7
  //    |                                  +- 8 -+- 9
  //    |                                  |     +- 10
  //    |                                  +- 11
  //    +- 12 - 13
  // The output's dependences are four runs:
  //  [2, 5]   starts before the criterion: only 5 counts;
  //  [7, 7]   its parent 5 was marked by the run before;
  //  [9, 9]   inside the subtree: the walk up marks 8;
  //  [11, 13] ends past the subtree: only 11 counts.
  DepSet Deps;
  for (uint32_t Id : {2u, 3u, 4u, 5u, 7u, 9u, 11u, 12u, 13u})
    Deps.insert(Id);
  unsigned Runs = 0;
  Deps.forEachRun([&](uint32_t, uint32_t) { ++Runs; });
  ASSERT_EQ(Runs, 4u);
  auto Tree = syntheticTree({0, 1, 2, 1, 4, 5, 5, 4, 8, 8, 4, 1, 12},
                            {{"y", Value::makeInt(1)}}, {Deps}, 4);
  const ExecNode *Crit = Tree->getRoot()->nodeAt(4);
  ASSERT_EQ(Crit->subtreeEnd(), 12u);

  auto Kept = dynamicSlice(Crit, "y");
  EXPECT_EQ(Kept.ids(), (std::vector<uint32_t>{4, 5, 7, 8, 9, 11}));
  EXPECT_EQ(Kept, idWalkSlice(Crit, Deps));
}

TEST(DynamicSliceTest, RunsMatchTheIdWalkOnRandomTrees) {
  std::mt19937 Gen(7);
  auto Below = [&Gen](uint32_t N) { return static_cast<uint32_t>(Gen() % N); };
  for (unsigned Round = 0; Round != 300; ++Round) {
    // A random preorder tree: each node hangs below some node on the path
    // from the root to its predecessor.
    uint32_t N = 2 + Below(40);
    std::vector<uint32_t> Parents = {0};
    std::vector<uint32_t> Path = {1};
    for (uint32_t Id = 2; Id <= N; ++Id) {
      Path.resize(1 + Below(static_cast<uint32_t>(Path.size())));
      Parents.push_back(Path.back());
      Path.push_back(Id);
    }
    // Dependences: a few random runs, some reaching outside the tree.
    DepSet Deps;
    for (unsigned K = Below(6); K != 0; --K) {
      uint32_t Lo = Below(N + 3), Len = Below(5);
      for (uint32_t Id = Lo; Id <= Lo + Len; ++Id)
        Deps.insert(Id);
    }
    uint32_t CritId = 1 + Below(N);
    auto Tree =
        syntheticTree(Parents, {{"y", Value::makeInt(0)}}, {Deps}, CritId);
    const ExecNode *Crit = Tree->getRoot()->nodeAt(CritId);
    ASSERT_EQ(dynamicSlice(Crit, "y"), idWalkSlice(Crit, Deps))
        << "round " << Round;
  }
}

} // namespace
