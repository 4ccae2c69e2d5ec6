//===- TransformTest.cpp - Transformation phase tests (paper Section 6) ---===//

#include "transform/Transform.h"

#include "analysis/CallGraph.h"
#include "analysis/SideEffects.h"
#include "interp/Interpreter.h"
#include "pascal/Frontend.h"
#include "pascal/PrettyPrinter.h"
#include "support/StringUtils.h"
#include "workload/PaperPrograms.h"

#include <gtest/gtest.h>

using namespace gadt;
using namespace gadt::analysis;
using namespace gadt::interp;
using namespace gadt::pascal;
using namespace gadt::transform;

namespace {

std::unique_ptr<Program> compile(std::string_view Src) {
  DiagnosticsEngine Diags;
  auto Prog = parseAndCheck(Src, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

struct Transformed {
  std::unique_ptr<Program> Orig;
  TransformResult Result;

  explicit Transformed(std::string_view Src) {
    Orig = compile(Src);
    DiagnosticsEngine Diags;
    Result = transformProgram(*Orig, Diags);
    EXPECT_TRUE(Result.Transformed != nullptr) << Diags.str();
  }

  Program &prog() { return *Result.Transformed; }
};

bool hasNonLocalGotos(Program &P) {
  bool Found = false;
  forEachRoutine(P.getMain(), [&](RoutineDecl *R) {
    if (R->getBody())
      forEachStmt(R->getBody(), [&](Stmt *S) {
        if (auto *GS = dyn_cast<GotoStmt>(S))
          if (GS->isNonLocal())
            Found = true;
      });
  });
  return Found;
}

bool isSideEffectFree(Program &P) {
  CallGraph CG(P);
  SideEffectAnalysis SEA(P, CG);
  return SEA.programIsSideEffectFree();
}

/// Runs \p P on \p Input; EXPECTs success; returns (output, final globals).
std::pair<std::string, std::vector<Binding>>
runOk(Program &P, std::vector<int64_t> Input = {}) {
  Interpreter I(P);
  I.setInput(std::move(Input));
  ExecResult R = I.run();
  EXPECT_TRUE(R.Ok) << R.Error.Message << " in:\n" << printProgram(P);
  return {R.Output, R.FinalGlobals};
}

/// Original and transformed programs must agree on output and on every
/// final global value.
void expectEquivalent(Program &Orig, Program &Xformed,
                      std::vector<int64_t> Input = {}) {
  auto [OutO, GlobO] = runOk(Orig, Input);
  auto [OutX, GlobX] = runOk(Xformed, Input);
  EXPECT_EQ(OutO, OutX);
  // The transformation may add helper locals at program level (exit
  // conditions, leave flags); compare the original globals by name.
  for (const Binding &BO : GlobO) {
    const Binding *BX = nullptr;
    for (const Binding &Candidate : GlobX)
      if (Candidate.Name == BO.Name)
        BX = &Candidate;
    ASSERT_TRUE(BX) << "global " << BO.Name << " vanished";
    EXPECT_TRUE(BO.V.equals(BX->V))
        << BO.Name << ": " << BO.V.str() << " vs " << BX->V.str() << "\n"
        << printProgram(Xformed);
  }
}

//===----------------------------------------------------------------------===//
// Globals to parameters
//===----------------------------------------------------------------------===//

TEST(GlobalsToParamsTest, Section6ExampleGetsInAndOutParams) {
  Transformed T(workload::Section6Globals);
  RoutineDecl *P = T.prog().getMain()->findNested("p");
  ASSERT_TRUE(P);
  // Original: p(var y). Transformed: p(var y; in x; out z).
  ASSERT_EQ(P->getParams().size(), 3u);
  EXPECT_EQ(P->getParams()[0]->getName(), "y");
  EXPECT_EQ(P->getParams()[1]->getName(), "x");
  EXPECT_EQ(P->getParams()[1]->getMode(), ParamMode::In);
  EXPECT_EQ(P->getParams()[2]->getName(), "z");
  EXPECT_EQ(P->getParams()[2]->getMode(), ParamMode::Out);
  EXPECT_EQ(T.Result.Stats.GlobalsConverted, 2u);
}

TEST(GlobalsToParamsTest, ResultIsSideEffectFree) {
  Transformed T(workload::Section6Globals);
  EXPECT_FALSE(isSideEffectFree(*T.Orig));
  EXPECT_TRUE(isSideEffectFree(T.prog()));
}

TEST(GlobalsToParamsTest, SemanticsPreserved) {
  Transformed T(workload::Section6Globals);
  expectEquivalent(*T.Orig, T.prog());
}

TEST(GlobalsToParamsTest, ReadWriteGlobalBecomesVarParam) {
  Transformed T("program p; var g: integer;"
                "procedure bump; begin g := g + 1; end;"
                "begin g := 5; bump; bump; writeln(g); end.");
  RoutineDecl *Bump = T.prog().getMain()->findNested("bump");
  ASSERT_EQ(Bump->getParams().size(), 1u);
  EXPECT_EQ(Bump->getParams()[0]->getMode(), ParamMode::Var);
  expectEquivalent(*T.Orig, T.prog());
}

TEST(GlobalsToParamsTest, TransitiveEffectsConvertWholeChain) {
  Transformed T("program p; var g: integer;"
                "procedure leaf; begin g := g * 2; end;"
                "procedure mid; begin leaf; end;"
                "procedure top; begin mid; end;"
                "begin g := 3; top; writeln(g); end.");
  for (const char *Name : {"leaf", "mid", "top"}) {
    RoutineDecl *R = T.prog().getMain()->findNested(Name);
    ASSERT_EQ(R->getParams().size(), 1u) << Name;
    EXPECT_EQ(R->getParams()[0]->getName(), "g") << Name;
    EXPECT_EQ(R->getParams()[0]->getMode(), ParamMode::Var) << Name;
  }
  expectEquivalent(*T.Orig, T.prog());
}

TEST(GlobalsToParamsTest, NameCollisionGetsFreshName) {
  Transformed T("program p; var g: integer;"
                "procedure q(g: integer); begin end;"
                "procedure r; var x: integer;"
                "begin x := g; q(x); end;"
                // r reads global g; q has a param also named g.
                "procedure s(g: integer); var y: integer;"
                "begin y := 0; end;"
                "begin g := 7; r; end.");
  RoutineDecl *R = T.prog().getMain()->findNested("r");
  ASSERT_EQ(R->getParams().size(), 1u);
  EXPECT_EQ(R->getParams()[0]->getName(), "g");
  expectEquivalent(*T.Orig, T.prog());
}

TEST(GlobalsToParamsTest, CollisionInsideConvertedRoutineRenames) {
  Transformed T("program p; var g: integer;"
                "procedure q; var g2: integer;"
                "  procedure inner(g: integer); begin g2 := g; end;"
                "begin g2 := g; inner(g2); g := g2; end;"
                "begin g := 7; q; writeln(g); end.");
  expectEquivalent(*T.Orig, T.prog());
}

TEST(GlobalsToParamsTest, UpLevelLocalsAreConvertedForNestedRoutines) {
  Transformed T("program p; var out1: integer;"
                "procedure outer(var res: integer); var m: integer;"
                "  procedure inner; begin m := m + 5; end;"
                "begin m := 1; inner; inner; res := m; end;"
                "begin outer(out1); writeln(out1); end.");
  RoutineDecl *Outer = T.prog().getMain()->findNested("outer");
  RoutineDecl *Inner = Outer->findNested("inner");
  ASSERT_EQ(Inner->getParams().size(), 1u);
  EXPECT_EQ(Inner->getParams()[0]->getName(), "m");
  EXPECT_EQ(Inner->getParams()[0]->getMode(), ParamMode::Var);
  // outer itself has no *global* effects, so it gains nothing.
  EXPECT_EQ(Outer->getParams().size(), 1u);
  expectEquivalent(*T.Orig, T.prog());
}

TEST(GlobalsToParamsTest, FunctionWithGlobalEffectGetsParamInCallExpr) {
  Transformed T("program p; var g, r: integer;"
                "function next: integer;"
                "begin g := g + 1; next := g; end;"
                "begin g := 0; r := next() + next(); writeln(r, g); end.");
  RoutineDecl *Next = T.prog().getMain()->findNested("next");
  ASSERT_EQ(Next->getParams().size(), 1u);
  EXPECT_EQ(Next->getParams()[0]->getMode(), ParamMode::Var);
  expectEquivalent(*T.Orig, T.prog());
}

TEST(GlobalsToParamsTest, SideEffectFreeProgramUntouched) {
  Transformed T(workload::Figure4Buggy);
  EXPECT_EQ(T.Result.Stats.GlobalsConverted, 0u);
  EXPECT_EQ(T.Result.Stats.GotosBroken, 0u);
  expectEquivalent(*T.Orig, T.prog());
}

//===----------------------------------------------------------------------===//
// Global gotos
//===----------------------------------------------------------------------===//

TEST(GlobalGotosTest, Section6ExampleBecomesLocal) {
  Transformed T(workload::Section6GlobalGoto);
  EXPECT_TRUE(hasNonLocalGotos(*T.Orig));
  EXPECT_FALSE(hasNonLocalGotos(T.prog()));
  EXPECT_GT(T.Result.Stats.GotosBroken, 0u);
  EXPECT_GT(T.Result.Stats.ExitParamsAdded, 0u);
}

TEST(GlobalGotosTest, Section6ExampleSemanticsPreserved) {
  Transformed T(workload::Section6GlobalGoto);
  expectEquivalent(*T.Orig, T.prog());
}

TEST(GlobalGotosTest, ExitConditionParamAdded) {
  Transformed T(workload::Section6GlobalGoto);
  RoutineDecl *P = T.prog().getMain()->findNested("p");
  RoutineDecl *Q = P->findNested("q");
  // q gains an exitcond var parameter (plus its original two).
  ASSERT_EQ(Q->getParams().size(), 3u);
  EXPECT_EQ(Q->getParams()[2]->getMode(), ParamMode::Var);
  EXPECT_NE(Q->getParams()[2]->getName().find("exitcond"),
            std::string::npos);
}

TEST(GlobalGotosTest, TwoLevelGotoCascades) {
  // goto from doubly-nested routine straight to the program level: breaking
  // it in `inner` plants a non-local goto in `outer`, which a second round
  // must break again.
  Transformed T("program p; label 5; var r: integer;"
                "procedure outer(var v: integer);"
                "  procedure inner(var w: integer);"
                "  begin w := w + 1; if w > 3 then goto 5; w := w + 10; end;"
                "begin inner(v); v := v + 100; end;"
                "begin r := 10; outer(r); r := r + 1000;"
                "5: writeln(r); end.");
  EXPECT_FALSE(hasNonLocalGotos(T.prog()));
  EXPECT_GE(T.Result.Stats.ExitParamsAdded, 2u);
  expectEquivalent(*T.Orig, T.prog());
  // Also check a run where the goto does NOT fire.
  Transformed T2("program p; label 5; var r: integer;"
                 "procedure outer(var v: integer);"
                 "  procedure inner(var w: integer);"
                 "  begin w := w + 1; if w > 3 then goto 5; w := w + 10; end;"
                 "begin inner(v); v := v + 100; end;"
                 "begin r := 1; outer(r); r := r + 1000;"
                 "5: writeln(r); end.");
  expectEquivalent(*T2.Orig, T2.prog());
}

TEST(GlobalGotosTest, FunctionExpressionGotoIsRejected) {
  auto Orig = compile("program p; label 9; var r: integer;"
                      "function f(x: integer): integer;"
                      "begin if x > 0 then goto 9; f := x; end;"
                      "begin r := f(1); 9: writeln(r); end.");
  DiagnosticsEngine Diags;
  TransformResult Result = transformProgram(*Orig, Diags);
  EXPECT_EQ(Result.Transformed, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("expression position"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Loop escapes
//===----------------------------------------------------------------------===//

TEST(LoopEscapesTest, Section6ExampleRewritten) {
  Transformed T(workload::Section6LoopGoto);
  EXPECT_EQ(T.Result.Stats.LoopsRewritten, 1u);
  std::string Src = printProgram(T.prog());
  EXPECT_NE(Src.find("and not leave"), std::string::npos) << Src;
  EXPECT_NE(Src.find("if leave then"), std::string::npos) << Src;
}

TEST(LoopEscapesTest, Section6ExampleSemanticsPreserved) {
  Transformed T(workload::Section6LoopGoto);
  expectEquivalent(*T.Orig, T.prog());
}

TEST(LoopEscapesTest, LoopWithoutEscapesUntouched) {
  Transformed T("program p; var i, s: integer;"
                "begin s := 0; i := 0;"
                "while i < 5 do begin i := i + 1; s := s + i; end;"
                "writeln(s); end.");
  EXPECT_EQ(T.Result.Stats.LoopsRewritten, 0u);
}

TEST(LoopEscapesTest, MultipleTargetsUseCodeVariable) {
  Transformed T("program p; label 7, 8; var i, s: integer;"
                "begin s := 0; i := 0;"
                "while i < 10 do begin"
                "  i := i + 1;"
                "  if i = 3 then goto 7;"
                "  if s > 100 then goto 8;"
                "  s := s + i;"
                "end;"
                "s := s + 10000;"
                "7: s := s + 1;"
                "8: s := s + 2;"
                "writeln(s); end.");
  EXPECT_EQ(T.Result.Stats.LoopsRewritten, 1u);
  expectEquivalent(*T.Orig, T.prog());
}

TEST(LoopEscapesTest, NestedLoopsEscapingBothLevels) {
  Transformed T("program p; label 9; var i, j, s: integer;"
                "begin s := 0; i := 0;"
                "while i < 4 do begin"
                "  i := i + 1; j := 0;"
                "  while j < 4 do begin"
                "    j := j + 1; s := s + 1;"
                "    if s > 5 then goto 9;"
                "  end;"
                "end;"
                "s := s + 1000;"
                "9: writeln(s); end.");
  EXPECT_EQ(T.Result.Stats.LoopsRewritten, 2u);
  expectEquivalent(*T.Orig, T.prog());
}

TEST(LoopEscapesTest, GotoOutOfLoopAndOutOfProcedure) {
  // The escape leaves the while loop AND the procedure: first the loop
  // rewrite localizes it to the routine, then goto breaking carries it to
  // the caller.
  Transformed T(R"(
program p;
label 3;
var n, acc: integer;
procedure scan(limit: integer; var total: integer);
var i: integer;
begin
  total := 0;
  i := 0;
  while i < limit do begin
    i := i + 1;
    total := total + i;
    if total > 20 then goto 3;
  end;
  total := total + 500;
end;
begin
  n := 100;
  scan(n, acc);
  acc := acc + 7000;
  3: writeln(acc);
end.
)");
  EXPECT_FALSE(hasNonLocalGotos(T.prog()));
  EXPECT_GE(T.Result.Stats.LoopsRewritten, 1u);
  EXPECT_GE(T.Result.Stats.GotosBroken, 1u);
  expectEquivalent(*T.Orig, T.prog());
}

// Two escaping gotos in one loop: replacing the second must not match the
// fresh `goto whilelab` built for the first, even when it reuses the
// first goto's freed address (the rewrite used to recurse until the stack
// ran out).
TEST(LoopEscapesTest, TwoEscapingGotosInOneLoop) {
  Transformed T(R"(
program lg;
label 9;
var i: integer;
begin
  i := 0;
  while i < 3 do begin
    goto 9;
    goto 9
  end;
  9: writeln(i)
end.
)");
  EXPECT_EQ(T.Result.Stats.LoopsRewritten, 1u);
  expectEquivalent(*T.Orig, T.prog());
}

TEST(LoopEscapesTest, Section6ExampleWithSecondGoto) {
  std::string Src = workload::Section6LoopGoto;
  const std::string Escape = "      goto 9;\n";
  size_t At = Src.find(Escape);
  ASSERT_NE(At, std::string::npos);
  Src.insert(At + Escape.size(), "    if total > 40 then\n      goto 9;\n");
  Transformed T(Src);
  EXPECT_EQ(T.Result.Stats.LoopsRewritten, 1u);
  expectEquivalent(*T.Orig, T.prog());
}

//===----------------------------------------------------------------------===//
// Whole-pipeline properties
//===----------------------------------------------------------------------===//

TEST(TransformPipelineTest, AllPaperProgramsStayEquivalent) {
  for (const char *Src :
       {workload::Figure4Buggy, workload::Figure4Fixed, workload::Figure2,
        workload::Section6Globals, workload::Section6GlobalGoto,
        workload::Section6LoopGoto}) {
    Transformed T(Src);
    std::vector<int64_t> Input;
    if (Src == workload::Figure2)
      Input = {2, 3, 4};
    expectEquivalent(*T.Orig, T.prog(), Input);
  }
}

TEST(TransformPipelineTest, TransformedProgramsAreFullyClean) {
  for (const char *Src :
       {workload::Section6Globals, workload::Section6GlobalGoto,
        workload::Section6LoopGoto}) {
    Transformed T(Src);
    EXPECT_FALSE(hasNonLocalGotos(T.prog()));
    EXPECT_TRUE(isSideEffectFree(T.prog()));
  }
}

TEST(TransformPipelineTest, GrowthFactorBelowTwo) {
  // Paper Section 9: "Small procedures usually grow less than a factor of
  // two after transformations."
  for (const char *Src :
       {workload::Section6Globals, workload::Section6GlobalGoto,
        workload::Section6LoopGoto}) {
    Transformed T(Src);
    unsigned Before = countCodeLines(printProgram(*T.Orig));
    unsigned After = countCodeLines(printProgram(T.prog()));
    EXPECT_LT(After, 2 * Before)
        << printProgram(T.prog());
  }
}

TEST(TransformPipelineTest, TransformationIsIdempotent) {
  Transformed T(workload::Section6Globals);
  DiagnosticsEngine Diags;
  TransformResult Again = transformProgram(T.prog(), Diags);
  ASSERT_TRUE(Again.Transformed) << Diags.str();
  EXPECT_EQ(Again.Stats.GlobalsConverted, 0u);
  EXPECT_EQ(Again.Stats.GotosBroken, 0u);
  EXPECT_EQ(Again.Stats.LoopsRewritten, 0u);
}

} // namespace
