//===- InterpreterTest.cpp - Interpreter unit tests -----------------------===//

#include "interp/Interpreter.h"

#include "TwoHelpers.h"

#include "pascal/Frontend.h"
#include "tgen/ConstEval.h"
#include "tgen/SpecParser.h"
#include "trace/ExecTreeBuilder.h"
#include "workload/PaperPrograms.h"

#include <gtest/gtest.h>

using namespace gadt;
using namespace gadt::interp;
using namespace gadt::pascal;

namespace {

std::unique_ptr<Program> compile(std::string_view Src) {
  DiagnosticsEngine Diags;
  auto Prog = parseAndCheck(Src, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

ExecResult runProgram(std::string_view Src, std::vector<int64_t> Input = {}) {
  auto Prog = compile(Src);
  if (!Prog)
    return {};
  Interpreter I(*Prog);
  I.setInput(std::move(Input));
  return I.run();
}

const Value *findGlobal(const ExecResult &R, const std::string &Name) {
  for (const Binding &B : R.FinalGlobals)
    if (B.Name == Name)
      return &B.V;
  return nullptr;
}

TEST(InterpreterTest, Arithmetic) {
  auto R = runProgram("program p; var x: integer;"
                      "begin x := (2 + 3) * 4 - 10 div 3 + 7 mod 4; end.");
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(findGlobal(R, "x")->asInt(), 20 - 3 + 3);
}

TEST(InterpreterTest, BooleanLogic) {
  auto R = runProgram("program p; var a, b, c: boolean;"
                      "begin a := true and not false;"
                      "b := (1 < 2) or (3 = 4); c := a and b; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(findGlobal(R, "c")->asBool());
}

TEST(InterpreterTest, IfElse) {
  auto R = runProgram("program p; var x, y: integer;"
                      "begin x := 5;"
                      "if x > 3 then y := 1 else y := 2; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "y")->asInt(), 1);
}

TEST(InterpreterTest, WhileLoop) {
  auto R = runProgram("program p; var i, s: integer;"
                      "begin i := 0; s := 0;"
                      "while i < 5 do begin i := i + 1; s := s + i; end;"
                      "end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "s")->asInt(), 15);
}

TEST(InterpreterTest, RepeatLoopRunsAtLeastOnce) {
  auto R = runProgram("program p; var i: integer;"
                      "begin i := 10; repeat i := i + 1; until i > 0; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "i")->asInt(), 11);
}

TEST(InterpreterTest, ForLoopUpAndDown) {
  auto R = runProgram("program p; var i, up, down: integer;"
                      "begin up := 0; down := 0;"
                      "for i := 1 to 4 do up := up + i;"
                      "for i := 4 downto 1 do down := down * 10 + i; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "up")->asInt(), 10);
  EXPECT_EQ(findGlobal(R, "down")->asInt(), 4321);
}

TEST(InterpreterTest, ForLoopEmptyRange) {
  auto R = runProgram("program p; var i, s: integer;"
                      "begin s := 7; for i := 5 to 1 do s := 0; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "s")->asInt(), 7);
}

TEST(InterpreterTest, ArraysAndIndexing) {
  auto R = runProgram("program p; var a: array[1..5] of integer;"
                      "i, s: integer;"
                      "begin for i := 1 to 5 do a[i] := i * i;"
                      "s := a[1] + a[5]; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "s")->asInt(), 26);
}

TEST(InterpreterTest, ArrayValueSemanticsOnAssignment) {
  // Both sides of b := a share the elements until one of them is stored
  // into; a store on either side must not reach the other.
  auto R = runProgram("program p; var a, b: array[1..2] of integer;"
                      "x: integer;"
                      "begin a[1] := 1; b := a; b[1] := 99; x := a[1];"
                      " a[2] := 5; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "x")->asInt(), 1);
  EXPECT_EQ(findGlobal(R, "a")->str(), "[1, 5]");
  EXPECT_EQ(findGlobal(R, "b")->str(), "[99, 0]");
}

TEST(InterpreterTest, ValueParamsCopyArrays) {
  auto R = runProgram("program p; type arr = array[1..2] of integer;"
                      "var a: arr; x, inner: integer;"
                      "procedure q(v: arr); begin v[1] := 42; inner := v[1];"
                      " end;"
                      "begin a[1] := 7; q(a); x := a[1]; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "x")->asInt(), 7);
  EXPECT_EQ(findGlobal(R, "inner")->asInt(), 42);
}

TEST(InterpreterTest, VarParamsAlias) {
  auto R = runProgram("program p; type arr = array[1..2] of integer;"
                      "var x: integer; a, b: arr;"
                      "procedure bump(var v: integer);"
                      "begin v := v + 1; end;"
                      "procedure set2(var v: arr); begin v[2] := 43; end;"
                      "begin x := 1; bump(x); bump(x);"
                      " a[1] := 7; b := a; set2(b); end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "x")->asInt(), 3);
  EXPECT_EQ(findGlobal(R, "a")->str(), "[7, 0]");
  EXPECT_EQ(findGlobal(R, "b")->str(), "[7, 43]");
}

TEST(InterpreterTest, FunctionsReturnValues) {
  auto R = runProgram("program p; var r: integer;"
                      "function sq(x: integer): integer;"
                      "begin sq := x * x; end;"
                      "begin r := sq(6); end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "r")->asInt(), 36);
}

TEST(InterpreterTest, RecursiveFactorial) {
  auto R = runProgram("program p; var r: integer;"
                      "function fact(n: integer): integer;"
                      "begin if n <= 1 then fact := 1 "
                      "else fact := n * fact(n - 1); end;"
                      "begin r := fact(6); end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "r")->asInt(), 720);
}

TEST(InterpreterTest, NestedRoutinesSeeEnclosingLocals) {
  auto R = runProgram("program p; var g: integer;"
                      "procedure outer;"
                      "var m: integer;"
                      "  procedure inner; begin m := m + 5; end;"
                      "begin m := 1; inner; inner; g := m; end;"
                      "begin outer; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "g")->asInt(), 11);
}

TEST(InterpreterTest, GlobalSideEffects) {
  auto R = runProgram(workload::Section6Globals);
  ASSERT_TRUE(R.Ok);
  // p(w): w := x + 1 = 11; z := w - x = 1.
  EXPECT_EQ(findGlobal(R, "w")->asInt(), 11);
  EXPECT_EQ(findGlobal(R, "z")->asInt(), 1);
  EXPECT_EQ(R.Output, "1\n");
}

TEST(InterpreterTest, ReadAndWrite) {
  auto R = runProgram("program p; var x, y: integer;"
                      "begin read(x, y); writeln(x + y); write(x); end.",
                      {3, 4});
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Output, "7\n3");
}

TEST(InterpreterTest, WriteStrings) {
  auto R = runProgram("program p; var x: integer;"
                      "begin x := 5; writeln('x = ', x); end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Output, "x = 5\n");
}

TEST(InterpreterTest, LocalGotoForward) {
  auto R = runProgram("program p; label 9; var x: integer;"
                      "begin x := 1; goto 9; x := 2; 9: x := x + 10; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "x")->asInt(), 11);
}

TEST(InterpreterTest, LocalGotoBackwardLoops) {
  auto R = runProgram("program p; label 1; var i: integer;"
                      "begin i := 0;"
                      "1: i := i + 1;"
                      "if i < 5 then goto 1; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "i")->asInt(), 5);
}

TEST(InterpreterTest, GotoOutOfLoop) {
  auto R = runProgram(workload::Section6LoopGoto);
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  // total climbs 1+1, 2+1, ... until > 50 inside loop, then goto 9 adds 7.
  // i: 1..9 gives total 54 -> first >50 at total=54? Let's just check the
  // +500 branch was skipped: result must be < 500.
  const Value *Acc = findGlobal(R, "acc");
  ASSERT_TRUE(Acc);
  EXPECT_LT(Acc->asInt(), 500);
  EXPECT_EQ(R.Output, std::to_string(Acc->asInt()) + "\n");
}

TEST(InterpreterTest, NonLocalGotoUnwindsActivations) {
  auto R = runProgram(workload::Section6GlobalGoto);
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  // v=20: q sets r(=s)=21, u>10 so goto 9 skips both *2 and +100;
  // then r := r + 1 = 22; v <= 100 so r := r + 1000 = 1022.
  EXPECT_EQ(findGlobal(R, "b")->asInt(), 1022);
  EXPECT_EQ(R.Output, "1022\n");
}

TEST(InterpreterTest, Figure4BuggyProducesFalse) {
  auto R = runProgram(workload::Figure4Buggy);
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_FALSE(findGlobal(R, "isok")->asBool());
}

TEST(InterpreterTest, Figure4FixedProducesTrue) {
  auto R = runProgram(workload::Figure4Fixed);
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_TRUE(findGlobal(R, "isok")->asBool());
}

// Runtime errors -------------------------------------------------------------

TEST(InterpreterTest, DivisionByZeroFails) {
  auto R = runProgram("program p; var x: integer; begin x := 1 div 0; end.");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.Message.find("division by zero"), std::string::npos);
}

/// x := INT64_MIN; y := -1; z := x \p Op y.
std::string minIntByMinusOne(const std::string &Op) {
  return "program p; var x, y, z: integer;\n"
         "begin x := -9223372036854775807 - 1; y := 0 - 1;\n"
         "  z := x " + Op + " y; writeln(z) end.";
}

TEST(InterpreterTest, MinIntDivMinusOneIsAnOverflowError) {
  auto R = runProgram(minIntByMinusOne("div"));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Message, "integer overflow");
  EXPECT_EQ(R.Output, "");
  // Reported where a zero divisor would be: at the division.
  auto Zero = runProgram("program p; var x, y, z: integer;\n"
                         "begin x := -9223372036854775807 - 1; y := 0;\n"
                         "  z := x div y; writeln(z) end.");
  ASSERT_FALSE(Zero.Ok);
  EXPECT_EQ(Zero.Error.Message, "division by zero");
  EXPECT_EQ(R.Error.Loc, Zero.Error.Loc);
  EXPECT_EQ(R.Error.Loc.Line, 3u);
}

TEST(InterpreterTest, MinIntModMinusOneIsZero) {
  auto R = runProgram(minIntByMinusOne("mod"));
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(findGlobal(R, "z")->asInt(), 0);
  EXPECT_EQ(R.Output, "0\n");
}

TEST(InterpreterTest, ArrayIndexOutOfBoundsFails) {
  auto R = runProgram("program p; var a: array[1..3] of integer; x: integer;"
                      "begin x := 7; a[x] := 1; end.");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.Message.find("out of bounds"), std::string::npos);
}

TEST(InterpreterTest, ReadPastEndOfInputFails) {
  auto R = runProgram("program p; var x: integer; begin read(x); end.", {});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.Message.find("read past end"), std::string::npos);
}

TEST(InterpreterTest, InfiniteLoopHitsStepLimit) {
  auto Prog = compile("program p; var x: integer;"
                      "begin while true do x := x + 1; end.");
  InterpOptions Opts;
  Opts.MaxSteps = 10000;
  Interpreter I(*Prog, Opts);
  auto R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.Message.find("step limit"), std::string::npos);
}

// Direct routine calls -------------------------------------------------------

TEST(InterpreterTest, CallRoutineDirectly) {
  auto Prog = compile(workload::Figure4Buggy);
  Interpreter I(*Prog);
  ArrayVal A;
  A.Lo = 1;
  A.Hi = 3;
  A.Elems = {10, 20, 30};
  auto Out = I.callRoutine(
      "arrsum", {Value::makeArray(A), Value::makeInt(3), Value()});
  ASSERT_TRUE(Out.Ok) << Out.Error.Message;
  ASSERT_EQ(Out.Outputs.size(), 1u);
  EXPECT_EQ(Out.Outputs[0].Name, "b");
  EXPECT_EQ(Out.Outputs[0].V.asInt(), 60);
}

TEST(InterpreterTest, CallFunctionDirectly) {
  auto Prog = compile(workload::Figure4Buggy);
  Interpreter I(*Prog);
  auto Out = I.callRoutine("decrement", {Value::makeInt(3)});
  ASSERT_TRUE(Out.Ok);
  ASSERT_EQ(Out.Outputs.size(), 1u);
  EXPECT_EQ(Out.Outputs[0].Name, "decrement");
  EXPECT_EQ(Out.Outputs[0].V.asInt(), 4); // the planted bug
}

TEST(InterpreterTest, CallUnknownRoutineFails) {
  auto Prog = compile(workload::Figure4Buggy);
  Interpreter I(*Prog);
  auto Out = I.callRoutine("nosuch", {});
  EXPECT_FALSE(Out.Ok);
}

TEST(InterpreterTest, CallRoutineByQualifiedName) {
  // p.a.helper adds 1; p.b.helper calls inc2, which adds 3.
  auto Prog = compile(test::TwoHelpers);
  Interpreter I(*Prog);
  auto A = I.callRoutine("p.a.helper", {Value::makeInt(10)});
  ASSERT_TRUE(A.Ok) << A.Error.Message;
  ASSERT_EQ(A.Outputs.size(), 1u);
  EXPECT_EQ(A.Outputs[0].V.asInt(), 11);
  auto B = I.callRoutine("p.b.helper", {Value::makeInt(10)});
  ASSERT_TRUE(B.Ok) << B.Error.Message;
  ASSERT_EQ(B.Outputs.size(), 1u);
  EXPECT_EQ(B.Outputs[0].V.asInt(), 13);
  // A plain name two routines share names neither.
  auto Plain = I.callRoutine("helper", {Value::makeInt(10)});
  EXPECT_FALSE(Plain.Ok);
  EXPECT_NE(Plain.Error.Message.find("'helper' is ambiguous"),
            std::string::npos)
      << Plain.Error.Message;
  // A unique plain name and a path through no routine.
  EXPECT_TRUE(I.callRoutine("inc2", {Value::makeInt(1)}).Ok);
  EXPECT_FALSE(I.callRoutine("p.c.helper", {Value::makeInt(1)}).Ok);
  EXPECT_FALSE(I.callRoutine("q.a.helper", {Value::makeInt(1)}).Ok);
}

} // namespace

//===----------------------------------------------------------------------===//
// Constants and mutual recursion (appended suite)
//===----------------------------------------------------------------------===//

namespace {

TEST(InterpreterTest, ConstantsEvaluate) {
  auto R = runProgram("program p; const base = 100; step = -5;"
                      "var x, i: integer;"
                      "begin x := base;"
                      "for i := 1 to 3 do x := x + step; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "x")->asInt(), 85);
}

TEST(InterpreterTest, MutualRecursionThroughForward) {
  auto R = runProgram(
      "program p; var a, b: integer;"
      "function isodd(n: integer): boolean; forward;"
      "function iseven(n: integer): boolean;"
      "begin if n = 0 then iseven := true else iseven := isodd(n - 1);"
      "end;"
      "function isodd(n: integer): boolean;"
      "begin if n = 0 then isodd := false else isodd := iseven(n - 1);"
      "end;"
      "begin"
      "  if isodd(9) then a := 1 else a := 0;"
      "  if iseven(8) then b := 1 else b := 0;"
      "end.");
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(findGlobal(R, "a")->asInt(), 1);
  EXPECT_EQ(findGlobal(R, "b")->asInt(), 1);
}

} // namespace

namespace {

TEST(InterpreterTest, RunawayRecursionHitsDepthLimit) {
  auto Prog = compile("program p; var r: integer;"
                      "function loop(n: integer): integer;"
                      "begin loop := loop(n + 1); end;"
                      "begin r := loop(0); end.");
  InterpOptions Opts;
  Opts.MaxCallDepth = 100;
  Interpreter I(*Prog, Opts);
  auto R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.Message.find("call depth"), std::string::npos);
}

TEST(InterpreterTest, DeepButBoundedRecursionSucceeds) {
  auto R = runProgram("program p; var r: integer;"
                      "function down(n: integer): integer;"
                      "begin if n = 0 then down := 0"
                      " else down := down(n - 1) + 1; end;"
                      "begin r := down(800); end.");
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(findGlobal(R, "r")->asInt(), 800);
}

} // namespace

namespace {

TEST(InterpreterTest, StrictModeFlagsUseBeforeAssignment) {
  auto Prog = compile("program p; var x, y: integer;"
                      "begin y := x + 1; x := 2; end.");
  InterpOptions Opts;
  Opts.DetectUninitialized = true;
  Interpreter I(*Prog, Opts);
  auto R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.Message.find("'x' is used before"), std::string::npos);
}

TEST(InterpreterTest, StrictModeFlagsMissingFunctionResult) {
  auto Prog = compile("program p; var r: integer;"
                      "function f(x: integer): integer;"
                      "begin if x > 100 then f := x; end;"
                      "begin r := f(1); end.");
  InterpOptions Opts;
  Opts.DetectUninitialized = true;
  Interpreter I(*Prog, Opts);
  auto R = I.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.Message.find("without assigning its result"),
            std::string::npos);
}

TEST(InterpreterTest, StrictModeAcceptsProperPrograms) {
  auto Prog = compile(workload::Figure4Buggy);
  InterpOptions Opts;
  Opts.DetectUninitialized = true;
  Interpreter I(*Prog, Opts);
  auto R = I.run();
  EXPECT_TRUE(R.Ok) << R.Error.Message;
}

TEST(InterpreterTest, LaxModeToleratesUninitializedReads) {
  auto R = runProgram("program p; var x, y: integer;"
                      "begin y := x + 1; end.");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(findGlobal(R, "y")->asInt(), 1) << "defaults to zero";
}

// Integer overflow and loop bounds at the ends of int64 ---------------------

TEST(InterpreterTest, IntegerOverflowWrapsLikeConstEval) {
  auto R = runProgram("program p; var x: integer;"
                      "begin x := 9223372036854775807; x := x + 1;"
                      " writeln(x) end.");
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(R.Output, "-9223372036854775808\n");

  // Each expression overflows in the VM's Mul, Add, Sub or NegI handler;
  // T-GEN's closed evaluator must compute the same wrapped value.
  for (const char *E :
       {"3037000500 * 3037000500", "9223372036854775807 * 2",
        "(0 - 9223372036854775807) * 3 - 5",
        "9223372036854775807 + 9223372036854775807",
        "-(-9223372036854775807 - 1)", "0 - (-9223372036854775807 - 1)"}) {
    R = runProgram(std::string("program p; begin writeln(") + E + ") end.");
    ASSERT_TRUE(R.Ok) << E << ": " << R.Error.Message;
    DiagnosticsEngine Diags;
    ExprPtr Closed = tgen::parseClassifierExpr(E, Diags);
    ASSERT_NE(Closed, nullptr) << Diags.str();
    std::optional<Value> V = tgen::evalClosedExpr(Closed.get(), {});
    ASSERT_TRUE(V && V->isInt()) << E;
    EXPECT_EQ(R.Output, V->str() + "\n") << E;
  }
}

/// Runs a for loop ending at an extreme of int64 under every loop-tracing
/// setting: it runs three iterations and stops, traced as three iteration
/// units when iterations are traced.
void expectForLoopStopsAtTheLimit(const std::string &Header) {
  auto Prog = compile("program p; var i, n: integer;"
                      "begin n := 0; " + Header + " do n := n + 1;"
                      " writeln(n) end.");
  ASSERT_TRUE(Prog);
  for (int Tracing = 0; Tracing != 3; ++Tracing) {
    InterpOptions Opts;
    Opts.TraceLoops = Tracing >= 1;
    Opts.TraceIterations = Tracing == 2;
    Opts.MaxSteps = 1000; // a runaway loop fails fast
    ExecResult R;
    auto Tree = trace::buildExecTree(*Prog, Opts, {}, &R);
    ASSERT_TRUE(R.Ok) << Header << ": " << R.Error.Message;
    EXPECT_EQ(R.Output, "3\n") << Header;
    unsigned Loops = 0, Iterations = 0;
    Tree->forEachNode([&](trace::ExecNode *N) {
      Loops += N->getKind() == UnitKind::Loop;
      Iterations += N->getKind() == UnitKind::Iteration;
    });
    EXPECT_EQ(Loops, Opts.TraceLoops ? 1u : 0u) << Header;
    EXPECT_EQ(Iterations, Opts.TraceIterations ? 3u : 0u) << Header;
  }
}

TEST(InterpreterTest, ForLoopEndingAtAnInt64ExtremeStops) {
  expectForLoopStopsAtTheLimit(
      "for i := 9223372036854775805 to 9223372036854775807");
  expectForLoopStopsAtTheLimit(
      "for i := -9223372036854775806 downto -9223372036854775807 - 1");
}

// Array value semantics over shared payloads ---------------------------------

TEST(InterpreterTest, FunctionReturnsArray) {
  auto R = runProgram("program p; type arr = array[1..3] of integer;"
                      "var a, b: arr;"
                      "function squares(n: integer): arr;"
                      "var t: arr; i: integer;"
                      "begin for i := 1 to 3 do t[i] := (n + i) * (n + i);"
                      " squares := t; end;"
                      "begin a := squares(0); b := squares(1); a[1] := -1;"
                      " end.");
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(findGlobal(R, "a")->str(), "[-1, 4, 9]");
  EXPECT_EQ(findGlobal(R, "b")->str(), "[4, 9, 16]");
}

TEST(InterpreterTest, RecordedInputKeepsArrayReadBeforeLaterStore) {
  // Each unit reads the array (a first read, recorded as an input binding
  // that shares the cell's elements) and then stores into it: the store
  // must copy, and leave the recorded input as it was read.
  auto Prog = compile("program p; type arr = array[1..2] of integer;"
                      "var a: arr; i: integer;"
                      "procedure bump; begin a[1] := a[1] + 10; end;"
                      "procedure bumpv(var v: arr);"
                      "begin v[2] := v[2] + 100; end;"
                      "begin a[1] := 1; a[2] := 2; bump; bumpv(a);"
                      " for i := 1 to 2 do a[i] := 0; end.");
  ASSERT_TRUE(Prog);
  InterpOptions Opts;
  Opts.TraceLoops = true;
  Opts.TraceIterations = true;
  ExecResult R;
  auto Tree = trace::buildExecTree(*Prog, Opts, {}, &R);
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(Tree->str(), "p(Out a: [0, 0], Out i: 2)\n"
                         "  bump(In a: [1, 2], Out a: [11, 2])\n"
                         "  bumpv(In v: [11, 2], Out v: [11, 102])\n"
                         "  p.for#1(In a: [11, 102], Out i: 2, Out a: [0, 0])\n"
                         "    p.for#1 iteration 1(In i: 1, In a: [11, 102], "
                         "Out a: [0, 102])\n"
                         "    p.for#1 iteration 2(In i: 2, In a: [0, 102], "
                         "Out a: [0, 0])\n");

  // An oracle replay receives the recorded input as its argument; the
  // replayed routine's stores into its value parameter leave it intact.
  auto Replay = compile("program p; type arr = array[1..2] of integer;"
                        "var a: arr;"
                        "procedure bump(v: arr); begin v[1] := v[1] + 10;"
                        " end; begin end.");
  ASSERT_TRUE(Replay);
  const Binding *In = Tree->getRoot()->firstChild()->findInput("a");
  ASSERT_NE(In, nullptr);
  Interpreter I(*Replay);
  CallOutcome Out = I.callRoutine("bump", {In->V});
  ASSERT_TRUE(Out.Ok) << Out.Error.Message;
  EXPECT_EQ(In->V.str(), "[1, 2]");
}

} // namespace
