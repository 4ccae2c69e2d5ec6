//===- BytecodeTest.cpp - Bytecode VM differential and unit tests ---------===//
//
// The VM's contract is *observational equivalence* with the semantics the
// tree-walking interpreter defined before the VM replaced it: for every
// program, an execution must be byte-identical to the frozen walker
// transcripts — same ExecResult, same serialized execution tree, same
// dynamic slices — under every tracing flag combination. These tests sweep
// that contract over the synthetic workload corpus and the paper programs
// (tests/golden/differential/), and pin the mechanics around it: injected
// pre-compiled code, goto unwinding, the wide operand form.
//
// The cell-arena free-list obligations ride along at the bottom: handle
// reuse across scope exits and watermark reset across sessions are what
// make the storage layer O(live cells).
//
//===----------------------------------------------------------------------===//

#include "GoldenUtil.h"

#include "bytecode/Bytecode.h"
#include "interp/Interpreter.h"
#include "pascal/Frontend.h"
#include "workload/PaperPrograms.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace gadt;
using namespace gadt::interp;
using namespace gadt::workload;

namespace {

std::unique_ptr<pascal::Program> compile(const std::string &Src) {
  DiagnosticsEngine Diags;
  auto Prog = pascal::parseAndCheck(Src, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

using golden::renderRun;

/// The differential goldens pin, under all 16 flag combinations, the
/// transcripts the tree-walking interpreter produced before the VM became
/// the only executor (tests/golden/differential/).
void expectMatchesDifferentialGolden(const std::string &Src,
                                     const std::string &Label) {
  auto Prog = compile(Src);
  ASSERT_TRUE(Prog != nullptr);
  golden::expectMatchesGolden(golden::renderAllCombos(*Prog),
                              "differential/" + Label + ".golden");
}

//===----------------------------------------------------------------------===//
// Differential sweep: the VM against the frozen walker transcripts
//===----------------------------------------------------------------------===//

TEST(BytecodeDifferential, PaperFigure4) {
  expectMatchesDifferentialGolden(Figure4Buggy, "figure4-buggy");
  expectMatchesDifferentialGolden(Figure4Fixed, "figure4-fixed");
}

TEST(BytecodeDifferential, ChainPrograms) {
  ProgramPair P = chainProgram(6, 2);
  expectMatchesDifferentialGolden(P.Fixed, "chain6-fixed");
  expectMatchesDifferentialGolden(P.Buggy, "chain6-buggy");
}

TEST(BytecodeDifferential, TreeAndWidePrograms) {
  expectMatchesDifferentialGolden(treeProgram(3).Buggy, "tree3-buggy");
  expectMatchesDifferentialGolden(wideIrrelevantProgram(8).Buggy,
                                  "wide8-buggy");
}

TEST(BytecodeDifferential, SummaryMesh) {
  expectMatchesDifferentialGolden(summaryMeshProgram(2, 3).Buggy,
                                  "mesh2x3-buggy");
}

/// A loop-heavy subject: constant subexpressions written out longhand
/// inside a while loop.
const char *LoopHeavySrc =
    "program optsubject;\n"
    "var i, a, b, s: integer;\n"
    "begin\n"
    "  s := 0;\n"
    "  i := 0;\n"
    "  while i < 20 do\n"
    "  begin\n"
    "    a := (i * (2 + 1) + (10 - 3)) - (i - 2) * (4 - 2);\n"
    "    b := (a + i) * (8 - 6) - (a - (3 * 4 - 7));\n"
    "    s := s + b - (a - b) * (6 - 5);\n"
    "    i := i + 1\n"
    "  end;\n"
    "  writeln(s)\n"
    "end.";

TEST(BytecodeDifferential, LoopHeavySubject) {
  expectMatchesDifferentialGolden(LoopHeavySrc, "optsubject");
}

/// Seeded random programs; odd seeds are goto-free, even seeds plant
/// non-local gotos that unwind activations.
class BytecodeSeededDifferential : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BytecodeSeededDifferential, RandomProgram) {
  uint32_t Seed = GetParam();
  SyntheticOptions Opts;
  Opts.Seed = Seed * 17 + 5;
  Opts.NumRoutines = 4 + Seed % 4;
  Opts.NumGlobals = 2 + Seed % 3;
  Opts.StmtsPerRoutine = 4 + Seed % 3;
  Opts.UseGotos = (Seed % 2) == 0;
  ProgramPair P = randomProgram(Opts);
  expectMatchesDifferentialGolden(P.Buggy, "seed" + std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytecodeSeededDifferential,
                         ::testing::Range(1u, 9u));

//===----------------------------------------------------------------------===//
// Interpreter mechanics: injected code
//===----------------------------------------------------------------------===//

TEST(BytecodeTier, InjectedCodeIsUsed) {
  auto Prog = compile(chainProgram(4, 2).Fixed);
  auto Code = bytecode::compile(*Prog, /*Checked=*/false);
  ASSERT_TRUE(Code != nullptr);

  InterpOptions Opts;
  Opts.Code = Code;
  Interpreter I(*Prog, Opts);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error.Message;

  // Same program on privately compiled code: identical observable result.
  Interpreter T(*Prog);
  ExecResult RT = T.run();
  ASSERT_TRUE(RT.Ok);
  EXPECT_EQ(R.Output, RT.Output);
  EXPECT_EQ(R.Steps, RT.Steps);
  EXPECT_EQ(R.UnitsExecuted, RT.UnitsExecuted);
}

TEST(BytecodeTier, MismatchedInjectedCodeIsIgnored) {
  // Injected code compiled for the *unchecked* mode must not be used by a
  // DetectUninitialized run; the interpreter compiles privately instead,
  // and the strict check still fires.
  const char *Src = "program p;\n"
                    "var x, y: integer;\n"
                    "begin\n"
                    "  y := x;\n"
                    "  writeln(y)\n"
                    "end.";
  auto Prog = compile(Src);
  auto Unchecked = bytecode::compile(*Prog, /*Checked=*/false);
  ASSERT_TRUE(Unchecked != nullptr);

  InterpOptions Opts;
  Opts.DetectUninitialized = true;
  Opts.Code = Unchecked; // wrong mode on purpose
  Interpreter I(*Prog, Opts);
  ExecResult R = I.run();
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.Message.find("x"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Gotos
//===----------------------------------------------------------------------===//

TEST(BytecodeGoto, NonLocalGotoRunsOnTheVM) {
  // Non-local goto: label in the main program, goto inside a procedure.
  const char *Src = "program p;\n"
                    "label 9;\n"
                    "var x: integer;\n"
                    "procedure q;\n"
                    "begin\n"
                    "  goto 9\n"
                    "end;\n"
                    "begin\n"
                    "  x := 1;\n"
                    "  q;\n"
                    "  x := 2;\n"
                    "9:\n"
                    "  writeln(x)\n"
                    "end.";
  auto Prog = compile(Src);
  std::string WhyNot;
  auto Code = bytecode::compile(*Prog, false, &WhyNot);
  ASSERT_TRUE(Code != nullptr) << WhyNot;
  ASSERT_EQ(Code->Routines[0].Labels.size(), 1u);
  EXPECT_EQ(Code->Routines[0].Labels[0].Label, 9);

  Interpreter I(*Prog);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(R.Output, "1\n");
}

/// The names of a tree's nodes in preorder (node ids are preorder).
std::vector<std::string> unitNames(const trace::ExecTree &T) {
  std::vector<std::string> Names;
  for (uint32_t Id = 1; Id <= T.size(); ++Id)
    Names.push_back(T.node(Id)->getName());
  return Names;
}

TEST(BytecodeGoto, GotoOutOfAnExpressionAbandonsTheStatement) {
  // f leaves through a non-local goto while `f(1) + g(2)` is evaluated:
  // the rest of the statement is abandoned, as on a runtime error — g is
  // never called and x keeps its value.
  const char *Src = "program p;\n"
                    "label 8;\n"
                    "var x: integer;\n"
                    "function f(a: integer): integer;\n"
                    "begin\n"
                    "  f := a;\n"
                    "  goto 8\n"
                    "end;\n"
                    "function g(b: integer): integer;\n"
                    "begin\n"
                    "  g := b\n"
                    "end;\n"
                    "begin\n"
                    "  x := 7;\n"
                    "  x := f(1) + g(2);\n"
                    "8:\n"
                    "  writeln(x)\n"
                    "end.";
  auto Prog = compile(Src);
  ASSERT_TRUE(Prog);
  Interpreter I(*Prog);
  trace::ExecTreeBuilder Builder;
  I.setListener(&Builder);
  ExecResult R = I.run();
  auto Tree = Builder.takeTree();
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(R.Output, "7\n");
  ASSERT_TRUE(Tree);
  EXPECT_EQ(unitNames(*Tree), (std::vector<std::string>{"p", "f"}));
  EXPECT_EQ(R.FinalGlobals.at(0).V.asInt(), 7);
}

TEST(BytecodeGoto, LandingLeavesTheIfsControlDependence) {
  // The goto leaves the `if` whose condition reads x (written by unit
  // setx); once it lands, stores no longer depend on that condition.
  const char *Src = "program p;\n"
                    "label 9;\n"
                    "var x, y, z: integer;\n"
                    "procedure setx(var r: integer);\n"
                    "begin\n"
                    "  r := 5\n"
                    "end;\n"
                    "begin\n"
                    "  setx(x);\n"
                    "  if x > 3 then goto 9;\n"
                    "  z := 1;\n"
                    "9:\n"
                    "  y := 7;\n"
                    "  if x > 3 then z := 2\n"
                    "end.";
  auto Prog = compile(Src);
  ASSERT_TRUE(Prog);
  InterpOptions Opts;
  Opts.TrackDeps = true;
  Interpreter I(*Prog, Opts);
  trace::ExecTreeBuilder Builder;
  I.setListener(&Builder);
  ExecResult R = I.run();
  auto Tree = Builder.takeTree();
  ASSERT_TRUE(R.Ok && Tree) << R.Error.Message;
  ASSERT_EQ(Tree->node(2)->getName(), "setx");
  EXPECT_FALSE(slicing::dynamicSlice(Tree->getRoot(), "y").contains(2));
  EXPECT_TRUE(slicing::dynamicSlice(Tree->getRoot(), "z").contains(2));
}

TEST(BytecodeGoto, GotoOutOfALoopHeaderOpensNoIteration) {
  // A for bound and a while condition that leave through a goto: the loop
  // unit opens and closes, but no iteration starts.
  const char *Src = "program p;\n"
                    "label 8, 9;\n"
                    "var i, x: integer;\n"
                    "function f(a: integer): integer;\n"
                    "begin\n"
                    "  f := a;\n"
                    "  if a > 0 then goto 8 else goto 9\n"
                    "end;\n"
                    "begin\n"
                    "  x := 0;\n"
                    "  for i := f(1) to 3 do x := x + 1;\n"
                    "8:\n"
                    "  while f(0) < 5 do x := x + 10;\n"
                    "9:\n"
                    "  writeln(x)\n"
                    "end.";
  auto Prog = compile(Src);
  ASSERT_TRUE(Prog);
  InterpOptions Opts;
  Opts.TraceLoops = true;
  Opts.TraceIterations = true;
  Interpreter I(*Prog, Opts);
  trace::ExecTreeBuilder Builder;
  I.setListener(&Builder);
  ExecResult R = I.run();
  auto Tree = Builder.takeTree();
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(R.Output, "0\n");
  ASSERT_TRUE(Tree);
  std::vector<std::string> Names = unitNames(*Tree);
  ASSERT_EQ(Names.size(), 5u);
  EXPECT_EQ(Names[0], "p");
  EXPECT_NE(Names[1].find(".for#"), std::string::npos) << Names[1];
  EXPECT_EQ(Names[2], "f");
  EXPECT_NE(Names[3].find(".while#"), std::string::npos) << Names[3];
  EXPECT_EQ(Names[4], "f");
}

//===----------------------------------------------------------------------===//
// Compiled-program shape
//===----------------------------------------------------------------------===//

TEST(BytecodeCompile, CheckedAndUncheckedDiffer) {
  auto Prog = compile(chainProgram(3, 1).Fixed);
  auto Plain = bytecode::compile(*Prog, false);
  auto Checked = bytecode::compile(*Prog, true);
  ASSERT_TRUE(Plain != nullptr);
  ASSERT_TRUE(Checked != nullptr);
  EXPECT_FALSE(Plain->Checked);
  EXPECT_TRUE(Checked->Checked);
  EXPECT_EQ(Plain->Prog, Prog.get());
  EXPECT_GT(Plain->memoryBytes(), 0u);
}

TEST(BytecodeCompile, ArgPoolCoversEverySite) {
  auto Prog = compile(summaryMeshProgram(2, 3).Fixed);
  auto Code = bytecode::compile(*Prog, false);
  ASSERT_TRUE(Code != nullptr);
  ASSERT_FALSE(Code->Sites.empty());
  for (const bytecode::CallSiteInfo &Site : Code->Sites) {
    EXPECT_LE(static_cast<size_t>(Site.ArgStart) + Site.ArgCount,
              Code->ArgPool.size());
    // Mesh procedures take two value and two var parameters.
    EXPECT_EQ(Site.ArgCount, 4u);
  }
}

/// A main program with \p Globals variables (the last ones above slot 2047)
/// and a chain of \p Depth nested procedures whose innermost one updates
/// globals nine static hops away.
std::string wideProgram(unsigned Globals, unsigned Depth) {
  std::string Src = "program w;\nvar";
  for (unsigned G = 0; G != Globals; ++G)
    Src += std::string(G ? "," : "") + " v" + std::to_string(G);
  Src += ": integer;\n";
  std::string Last = 'v' + std::to_string(Globals - 1);
  for (unsigned D = 1; D <= Depth; ++D)
    Src += "procedure p" + std::to_string(D) + "(var r: integer);\n";
  // Innermost body first: nested procedures close inside out.
  Src += "begin r := r + v0 + " + Last + "; " + Last + " := " + Last +
         " * 2 end;\n";
  for (unsigned D = Depth - 1; D >= 1; --D)
    Src += "begin p" + std::to_string(D + 1) + "(r) end;\n";
  Src += "begin\n  v0 := 3; v1 := 0; " + Last +
         " := 5;\n  p1(v1);\n  writeln(v1, ' ', " +
         Last + ")\nend.\n";
  return Src;
}

TEST(BytecodeCompile, WideCellOperands) {
  auto Prog = compile(wideProgram(2100, 10));
  ASSERT_TRUE(Prog);
  std::string WhyNot;
  auto Code = bytecode::compile(*Prog, false, &WhyNot);
  ASSERT_TRUE(Code != nullptr) << WhyNot;
  EXPECT_FALSE(Code->WideCells.empty());
  for (int Mask : {0, 7, 15}) {
    Interpreter I(*Prog, golden::optionsForMask(Mask));
    trace::ExecTreeBuilder Builder;
    I.setListener(&Builder);
    ExecResult R = I.run();
    ASSERT_TRUE(R.Ok) << R.Error.Message;
    EXPECT_EQ(R.Output, "8 10\n") << "mask " << Mask;
    auto Tree = Builder.takeTree();
    ASSERT_TRUE(Tree);
    // The innermost unit reads both globals and writes the far one.
    const trace::ExecNode *Inner = Tree->node(11);
    ASSERT_TRUE(Inner);
    EXPECT_EQ(Inner->getName(), "p10");
    EXPECT_TRUE(Inner->findInput("v0"));
    EXPECT_TRUE(Inner->findInput("v2099"));
  }
}

//===----------------------------------------------------------------------===//
// Cell-arena free list
//===----------------------------------------------------------------------===//

/// A program whose calls enter and exit repeatedly: every exit returns the
/// callee's cells to the pool, every subsequent call must reuse them.
const char *PoolSrc = "program p;\n"
                      "var i, acc: integer;\n"
                      "function f(n: integer): integer;\n"
                      "var a, b, c: integer;\n"
                      "begin\n"
                      "  a := n + 1; b := a * 2; c := b - n; f := c\n"
                      "end;\n"
                      "begin\n"
                      "  acc := 0;\n"
                      "  for i := 1 to 50 do acc := acc + f(i);\n"
                      "  writeln(acc)\n"
                      "end.";

TEST(CellArena, FreeListRecyclesHandlesAcrossCalls) {
  auto Prog = compile(PoolSrc);
  Interpreter I(*Prog);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok);
  // 50 calls x 5 cells (param + 3 locals + result): all but the first
  // call's allocations must come from the free list.
  EXPECT_GE(R.CellsPooled, 49u * 5u);
}

TEST(CellArena, WatermarkResetsAcrossSessions) {
  auto Prog = compile(PoolSrc);
  InterpOptions Opts;
  Opts.TrackDeps = true;
  Interpreter I(*Prog, Opts);
  I.setInput(golden::standardInput());
  ExecResult First = I.run();
  ASSERT_TRUE(First.Ok);

  // Second session on the same Interpreter: reset() must restart the
  // arena watermark and the pool count, so the run is observably identical
  // (same output, same steps, same handles pooled).
  ExecResult Second = I.run();
  ASSERT_TRUE(Second.Ok);
  EXPECT_EQ(First.Output, Second.Output);
  EXPECT_EQ(First.Steps, Second.Steps);
  EXPECT_EQ(First.UnitsExecuted, Second.UnitsExecuted);
  EXPECT_GE(First.CellsPooled, 49u * 5u);
  EXPECT_EQ(First.CellsPooled, Second.CellsPooled);
}

TEST(CellArena, RepeatedSessionsStayByteIdentical) {
  // Ten sessions on one Interpreter, alternating with a fresh one: serial
  // numbers, unit ids and dependence sets must restart exactly, or
  // transcripts drift.
  auto Prog = compile(chainProgram(4, 2).Buggy);
  InterpOptions Opts;
  Opts.TrackDeps = true;
  Opts.TraceLoops = true;
  std::string Golden = renderRun(*Prog, Opts);
  Interpreter Reused(*Prog, Opts);
  for (int Round = 0; Round < 10; ++Round) {
    if (Round % 2 == 1) {
      EXPECT_EQ(renderRun(*Prog, Opts), Golden) << "round " << Round;
      continue;
    }
    Reused.setInput(golden::standardInput());
    trace::ExecTreeBuilder Builder;
    Reused.setListener(&Builder);
    ExecResult R = Reused.run();
    auto Tree = Builder.takeTree();
    ASSERT_TRUE(R.Ok && Tree);
    EXPECT_NE(Golden.find(Tree->str()), std::string::npos)
        << "round " << Round;
  }
}

} // namespace
