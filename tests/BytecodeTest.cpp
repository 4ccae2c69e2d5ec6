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
#include "bytecode/Passes.h"
#include "interp/Interpreter.h"
#include "obs/Metrics.h"
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
// Interpreter mechanics: run accounting, injected code
//===----------------------------------------------------------------------===//

TEST(BytecodeTier, CountsBytecodeRuns) {
  auto Prog = compile(chainProgram(3, 1).Fixed);
  obs::Counter &C = obs::Registry::global().counter("interp.runs");
  uint64_t Before = C.value();
  Interpreter I(*Prog);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(C.value(), Before + 1);
}

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
  std::string Last = "v" + std::to_string(Globals - 1);
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
  obs::Counter &Pooled =
      obs::Registry::global().counter("interp.cells.pooled");
  uint64_t Before = Pooled.value();
  Interpreter I(*Prog);
  ASSERT_TRUE(I.run().Ok);
  // 50 calls x 5 cells (param + 3 locals + result): all but the first
  // call's allocations must come from the free list.
  EXPECT_GE(Pooled.value() - Before, 49u * 5u);
}

TEST(CellArena, WatermarkResetsAcrossSessions) {
  auto Prog = compile(PoolSrc);
  obs::Counter &Pooled =
      obs::Registry::global().counter("interp.cells.pooled");
  InterpOptions Opts;
  Opts.TrackDeps = true;
  Interpreter I(*Prog, Opts);
  I.setInput(golden::standardInput());
  ExecResult First = I.run();
  ASSERT_TRUE(First.Ok);

  // Second session on the same Interpreter: reset() must restart the
  // arena watermark, so the run is observably identical (same output,
  // same steps) and pools at least as many handles as the first.
  uint64_t Before = Pooled.value();
  ExecResult Second = I.run();
  ASSERT_TRUE(Second.Ok);
  EXPECT_EQ(First.Output, Second.Output);
  EXPECT_EQ(First.Steps, Second.Steps);
  EXPECT_EQ(First.UnitsExecuted, Second.UnitsExecuted);
  EXPECT_GE(Pooled.value() - Before, 49u * 5u);
}

//===----------------------------------------------------------------------===//
// Optimizer pass pipeline
//===----------------------------------------------------------------------===//

/// A loop-heavy subject exercising everything the pipeline targets:
/// constant subexpressions (folding), temporaries left dead by folding
/// (overwritten-before-read elision), and the dominant fusable pairs.
const char *OptSubjectSrc =
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

/// Runs explicitly compiled code for every CompileOptions combination under
/// all 16 tracing-flag masks and compares each sweep with the program's
/// differential golden. The passes must be transcript-invisible —
/// byte-identical results, trees and slices.
void expectPassesPreserveTranscripts(const pascal::Program &Prog,
                                     const std::string &Label) {
  for (int Combo = 0; Combo < 4; ++Combo) {
    bytecode::CompileOptions CO;
    CO.Optimize = (Combo & 1) != 0;
    CO.Fuse = (Combo & 2) != 0;
    std::string Why;
    std::string Doc = golden::renderAllCombos(Prog, [&](InterpOptions &O) {
      O.Code = bytecode::compile(Prog, O.DetectUninitialized, CO, &Why);
      EXPECT_TRUE(O.Code != nullptr) << Label << ": " << Why;
    });
    SCOPED_TRACE("opt=" + std::to_string(CO.Optimize) +
                 " fuse=" + std::to_string(CO.Fuse));
    golden::expectMatchesGolden(Doc, "differential/" + Label + ".golden");
  }
}

TEST(OptimizerDifferential, PaperPrograms) {
  auto Prog = compile(Figure4Buggy);
  expectPassesPreserveTranscripts(*Prog, "figure4-buggy");
}

TEST(OptimizerDifferential, LoopHeavySubject) {
  expectMatchesDifferentialGolden(OptSubjectSrc, "optsubject");
  auto Prog = compile(OptSubjectSrc);
  expectPassesPreserveTranscripts(*Prog, "optsubject");
}

TEST(OptimizerDifferential, CorpusPrograms) {
  auto Chain = compile(chainProgram(6, 2).Buggy);
  expectPassesPreserveTranscripts(*Chain, "chain6-buggy");
  auto Mesh = compile(summaryMeshProgram(2, 3).Buggy);
  expectPassesPreserveTranscripts(*Mesh, "mesh2x3-buggy");
}

TEST(OptimizerPasses, StatsReportWorkOnLoopHeavySubject) {
  auto Prog = compile(OptSubjectSrc);
  bytecode::CompileOptions CO; // both passes on by default
  auto Code = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
  ASSERT_TRUE(Code != nullptr);
  EXPECT_GT(Code->Opt.Folded, 0u);
  EXPECT_GT(Code->Opt.Overwritten, 0u);
  EXPECT_GT(Code->Opt.Fused, 0u);

  CO.Optimize = false;
  CO.Fuse = false;
  auto Plain = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
  ASSERT_TRUE(Plain != nullptr);
  EXPECT_EQ(Plain->Opt.Folded, 0u);
  EXPECT_EQ(Plain->Opt.Overwritten, 0u);
  EXPECT_EQ(Plain->Opt.DeadStores, 0u);
  EXPECT_EQ(Plain->Opt.Fused, 0u);
  // The pipeline must strictly shrink this routine.
  EXPECT_LT(Code->Routines[0].Code.size(), Plain->Routines[0].Code.size());
}

/// optimizeRoutine on hand-built code: precise pass-by-pass obligations.
/// Operand encodings per Bytecode.h: registers are raw indices (OpReg mode
/// is zero), constants are OpConst | pool index, cells OpCell | slot.
TEST(OptimizerPasses, OverwrittenWriteElision) {
  using bytecode::Instr;
  using bytecode::Op;
  const uint16_t C0 = bytecode::OpConst | 0;
  const uint16_t C1 = bytecode::OpConst | 1;
  const uint16_t Cell0 = bytecode::OpCell | 0;
  std::vector<interp::Value> Consts = {interp::Value::makeInt(1),
                                       interp::Value::makeInt(2)};
  std::vector<bytecode::CallSiteInfo> Sites;
  std::vector<bytecode::ArgDesc> Args;
  bytecode::CompileOptions CO;
  CO.Fuse = false;

  // A const load clobbered by a cell load before any read: the const load
  // is dead and must go, the clobberer and its reader stay.
  std::vector<Instr> Code = {{Op::Load, 0, C0, 0, 0},
                             {Op::Load, 0, Cell0, 0, 0},
                             {Op::Store, Cell0, 0, 0, 0}};
  bytecode::OptStats St;
  bytecode::optimizeRoutine(Code, 1, Consts, 0, Sites, Args, CO, St);
  EXPECT_EQ(St.Overwritten, 1u);
  ASSERT_EQ(Code.size(), 2u);
  EXPECT_EQ(Code[0].Code, Op::Load);
  EXPECT_EQ(Code[0].B, Cell0);

  // A cell-sourced load in the clobbered position must survive the
  // overwritten-write pass: the read is observable (dynamic input sets),
  // even though the register value is dead. (The follow-up const load is
  // propagated into the Store and then removed as never-read — that is
  // the global pass's count, not Overwritten.)
  Code = {{Op::Load, 0, Cell0, 0, 0},
          {Op::Load, 0, C1, 0, 0},
          {Op::Store, Cell0, 0, 0, 0}};
  St = {};
  bytecode::optimizeRoutine(Code, 1, Consts, 0, Sites, Args, CO, St);
  EXPECT_EQ(St.Overwritten, 0u);
  ASSERT_GE(Code.size(), 2u);
  EXPECT_EQ(Code[0].Code, Op::Load);
  EXPECT_EQ(Code[0].B, Cell0);
  EXPECT_EQ(Code.back().Code, Op::Store);
}

TEST(OptimizerPasses, ElisionChainsIntoDeadStorePass) {
  using bytecode::Instr;
  using bytecode::Op;
  const uint16_t C0 = bytecode::OpConst | 0;
  const uint16_t C1 = bytecode::OpConst | 1;
  const uint16_t Cell0 = bytecode::OpCell | 0;
  std::vector<interp::Value> Consts = {interp::Value::makeInt(0),
                                       interp::Value::makeInt(5)};
  std::vector<bytecode::CallSiteInfo> Sites;
  std::vector<bytecode::ArgDesc> Args;
  bytecode::CompileOptions CO;
  CO.Fuse = false;

  // r0 feeds only the Add; the Add's destination r1 is clobbered by the
  // const load. Eliding the Add (overwritten) leaves r0 never read for
  // the global dead-store pass, and constant propagation sinks C1 into
  // the Store — the whole chain must collapse to the lone Store.
  std::vector<Instr> Code = {{Op::Load, 0, C0, 0, 0},
                             {Op::Add, 1, 0, 0, 0},
                             {Op::Load, 1, C1, 0, 0},
                             {Op::Store, Cell0, 1, 0, 0}};
  bytecode::OptStats St;
  bytecode::optimizeRoutine(Code, 2, Consts, 0, Sites, Args, CO, St);
  ASSERT_EQ(Code.size(), 1u);
  EXPECT_EQ(Code.back().Code, Op::Store);
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion
//===----------------------------------------------------------------------===//

TEST(Superinstructions, FusionEmitsFusedOpcodes) {
  auto Prog = compile(OptSubjectSrc);
  bytecode::CompileOptions CO;
  auto Code = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
  ASSERT_TRUE(Code != nullptr);

  unsigned CmpWhile = 0, BinStore = 0, StepLoad = 0, LoadBin = 0;
  for (const auto &CR : Code->Routines)
    for (const bytecode::Instr &I : CR.Code) {
      CmpWhile += I.Code == bytecode::Op::CmpWhile;
      BinStore += I.Code == bytecode::Op::BinStore;
      StepLoad += I.Code == bytecode::Op::StepLoad;
      LoadBin += I.Code == bytecode::Op::LoadBin;
    }
  EXPECT_GT(CmpWhile, 0u) << "cmp+while pair not fused";
  EXPECT_GT(BinStore, 0u) << "binop+store pair not fused";
  EXPECT_GT(StepLoad, 0u) << "step+load pair not fused";
  EXPECT_GT(LoadBin, 0u) << "load+binop pair not fused";

  CO.Fuse = false;
  auto Plain = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
  ASSERT_TRUE(Plain != nullptr);
  for (const auto &CR : Plain->Routines)
    for (const bytecode::Instr &I : CR.Code)
      EXPECT_TRUE(I.Code != bytecode::Op::CmpBr &&
                  I.Code != bytecode::Op::CmpWhile &&
                  I.Code != bytecode::Op::BinStore &&
                  I.Code != bytecode::Op::StepLoad &&
                  I.Code != bytecode::Op::LoadBin)
          << "fused opcode emitted with fusion disabled";
}

/// Every fused instruction's packed fields must decode to a well-formed
/// unfused pair: a valid embedded opcode kind and in-range operands. This
/// is the round-trip the VM handlers rely on blindly.
TEST(Superinstructions, FusedOperandsDecodeToValidPairs) {
  auto IsPureBinKind = [](uint16_t K) {
    auto O = static_cast<bytecode::Op>(K);
    return O == bytecode::Op::Add || O == bytecode::Op::Sub ||
           O == bytecode::Op::Mul ||
           (O >= bytecode::Op::EqI && O <= bytecode::Op::OrB);
  };
  auto IsCmpKind = [](uint16_t K) {
    auto O = static_cast<bytecode::Op>(K);
    return O >= bytecode::Op::EqI && O <= bytecode::Op::OrB;
  };

  for (const std::string &Src :
       {std::string(OptSubjectSrc), chainProgram(6, 2).Buggy,
        summaryMeshProgram(2, 3).Buggy}) {
    auto Prog = compile(Src);
    bytecode::CompileOptions CO;
    auto Code = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
    ASSERT_TRUE(Code != nullptr);
    for (const auto &CR : Code->Routines)
      for (const bytecode::Instr &I : CR.Code)
        switch (I.Code) {
        case bytecode::Op::CmpBr:
        case bytecode::Op::CmpWhile:
          EXPECT_TRUE(IsCmpKind(I.A)) << "bad embedded cmp kind " << I.A;
          EXPECT_LE(I.Aux, CR.Code.size()) << "branch target out of range";
          break;
        case bytecode::Op::BinStore:
          EXPECT_TRUE(IsPureBinKind(static_cast<uint16_t>(I.Aux)))
              << "bad embedded binop kind " << I.Aux;
          break;
        case bytecode::Op::LoadBin:
          EXPECT_TRUE(IsPureBinKind(static_cast<uint16_t>(I.Aux & 0xffff)))
              << "bad embedded binop kind " << (I.Aux & 0xffff);
          EXPECT_LE(I.Aux >> 16, 1u) << "bad operand-side flag";
          // The destination doubles as the loaded temporary; the other
          // operand must never alias it, or the fused fetch order would
          // read the clobbered value.
          if ((I.C & bytecode::OpModeMask) == bytecode::OpReg)
            EXPECT_NE(I.C, I.A);
          break;
        case bytecode::Op::StepLoad:
          EXPECT_LT(I.Aux, Code->Debug.size()) << "debug index out of range";
          break;
        default:
          break;
        }
  }
}

TEST(Superinstructions, StaticPairFrequenciesRanked) {
  auto Prog = compile(OptSubjectSrc);
  bytecode::CompileOptions CO;
  CO.Fuse = false; // measure the unfused stream the fusion pass sees
  auto Code = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
  ASSERT_TRUE(Code != nullptr);
  auto Pairs = bytecode::staticPairFrequencies(*Code);
  ASSERT_FALSE(Pairs.empty());
  for (size_t K = 1; K < Pairs.size(); ++K)
    EXPECT_GE(Pairs[K - 1].second, Pairs[K].second) << "not sorted";
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
