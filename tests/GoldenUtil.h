//===- GoldenUtil.h - Transcript rendering for golden tests -----*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders what an execution makes observable — the ExecResult, the
/// serialized execution tree, every dynamic slice, and the outcome of a
/// direct routine call — as line-oriented text, and compares such text
/// against committed golden files under GADT_GOLDEN_DIR.
///
/// Regenerate goldens (after an *intentional* behaviour change) by running
/// the test binary with GADT_REGEN_GOLDEN=1.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_TESTS_GOLDENUTIL_H
#define GADT_TESTS_GOLDENUTIL_H

#include "interp/Interpreter.h"
#include "slicing/DynamicSlicer.h"
#include "trace/ExecTreeBuilder.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#ifndef GADT_GOLDEN_DIR
#error "GADT_GOLDEN_DIR must be defined by the build"
#endif

namespace gadt {
namespace golden {

/// Deterministic program input, long enough for every program the goldens
/// cover; reads past the end are themselves deterministic (a runtime error
/// in the golden).
inline std::vector<int64_t> standardInput() {
  return {3, 7, 2, 9, 4, 1, 8, 5, 6, 10, 11, 13, 12, 15, 14, 17};
}

inline std::string escapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\n')
      Out += "\\n";
    else if (C == '\\')
      Out += "\\\\";
    else
      Out += C;
  }
  return Out;
}

/// The interpreter flags selected by bit mask \p Mask (0..15): TraceLoops,
/// TraceIterations, TrackDeps, DetectUninitialized.
inline interp::InterpOptions optionsForMask(int Mask) {
  interp::InterpOptions Opts;
  Opts.TraceLoops = (Mask & 1) != 0;
  Opts.TraceIterations = (Mask & 2) != 0;
  Opts.TrackDeps = (Mask & 4) != 0;
  Opts.DetectUninitialized = (Mask & 8) != 0;
  return Opts;
}

/// Renders the execution tree and, under TrackDeps, every dynamic slice.
inline void renderTree(std::ostringstream &Out, const trace::ExecTree *Tree,
                       uint32_t Units, bool TrackDeps) {
  Out << "tree:\n" << (Tree && Tree->getRoot() ? Tree->str() : "<none>\n");
  if (!TrackDeps || !Tree || !Tree->getRoot())
    return;
  Out << "slices:\n";
  for (uint32_t Id = 1; Id <= Units; ++Id) {
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

/// Renders one (program, options) execution: result, tree, slices.
inline std::string renderRun(const pascal::Program &Prog,
                             const interp::InterpOptions &Opts) {
  interp::Interpreter I(Prog, Opts);
  I.setInput(standardInput());
  trace::ExecTreeBuilder Builder;
  I.setListener(&Builder);
  interp::ExecResult R = I.run();
  auto Tree = Builder.takeTree();

  std::ostringstream Out;
  Out << "ok: " << (R.Ok ? 1 : 0) << "\n";
  if (!R.Ok)
    Out << "error: " << R.Error.Loc.Line << ":" << R.Error.Loc.Column << " "
        << escapeLine(R.Error.Message) << "\n";
  Out << "output: " << escapeLine(R.Output) << "\n";
  Out << "steps: " << R.Steps << "\n";
  Out << "units: " << R.UnitsExecuted << "\n";
  for (const interp::Binding &B : R.FinalGlobals)
    Out << "global " << B.Name << " = " << B.V.str() << "\n";
  renderTree(Out, Tree.get(), R.UnitsExecuted, Opts.TrackDeps);
  return Out.str();
}

/// Full golden document for one program: all 16 flag combinations.
/// \p Adjust, when set, may amend each combination's options before the
/// run (e.g. inject separately compiled code).
inline std::string renderAllCombos(
    const pascal::Program &Prog,
    const std::function<void(interp::InterpOptions &)> &Adjust = {}) {
  std::ostringstream Out;
  for (int Mask = 0; Mask < 16; ++Mask) {
    interp::InterpOptions Opts = optionsForMask(Mask);
    if (Adjust)
      Adjust(Opts);
    Out << "== combo loops=" << Opts.TraceLoops
        << " iters=" << Opts.TraceIterations << " deps=" << Opts.TrackDeps
        << " strict=" << Opts.DetectUninitialized << "\n";
    Out << renderRun(Prog, Opts);
  }
  return Out.str();
}

/// Renders the outcome of Interpreter::callRoutine.
inline std::string renderCall(const interp::CallOutcome &Out) {
  std::ostringstream S;
  S << "ok: " << (Out.Ok ? 1 : 0) << "\n";
  if (!Out.Ok)
    S << "error: " << Out.Error.Loc.Line << ":" << Out.Error.Loc.Column << " "
      << escapeLine(Out.Error.Message) << "\n";
  S << "output: " << escapeLine(Out.Output) << "\n";
  for (const interp::Binding &B : Out.Outputs)
    S << "out " << B.Name << " = " << B.V.str() << "\n";
  return S.str();
}

/// Compares \p Actual against golden file \p Name (relative to
/// GADT_GOLDEN_DIR), reporting the first diverging line. With
/// GADT_REGEN_GOLDEN set, rewrites the golden instead and skips.
inline void expectMatchesGolden(const std::string &Actual,
                                const std::string &Name) {
  namespace fs = std::filesystem;
  fs::path Path = fs::path(GADT_GOLDEN_DIR) / Name;
  if (std::getenv("GADT_REGEN_GOLDEN")) {
    std::filesystem::create_directories(Path.parent_path());
    std::ofstream Out(Path);
    Out << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden " << Path
                         << " (run with GADT_REGEN_GOLDEN=1 to create)";
  std::stringstream Expected;
  Expected << In.rdbuf();
  // Line-by-line for a readable first-divergence message, then the whole
  // document to catch length differences.
  std::istringstream ActualS(Actual), ExpectedS(Expected.str());
  std::string AL, EL;
  unsigned Line = 0;
  while (std::getline(ExpectedS, EL)) {
    ++Line;
    ASSERT_TRUE(std::getline(ActualS, AL))
        << Name << ": output truncated at golden line " << Line;
    ASSERT_EQ(AL, EL) << Name << ": first divergence at line " << Line;
  }
  EXPECT_EQ(Actual, Expected.str()) << Name << ": trailing output";
}

} // namespace golden
} // namespace gadt

#endif // GADT_TESTS_GOLDENUTIL_H
