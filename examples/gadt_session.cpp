//===- gadt_session.cpp - Interactive GADT debugging CLI ------------------===//
//
// Debug any Pascal-subset program, replicating the paper's dialogue
// (Section 8):
//
//   $ ./gadt_session program.pas [options] [-- input numbers...]
//
// Options:
//   --no-transform       skip the transformation phase
//   --no-slicing         disable slicing on error indications
//   --dynamic-slicing    use dynamic instead of static slicing
//   --divide             use divide-and-query instead of top-down search
//   --trace-loops        treat local loops as debugging units
//   --assert UNIT EXPR   add a specification assertion for UNIT: a Pascal
//                        expression over UNIT's inputs and outputs, with
//                        Pascal's precedence, so relations joined by
//                        and/or need parentheses: "(x > 0) and (y > 0)"
//   --intended FILE      answer queries from this correct program instead
//                        of asking interactively
//   --spec FILE          a T-GEN specification with params/gen clauses;
//                        builds a test database for the test-lookup oracle
//   --tested-by FILE     the reference program the test cases are judged
//                        against (defaults to --intended)
//
// Answer each interactive query with: y(es), n(o), "n <var>" (wrong output
// variable, activates slicing), or d(ont know). With no file argument the
// paper's Figure 4 program is debugged.
//
//===----------------------------------------------------------------------===//

#include "core/GADT.h"
#include "core/InteractiveOracle.h"
#include "core/ReferenceOracle.h"
#include "obs/Log.h"
#include "pascal/Frontend.h"
#include "tgen/Generator.h"
#include "tgen/SpecParser.h"
#include "workload/PaperPrograms.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace gadt;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream File(Path);
  if (!File) {
    obs::logError("gadt_session", "cannot open " + Path);
    return false;
  }
  std::ostringstream Buf;
  Buf << File.rdbuf();
  Out = Buf.str();
  return true;
}

/// Judges test outcomes by re-running the case in the reference program
/// and comparing all outputs.
class ReferenceChecker {
public:
  ReferenceChecker(const pascal::Program &Reference, std::string Routine)
      : Reference(Reference), Routine(std::move(Routine)) {}

  bool operator()(const std::vector<interp::Value> &Args,
                  const interp::CallOutcome &Out) const {
    interp::Interpreter I(Reference);
    interp::CallOutcome Expected = I.callRoutine(Routine, Args);
    if (!Expected.Ok || !Out.Ok)
      return Expected.Ok == Out.Ok;
    for (const interp::Binding &B : Expected.Outputs)
      for (const interp::Binding &Got : Out.Outputs)
        if (Got.Name == B.Name && !Got.V.equals(B.V))
          return false;
    return true;
  }

private:
  const pascal::Program &Reference;
  std::string Routine;
};

} // namespace

int main(int argc, char **argv) {
  std::string Source = workload::Figure4Buggy;
  std::string IntendedPath, SpecPath, TestedByPath;
  core::GADTOptions Opts;
  std::vector<int64_t> Input;
  std::vector<std::pair<std::string, std::string>> AssertionArgs;

  bool InInput = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (InInput) {
      int64_t Value = 0;
      auto [End, Err] =
          std::from_chars(Arg.data(), Arg.data() + Arg.size(), Value);
      if (Err != std::errc() || End != Arg.data() + Arg.size()) {
        obs::logError("gadt_session",
                      "program input '" + Arg + "' is not a 64-bit integer");
        return 1;
      }
      Input.push_back(Value);
      continue;
    }
    if (Arg == "--") {
      InInput = true;
    } else if (Arg == "--no-transform") {
      Opts.Transform = false;
    } else if (Arg == "--no-slicing") {
      Opts.Debugger.Slicing = core::SliceMode::None;
    } else if (Arg == "--dynamic-slicing") {
      Opts.Debugger.Slicing = core::SliceMode::Dynamic;
    } else if (Arg == "--divide") {
      Opts.Debugger.Strategy = core::SearchStrategy::DivideAndQuery;
    } else if (Arg == "--trace-loops") {
      Opts.TraceLoops = true;
    } else if (Arg == "--assert" && I + 2 < argc) {
      AssertionArgs.push_back({argv[I + 1], argv[I + 2]});
      I += 2;
    } else if (Arg == "--intended" && I + 1 < argc) {
      IntendedPath = argv[++I];
    } else if (Arg == "--spec" && I + 1 < argc) {
      SpecPath = argv[++I];
    } else if (Arg == "--tested-by" && I + 1 < argc) {
      TestedByPath = argv[++I];
    } else {
      if (!readFile(Arg, Source))
        return 1;
    }
  }

  DiagnosticsEngine Diags;
  auto Prog = pascal::parseAndCheck(Source, Diags);
  if (!Prog) {
    obs::logError("gadt_session", Diags.str());
    return 1;
  }

  std::unique_ptr<pascal::Program> Intended;
  if (!IntendedPath.empty()) {
    std::string Text;
    if (!readFile(IntendedPath, Text))
      return 1;
    Intended = pascal::parseAndCheck(Text, Diags);
    if (!Intended) {
      obs::logError("gadt_session", Diags.str());
      return 1;
    }
  }

  core::GADTSession Session(*Prog, Opts, Diags);
  if (!Session.valid()) {
    obs::logError("gadt_session", Diags.str());
    return 1;
  }
  for (const auto &[Unit, Expr] : AssertionArgs) {
    // Diagnostics locate inside the assertion's text: name its flag.
    DiagnosticsEngine AssertDiags;
    if (!Session.assertions().addAssertion(
            Unit, Expr, core::AssertionOracle::Strength::Specification,
            AssertDiags)) {
      obs::logError("gadt_session", "--assert " + Unit + " \"" + Expr +
                                        "\": " + AssertDiags.str());
      return 1;
    }
  }

  // Build the test database from a self-contained specification.
  std::unique_ptr<pascal::Program> TestedBy;
  if (!SpecPath.empty()) {
    std::string SpecText;
    if (!readFile(SpecPath, SpecText))
      return 1;
    std::shared_ptr<tgen::TestSpec> Spec =
        tgen::parseSpec(SpecText, Diags);
    if (!Spec) {
      obs::logError("gadt_session", Diags.str());
      return 1;
    }
    if (!Spec->hasGenerators()) {
      obs::logError("gadt_session",
                    SpecPath + " has no params/gen clauses, cannot "
                               "instantiate test cases");
      return 1;
    }
    const pascal::Program *Reference = Intended.get();
    if (!TestedByPath.empty()) {
      std::string Text;
      if (!readFile(TestedByPath, Text))
        return 1;
      TestedBy = pascal::parseAndCheck(Text, Diags);
      if (!TestedBy) {
        obs::logError("gadt_session", Diags.str());
        return 1;
      }
      Reference = TestedBy.get();
    }
    if (!Reference) {
      obs::logError("gadt_session",
                    "--spec needs --tested-by or --intended as the "
                    "reference for expected outcomes");
      return 1;
    }
    tgen::FrameSet Frames = tgen::generateFrames(*Spec);
    ReferenceChecker Checker(*Reference, Spec->TestName);
    auto DB = std::make_shared<tgen::TestReportDB>(
        tgen::runTestSuite(*Reference, *Spec, Frames,
                           tgen::specInstantiator(*Spec), Checker));
    std::printf("test database: %zu frames, %u cases passed, %u failed\n",
                Frames.Frames.size(), DB->passCount(), DB->failCount());
    Session.addTestDatabase(Spec, DB);
  }

  if (!Session.transformStats().Log.empty()) {
    std::printf("transformation phase:\n");
    for (const std::string &Line : Session.transformStats().Log)
      std::printf("  %s\n", Line.c_str());
  }

  core::InteractiveOracle Interactive(std::cin, std::cout);
  std::unique_ptr<core::IntendedProgramOracle> Reference;
  core::Oracle *User = &Interactive;
  if (Intended) {
    Reference = std::make_unique<core::IntendedProgramOracle>(*Intended);
    User = Reference.get();
  }

  core::BugReport Bug = Session.debug(*User, Input);

  if (!Session.lastRun().Ok) {
    std::printf("%s\n", Bug.Message.c_str());
    return 1;
  }
  std::printf("\nprogram output: %s\n", Session.lastRun().Output.c_str());
  if (Bug.Found) {
    std::printf("%s\n", Bug.Message.c_str());
    for (const pascal::Stmt *S : Bug.CandidateStmts)
      std::printf("  suspect statement at %s\n",
                  S->getLoc().str().c_str());
  } else
    std::printf("search ended without localizing a bug: %s\n",
                Bug.Message.c_str());
  std::printf("interactions: %u asked, %u answered by %s",
              Session.stats().Judgements, Session.stats().userQueries(),
              Intended ? "the intended program" : "you");
  for (const auto &[Source2, Count] : Session.stats().AnswersBySource)
    if (Source2 != "user")
      std::printf(", %u by %s", Count, Source2.c_str());
  std::printf("; slicing pruned %u nodes\n", Session.stats().NodesPruned);
  return Bug.Found ? 0 : 1;
}
