//===- CoreTest.cpp - GADT debugger tests (paper Sections 3, 5, 7, 8) -----===//

#include "core/GADT.h"

#include "core/InteractiveOracle.h"
#include "core/ReferenceOracle.h"
#include "pascal/Frontend.h"
#include "pascal/PrettyPrinter.h"
#include "tgen/FrameGen.h"
#include "tgen/SpecParser.h"
#include "trace/ExecTreeBuilder.h"
#include "workload/ArrsumFixture.h"
#include "workload/PaperPrograms.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>
#include <sstream>

using namespace gadt;
using namespace gadt::core;
using namespace gadt::interp;
using namespace gadt::pascal;
using namespace gadt::trace;

namespace {

std::unique_ptr<Program> compile(std::string_view Src) {
  DiagnosticsEngine Diags;
  auto Prog = parseAndCheck(Src, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

/// Builds the arrsum test database from the *correct* program.
std::pair<std::shared_ptr<tgen::TestSpec>, std::shared_ptr<tgen::TestReportDB>>
arrsumDatabase(const Program &CorrectProgram) {
  DiagnosticsEngine Diags;
  std::shared_ptr<tgen::TestSpec> Spec =
      tgen::parseSpec(workload::ArrsumSpec, Diags);
  EXPECT_TRUE(Spec != nullptr) << Diags.str();
  tgen::FrameSet Frames = tgen::generateFrames(*Spec);
  auto DB = std::make_shared<tgen::TestReportDB>(tgen::runTestSuite(
      CorrectProgram, *Spec, Frames, workload::instantiateArrsumFrame,
      workload::checkArrsumOutcome));
  return {Spec, DB};
}

//===----------------------------------------------------------------------===//
// Oracles
//===----------------------------------------------------------------------===//

TEST(OracleTest, ScriptedOracleRepliesInOrder) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = buildExecTree(*Prog, {}, {});
  ExecNode *Dec = nullptr;
  Tree->forEachNode([&](ExecNode *N) {
    if (N->getName() == "decrement")
      Dec = N;
  });
  ASSERT_TRUE(Dec);
  ScriptedOracle O;
  O.answerYes("decrement");
  O.answerNo("decrement", "decrement");
  EXPECT_EQ(O.judge(*Dec).A, Answer::Correct);
  Judgement Second = O.judge(*Dec);
  EXPECT_EQ(Second.A, Answer::Incorrect);
  EXPECT_EQ(Second.WrongOutput, "decrement");
  // Last entry repeats.
  EXPECT_EQ(O.judge(*Dec).A, Answer::Incorrect);
  // Unknown units yield DontKnow.
  ExecNode *Root = Tree->getRoot();
  EXPECT_EQ(O.judge(*Root).A, Answer::DontKnow);
}

TEST(OracleTest, ChainStopsAtFirstAnswer) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = buildExecTree(*Prog, {}, {});
  ExecNode *Root = Tree->getRoot();
  LambdaOracle Silent([](const ExecNode &) { return Judgement::dontKnow(); },
                      "silent");
  LambdaOracle Yes(
      [](const ExecNode &) { return Judgement::correct("tester"); });
  LambdaOracle Never([](const ExecNode &) {
    ADD_FAILURE() << "later oracle consulted after an answer";
    return Judgement::dontKnow();
  });
  OracleChain Chain;
  Chain.append(&Silent);
  Chain.append(&Yes);
  Chain.append(&Never);
  Judgement J = Chain.judge(*Root);
  EXPECT_EQ(J.A, Answer::Correct);
  EXPECT_EQ(J.Source, "tester");
}

TEST(OracleTest, IntendedProgramOracleJudgesUnits) {
  auto Buggy = compile(workload::Figure4Buggy);
  auto Fixed = compile(workload::Figure4Fixed);
  auto Tree = buildExecTree(*Buggy, {}, {});
  IntendedProgramOracle O(*Fixed);

  ExecNode *Sum1 = nullptr, *Sum2 = nullptr, *Computs = nullptr;
  Tree->forEachNode([&](ExecNode *N) {
    if (N->getName() == "sum1")
      Sum1 = N;
    if (N->getName() == "sum2")
      Sum2 = N;
    if (N->getName() == "computs")
      Computs = N;
  });
  ASSERT_TRUE(Sum1 && Sum2 && Computs);
  EXPECT_EQ(O.judge(*Sum1).A, Answer::Correct);
  Judgement JSum2 = O.judge(*Sum2);
  EXPECT_EQ(JSum2.A, Answer::Incorrect);
  EXPECT_EQ(JSum2.WrongOutput, "s2");
  Judgement JComputs = O.judge(*Computs);
  EXPECT_EQ(JComputs.A, Answer::Incorrect);
  EXPECT_EQ(JComputs.WrongOutput, "r1")
      << "first wrong output variable, as in the paper's dialogue";
}

TEST(OracleTest, IntendedOracleReplaysTheTracedRoutineOfASharedName) {
  // Both helpers are correct; b's own `x := x + 10` is the bug. Replaying
  // a's helper for b's call would answer "no" and localize b's helper.
  const std::string Subject = R"(
program p;
var g: integer;

procedure a(var x: integer);
  procedure helper(var x: integer);
  begin
    x := x + 1;
  end;
begin
  helper(x);
end;

procedure b(var x: integer);
  procedure helper(var x: integer);
  begin
    x := x * 2;
  end;
begin
  x := x + 10;
  helper(x);
end;

begin
  read(g);
  a(g);
  b(g);
  writeln(g);
end.
)";
  std::string Intended = Subject;
  Intended.replace(Intended.find("x + 10"), 6, "x + 1");
  auto Buggy = compile(Subject);
  auto Fixed = compile(Intended);
  ASSERT_TRUE(Buggy && Fixed);
  DiagnosticsEngine Diags;
  GADTSession Session(*Buggy, GADTOptions(), Diags);
  ASSERT_TRUE(Session.valid()) << Diags.str();
  IntendedProgramOracle User(*Fixed);
  BugReport R = Session.debug(User, /*Input=*/{1});
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "b") << Session.stats().transcript();
}

TEST(OracleTest, IntendedOracleHandlesGlobalsViaPresets) {
  // Trace a transformed program (globals as parameters) and judge with the
  // untransformed intended program: inputs that are not parameters of the
  // reference routine become global presets.
  auto Buggy = compile("program g; var x, z, w: integer;"
                       "procedure p(var y: integer);"
                       "begin y := x + 1; z := y + x; end;" // bug: + not -
                       "begin x := 10; p(w); writeln(z); end.");
  auto Fixed = compile(workload::Section6Globals);
  DiagnosticsEngine Diags;
  auto Xf = transform::transformProgram(*Buggy, Diags);
  ASSERT_TRUE(Xf.Transformed);
  auto Tree = buildExecTree(*Xf.Transformed, {}, {});
  ExecNode *P = nullptr;
  Tree->forEachNode([&](ExecNode *N) {
    if (N->getName() == "p")
      P = N;
  });
  ASSERT_TRUE(P);
  IntendedProgramOracle O(*Fixed);
  Judgement J = O.judge(*P);
  EXPECT_EQ(J.A, Answer::Incorrect);
  EXPECT_EQ(J.WrongOutput, "z");
}

TEST(OracleTest, AssertionOracleSpecificationAnswers) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = buildExecTree(*Prog, {}, {});
  DiagnosticsEngine Diags;
  AssertionOracle O;
  // Complete specifications of the two helper functions.
  ASSERT_TRUE(O.addAssertion("increment", "increment = y + 1",
                             AssertionOracle::Strength::Specification,
                             Diags));
  ASSERT_TRUE(O.addAssertion("decrement", "decrement = y - 1",
                             AssertionOracle::Strength::Specification,
                             Diags));
  ExecNode *Inc = nullptr, *Dec = nullptr;
  Tree->forEachNode([&](ExecNode *N) {
    if (N->getName() == "increment")
      Inc = N;
    if (N->getName() == "decrement")
      Dec = N;
  });
  ASSERT_TRUE(Inc && Dec);
  EXPECT_EQ(O.judge(*Inc).A, Answer::Correct);
  EXPECT_EQ(O.judge(*Dec).A, Answer::Incorrect) << "y+1 violates y-1 spec";
  EXPECT_EQ(O.judge(*Tree->getRoot()).A, Answer::DontKnow);
}

TEST(OracleTest, AssertionOracleNecessaryOnlyRefutes) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = buildExecTree(*Prog, {}, {});
  DiagnosticsEngine Diags;
  AssertionOracle O;
  // A necessary condition that happens to hold for the buggy value too.
  ASSERT_TRUE(O.addAssertion("decrement", "decrement > 0",
                             AssertionOracle::Strength::Necessary, Diags));
  ExecNode *Dec = nullptr;
  Tree->forEachNode([&](ExecNode *N) {
    if (N->getName() == "decrement")
      Dec = N;
  });
  EXPECT_EQ(O.judge(*Dec).A, Answer::DontKnow)
      << "a satisfied necessary condition proves nothing";
}

TEST(OracleTest, AssertionsRankOperatorsAsPrograms) {
  // g's own body as its specification. In a program `x or y = z` is
  // `(x or y) = z`; an assertion must read it the same way, or the oracle
  // refutes a correct unit.
  auto Prog = compile("program p; var r: boolean;"
                      " function g(x, y, z: boolean): boolean;"
                      " begin g := x or y = z end;"
                      " begin r := g(true, false, false); writeln(r) end.");
  ASSERT_TRUE(Prog);
  auto Tree = buildExecTree(*Prog, {}, {});
  ExecNode *G = nullptr;
  Tree->forEachNode([&](ExecNode *N) {
    if (N->getName() == "g")
      G = N;
  });
  ASSERT_TRUE(G);
  DiagnosticsEngine Diags;
  AssertionOracle O;
  ASSERT_TRUE(O.addAssertion("g", "g = (x or y = z)",
                             AssertionOracle::Strength::Specification,
                             Diags));
  EXPECT_EQ(O.judge(*G).A, Answer::Correct);
}

TEST(OracleTest, AssertionOracleRejectsBadExpression) {
  DiagnosticsEngine Diags;
  AssertionOracle O;
  EXPECT_FALSE(O.addAssertion("f", "x = = 1",
                              AssertionOracle::Strength::Specification,
                              Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(OracleTest, AssertionOracleRejectsIllTypedOperators) {
  // Under Pascal ranking `x > 0 and y > 0` is `x > (0 and y) > 0`, which
  // is undefined on every call, so the oracle would answer nothing. Names
  // stay untyped, so `g = (x or y = z)` passes.
  struct Case {
    const char *Text;
    const char *Error; ///< nullptr: accepted
  } Cases[] = {
      {"x > 0 and y > 0", "operator 'and' requires boolean operands"},
      {"(x > 0) and (y > 0)", nullptr},
      {"g = (x or y = z)", nullptr},
      {"increment = y + 1", nullptr},
      {"decrement > 0", nullptr},
      {"not 1", "'not' requires a boolean operand"},
      {"-true = x", "unary '-' requires an integer operand"},
      {"1 = true", "operator '=' requires operands of one type"},
      {"'a' < 'b'", "operator '<' requires integer operands"},
      {"x + (y or z) > 0", "operator '+' requires integer operands"},
      {"a[x > 0] = 1", "array index must be an integer"},
      {"x + 1", "an assertion must be a boolean expression"},
  };
  for (const Case &C : Cases) {
    DiagnosticsEngine Diags;
    AssertionOracle O;
    bool Added = O.addAssertion(
        "g", C.Text, AssertionOracle::Strength::Specification, Diags);
    EXPECT_EQ(Added, C.Error == nullptr) << C.Text << "\n" << Diags.str();
    if (C.Error) {
      EXPECT_NE(Diags.str().find(C.Error), std::string::npos)
          << C.Text << "\n" << Diags.str();
    }
    EXPECT_EQ(O.assertionCount(), Added ? 1u : 0u);
  }
}

TEST(OracleTest, AssertionNamesTakeTheirDeclaredTypes) {
  // With the program, a name is typed as its unit's body resolves it:
  // parameters, result and locals, then enclosing scopes; in_<name> is
  // <name>. A loop unit's names stay untyped, and a unit the program does
  // not have is rejected.
  auto Prog = compile("program p; var n: integer; b: boolean;"
                      " flags: array[1..2] of boolean;"
                      " function g(x, y, z: boolean): boolean;"
                      " begin g := x or y = z end;"
                      " function increment(y: integer): integer;"
                      " begin increment := y + 1 end;"
                      " function decrement(y: integer): integer;"
                      " begin decrement := y - 1 end;"
                      " function dbl(x: integer): integer;"
                      " begin dbl := 2 * x end;"
                      " begin for n := 1 to 2 do b := n > 1;"
                      " writeln(g(true, false, false), dbl(increment(n)),"
                      " decrement(n)) end.");
  ASSERT_TRUE(Prog);
  struct Case {
    const char *Unit, *Text;
    const char *Error; ///< nullptr: accepted
  } Cases[] = {
      {"dbl", "not x", "'not' requires a boolean operand"},
      {"dbl", "in_x or true", "operator 'or' requires boolean operands"},
      {"dbl", "dbl = in_x + in_x", nullptr},
      {"g", "g = (x or y = z)", nullptr},
      {"g", "x > 0", "operator '>' requires integer operands"},
      {"increment", "increment = y + 1", nullptr},
      {"decrement", "decrement > 0", nullptr},
      {"decrement", "n = decrement + 1", nullptr},
      {"g", "b = 1", "operator '=' requires operands of one type"},
      {"p", "not n", "'not' requires a boolean operand"},
      {"g", "undeclared and x", nullptr},
      {"g", "flags[1] = not x", nullptr},
      {"g", "flags[1] > 0", "operator '>' requires integer operands"},
      {"p.for#1", "not n", nullptr},
      // A unit no execution shows: neither a routine's nor a loop's name.
      {"gg", "true", "no routine or loop unit named 'gg'"},
      {"p.g", "true", "no routine or loop unit named 'p.g'"},
      {"p.for#2", "true", "no routine or loop unit named 'p.for#2'"},
  };
  for (const Case &C : Cases) {
    DiagnosticsEngine Diags;
    AssertionOracle O;
    O.setProgram(Prog.get());
    bool Added = O.addAssertion(
        C.Unit, C.Text, AssertionOracle::Strength::Specification, Diags);
    EXPECT_EQ(Added, C.Error == nullptr)
        << C.Unit << ": " << C.Text << "\n" << Diags.str();
    if (C.Error) {
      EXPECT_NE(Diags.str().find(C.Error), std::string::npos)
          << C.Unit << ": " << C.Text << "\n" << Diags.str();
    }
  }
}

TEST(OracleTest, TestDatabaseOracleAnswersCoveredCalls) {
  auto Fixed = compile(workload::Figure4Fixed);
  auto Buggy = compile(workload::Figure4Buggy);
  auto [Spec, DB] = arrsumDatabase(*Fixed);
  TestDatabaseOracle O;
  O.addDatabase(Spec, DB);
  auto Tree = buildExecTree(*Buggy, {}, {});
  ExecNode *Arrsum = nullptr;
  Tree->forEachNode([&](ExecNode *N) {
    if (N->getName() == "arrsum")
      Arrsum = N;
  });
  ASSERT_TRUE(Arrsum);
  Judgement J = O.judge(*Arrsum);
  EXPECT_EQ(J.A, Answer::Correct);
  EXPECT_EQ(J.Source, "test-db");
  // Other routines are not covered.
  EXPECT_EQ(O.judge(*Tree->getRoot()).A, Answer::DontKnow);
}

TEST(OracleTest, InteractiveOracleParsesAnswers) {
  auto Prog = compile(workload::Figure4Buggy);
  auto Tree = buildExecTree(*Prog, {}, {});
  ExecNode *Root = Tree->getRoot();
  std::istringstream In("yes\nno r1\nn\nmaybe\n");
  std::ostringstream Out;
  InteractiveOracle O(In, Out);
  EXPECT_EQ(O.judge(*Root).A, Answer::Correct);
  Judgement J = O.judge(*Root);
  EXPECT_EQ(J.A, Answer::Incorrect);
  EXPECT_EQ(J.WrongOutput, "r1");
  EXPECT_EQ(O.judge(*Root).A, Answer::Incorrect);
  EXPECT_EQ(O.judge(*Root).A, Answer::DontKnow);
  EXPECT_NE(Out.str().find("main(Out isok: false)?"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The debugger on the paper's example (Section 8)
//===----------------------------------------------------------------------===//

struct Fig4Session {
  std::unique_ptr<Program> Buggy = compile(workload::Figure4Buggy);
  std::unique_ptr<Program> Fixed = compile(workload::Figure4Fixed);
  IntendedProgramOracle User{*Fixed};

  BugReport run(GADTOptions Opts, bool WithTestDB, SessionStats &StatsOut) {
    DiagnosticsEngine Diags;
    GADTSession Session(*Buggy, Opts, Diags);
    EXPECT_TRUE(Session.valid()) << Diags.str();
    if (WithTestDB) {
      auto [Spec, DB] = arrsumDatabase(*Fixed);
      Session.addTestDatabase(Spec, DB);
    }
    BugReport Report = Session.debug(User);
    StatsOut = Session.stats();
    return Report;
  }
};

TEST(DebuggerTest, PureAlgorithmicDebuggingFindsDecrement) {
  Fig4Session S;
  GADTOptions Opts;
  Opts.Debugger.Slicing = SliceMode::None;
  SessionStats Stats;
  BugReport R = S.run(Opts, /*WithTestDB=*/false, Stats);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "decrement");
  // Top-down: sqrtest, arrsum, computs, comput1, partialsums, sum1, sum2,
  // decrement — 8 user interactions.
  EXPECT_EQ(Stats.userQueries(), 8u);
  EXPECT_EQ(Stats.SlicingActivations, 0u);
}

TEST(DebuggerTest, SlicingReducesInteractions) {
  Fig4Session S;
  GADTOptions Opts; // static slicing on by default
  SessionStats Stats;
  BugReport R = S.run(Opts, /*WithTestDB=*/false, Stats);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "decrement");
  // sum1 is sliced away after "error on second output variable" at
  // partialsums: sqrtest, arrsum, computs, comput1, partialsums, sum2,
  // decrement — 7 interactions.
  EXPECT_EQ(Stats.userQueries(), 7u);
  EXPECT_GT(Stats.SlicingActivations, 0u);
  EXPECT_GT(Stats.NodesPruned, 0u);
}

TEST(DebuggerTest, FullGADTMatchesPaperSession) {
  Fig4Session S;
  GADTOptions Opts;
  SessionStats Stats;
  BugReport R = S.run(Opts, /*WithTestDB=*/true, Stats);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "decrement");
  EXPECT_NE(R.Message.find("decrement"), std::string::npos);
  // The arrsum query is answered from the test database without user
  // interaction (paper: "the query arrsum(...) was never shown to the
  // user"): sqrtest, computs, comput1, partialsums, sum2, decrement.
  EXPECT_EQ(Stats.userQueries(), 6u);
  EXPECT_EQ(Stats.AnswersBySource.at("test-db"), 1u);
  EXPECT_EQ(Stats.Unanswered, 0u);
}

TEST(DebuggerTest, DynamicSlicingWorksToo) {
  Fig4Session S;
  GADTOptions Opts;
  Opts.Debugger.Slicing = SliceMode::Dynamic;
  SessionStats Stats;
  BugReport R = S.run(Opts, /*WithTestDB=*/true, Stats);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "decrement");
  EXPECT_EQ(Stats.userQueries(), 6u);
}

TEST(DebuggerTest, AssertionsShortCircuitTheSearch) {
  Fig4Session S;
  DiagnosticsEngine Diags;
  GADTSession Session(*S.Buggy, GADTOptions(), Diags);
  ASSERT_TRUE(Session.valid());
  ASSERT_TRUE(Session.assertions().addAssertion(
      "decrement", "decrement = y - 1",
      AssertionOracle::Strength::Specification, Diags));
  ASSERT_TRUE(Session.assertions().addAssertion(
      "increment", "increment = y + 1",
      AssertionOracle::Strength::Specification, Diags));
  BugReport R = Session.debug(S.User);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "decrement");
  EXPECT_GE(Session.stats().AnswersBySource.at("assertion"), 1u);
  // The assertion answers the decrement query, so the user answers less
  // than in the assertion-free session.
  EXPECT_LT(Session.stats().userQueries(), 7u);
}

TEST(DebuggerTest, DivideAndQueryFindsTheBug) {
  Fig4Session S;
  GADTOptions Opts;
  Opts.Debugger.Strategy = SearchStrategy::DivideAndQuery;
  SessionStats Stats;
  BugReport R = S.run(Opts, false, Stats);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "decrement");
}

TEST(DebuggerTest, BottomUpFindsTheBug) {
  Fig4Session S;
  GADTOptions Opts;
  Opts.Debugger.Strategy = SearchStrategy::BottomUp;
  Opts.Debugger.Slicing = SliceMode::None;
  SessionStats Stats;
  BugReport R = S.run(Opts, false, Stats);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "decrement");
  // Bottom-up judges leaves first (arrsum, increment, sum1, decrement
  // here) — it can be lucky on deep-left bugs but is exhaustive in the
  // worst case; the scaling bench quantifies this.
  EXPECT_GE(Stats.userQueries(), 4u);
}

TEST(DebuggerTest, ScriptedSessionReproducesPaperDialogue) {
  // Drive the exact Section 8 dialogue with a scripted user.
  Fig4Session S;
  DiagnosticsEngine Diags;
  GADTSession Session(*S.Buggy, GADTOptions(), Diags);
  ASSERT_TRUE(Session.valid());
  auto [Spec, DB] = arrsumDatabase(*S.Fixed);
  Session.addTestDatabase(Spec, DB);

  ScriptedOracle User;
  User.answerNo("sqrtest");
  User.answerNo("computs", "r1");      // "no, error on first output variable"
  User.answerNo("comput1");
  User.answerNo("partialsums", "s2");  // "no, error on second output variable"
  User.answerNo("sum2");
  User.answerNo("decrement");

  BugReport R = Session.debug(User);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "decrement");
  EXPECT_EQ(Session.stats().userQueries(), 6u);
  EXPECT_EQ(Session.stats().SlicingActivations, 2u);
  EXPECT_EQ(Session.stats().Unanswered, 0u);
}

TEST(DebuggerTest, BugInMainBodyIsLocalizedToMain) {
  auto Buggy = compile("program p; var x, y: integer;"
                       "function dbl(v: integer): integer;"
                       "begin dbl := v * 2; end;"
                       "begin x := dbl(4); y := x + 1; end."); // intends y=x+2
  auto Fixed = compile("program p; var x, y: integer;"
                       "function dbl(v: integer): integer;"
                       "begin dbl := v * 2; end;"
                       "begin x := dbl(4); y := x + 2; end.");
  DiagnosticsEngine Diags;
  GADTSession Session(*Buggy, GADTOptions(), Diags);
  ASSERT_TRUE(Session.valid());
  IntendedProgramOracle User(*Fixed);
  BugReport R = Session.debug(User);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "p") << "all callees correct: the bug is in main";
}

TEST(DebuggerTest, LoopUnitsCanBeSearched) {
  // With loop tracing on, the debugger can localize a bug to a loop unit
  // via an assertion refuting the loop's outputs.
  auto Buggy = compile("program p; var i, s: integer;"
                       "begin s := 0;"
                       "for i := 1 to 4 do s := s + i + 1;" // bug: + 1
                       "writeln(s); end.");
  DiagnosticsEngine Diags;
  GADTOptions Opts;
  Opts.TraceLoops = true;
  GADTSession Session(*Buggy, Opts, Diags);
  ASSERT_TRUE(Session.valid());
  ASSERT_TRUE(Session.assertions().addAssertion(
      "p.for#1", "s = 10", AssertionOracle::Strength::Specification, Diags));
  LambdaOracle Mute([](const ExecNode &) { return Judgement::dontKnow(); });
  BugReport R = Session.debug(Mute);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "p.for#1");
}

TEST(DebuggerTest, SubjectRuntimeFailureIsReported) {
  auto Crashing = compile("program p; var x: integer;"
                          "begin x := 1 div 0; end.");
  DiagnosticsEngine Diags;
  GADTSession Session(*Crashing, GADTOptions(), Diags);
  ASSERT_TRUE(Session.valid());
  LambdaOracle Mute([](const ExecNode &) { return Judgement::dontKnow(); });
  BugReport R = Session.debug(Mute);
  EXPECT_FALSE(R.Found);
  EXPECT_NE(R.Message.find("division by zero"), std::string::npos);
}

TEST(DebuggerTest, TransformedSessionOnGotoProgram) {
  // End-to-end: a buggy program with global gotos and global side effects
  // is transformed, traced, and debugged against the intended original.
  const char *BuggyText = R"(
program gg;
label 8;
var a, b: integer;
procedure p(v: integer; var r: integer);
label 9;
  procedure q(u: integer; var s: integer);
  begin
    s := u + 1;
    if u > 10 then
      goto 9;
    s := s * 3;
  end;
begin
  r := 0;
  q(v, r);
  r := r + 100;
  9:
  r := r + 1;
  if v > 100 then
    goto 8;
  r := r + 1000;
end;
begin
  a := 5;
  p(a, b);
  8:
  writeln(b);
end.
)";
  // Intended: q multiplies by 2 (the paper's Section 6 example).
  std::string FixedText = BuggyText;
  size_t Pos = FixedText.find("s * 3");
  FixedText.replace(Pos, 5, "s * 2");

  auto Buggy = compile(BuggyText);
  auto Fixed = compile(FixedText);
  DiagnosticsEngine Diags;
  GADTSession Session(*Buggy, GADTOptions(), Diags);
  ASSERT_TRUE(Session.valid()) << Diags.str();
  EXPECT_GT(Session.transformStats().GotosBroken, 0u);
  IntendedProgramOracle User(*Fixed);
  BugReport R = Session.debug(User);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "q");
}

} // namespace

//===----------------------------------------------------------------------===//
// Memoization and heaviest-first search (appended suite)
//===----------------------------------------------------------------------===//

namespace {

TEST(DebuggerTest, RepeatedIdenticalCallsAreJudgedOnce) {
  // ok(5) runs twice with identical behaviour (once under p1, once under
  // p2); exhaustive bottom-up search must consult the oracle only once.
  const char *BuggyText =
      "program p; var x, y: integer;"
      "function ok(v: integer): integer; begin ok := v + 1; end;"
      "procedure p1(var r: integer); begin r := ok(5); end;"
      "procedure p2(var r: integer); begin r := ok(5) * 2 + 1; end;" // bug
      "begin p1(x); p2(y); writeln(x, ' ', y); end.";
  std::string FixedText = BuggyText;
  FixedText.replace(FixedText.find("* 2 + 1"), 7, "* 2");

  auto Buggy = compile(BuggyText);
  auto Fixed = compile(FixedText.c_str());

  for (bool Memoize : {true, false}) {
    DiagnosticsEngine Diags;
    GADTOptions Opts;
    Opts.Debugger.Strategy = SearchStrategy::BottomUp;
    Opts.Debugger.Slicing = SliceMode::None;
    Opts.Debugger.MemoizeJudgements = Memoize;
    GADTSession Session(*Buggy, Opts, Diags);
    ASSERT_TRUE(Session.valid());
    IntendedProgramOracle User(*Fixed);
    BugReport R = Session.debug(User);
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.UnitName, "p2");
    if (Memoize) {
      EXPECT_GE(Session.stats().MemoHits, 1u)
          << "second ok(5) query answered from the memo";
      EXPECT_EQ(Session.stats().userQueries(), 3u); // ok, p1, ok(memo), p2
    } else {
      EXPECT_EQ(Session.stats().MemoHits, 0u);
      EXPECT_EQ(Session.stats().userQueries(), 4u);
    }
  }
}

TEST(DebuggerTest, HeaviestFirstDescendsIntoTheBigSubtree) {
  // main calls a tiny correct helper and then a long buggy chain; plain
  // top-down asks the helper first, heaviest-first skips straight to the
  // chain.
  workload::ProgramPair Chain = workload::chainProgram(6, 6);
  std::string BuggyText = Chain.Buggy;
  std::string FixedText = Chain.Fixed;
  const char *Helper =
      "procedure tiny(var t: integer); begin t := 1; end;\n";
  // Insert the helper before the main block and call it first.
  auto Insert = [&](std::string &S) {
    size_t Pos = S.rfind("begin");
    S.insert(Pos, Helper);
    Pos = S.find("p1(1, r);");
    S.insert(Pos, "tiny(r);\n  ");
  };
  Insert(BuggyText);
  Insert(FixedText);

  auto Buggy = compile(BuggyText);
  auto Fixed = compile(FixedText.c_str());
  unsigned Queries[2];
  int Index = 0;
  for (SearchStrategy Strategy :
       {SearchStrategy::TopDown, SearchStrategy::TopDownHeaviest}) {
    DiagnosticsEngine Diags;
    GADTOptions Opts;
    Opts.Debugger.Strategy = Strategy;
    Opts.Debugger.Slicing = SliceMode::None;
    GADTSession Session(*Buggy, Opts, Diags);
    ASSERT_TRUE(Session.valid());
    IntendedProgramOracle User(*Fixed);
    BugReport R = Session.debug(User);
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.UnitName, "p6");
    Queries[Index++] = Session.stats().userQueries();
  }
  EXPECT_LT(Queries[1], Queries[0])
      << "heaviest-first saves the query about the tiny helper";
}

} // namespace

//===----------------------------------------------------------------------===//
// Statement-level candidates (appended suite)
//===----------------------------------------------------------------------===//

namespace {

TEST(DebuggerTest, CandidateStatementsNarrowTheBuggyUnit) {
  // The buggy unit computes two outputs from disjoint statements; flagging
  // output r1 must keep only the r1-relevant statements as candidates.
  const char *BuggyText =
      "program p; var a, b: integer;"
      "procedure pair(x: integer; var r1, r2: integer);"
      "var t1, t2: integer;"
      "begin"
      "  t1 := x * 2;"
      "  t2 := x * 3;"
      "  r1 := t1 + 100;" // bug: should be t1 + 1
      "  r2 := t2 + 2;"
      "end;"
      "begin pair(5, a, b); writeln(a, ' ', b); end.";
  std::string FixedText = BuggyText;
  FixedText.replace(FixedText.find("t1 + 100"), 8, "t1 + 1");

  auto Buggy = compile(BuggyText);
  auto Fixed = compile(FixedText.c_str());
  DiagnosticsEngine Diags;
  GADTSession Session(*Buggy, GADTOptions(), Diags);
  ASSERT_TRUE(Session.valid());
  IntendedProgramOracle User(*Fixed);
  BugReport R = Session.debug(User);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "pair");
  EXPECT_EQ(R.WrongOutput, "r1");
  ASSERT_FALSE(R.CandidateStmts.empty());

  // Candidates must include the two r1 statements and exclude both r2-only
  // statements.
  std::set<std::string> Rendered;
  for (const pascal::Stmt *S : R.CandidateStmts)
    Rendered.insert(printStmt(*S));
  EXPECT_TRUE(Rendered.count("t1 := x * 2;\n")) << "t1 def is relevant";
  EXPECT_TRUE(Rendered.count("r1 := t1 + 100;\n")) << "the buggy stmt";
  EXPECT_FALSE(Rendered.count("t2 := x * 3;\n")) << "r2-only";
  EXPECT_FALSE(Rendered.count("r2 := t2 + 2;\n")) << "r2-only";
}

TEST(DebuggerTest, CandidatesForFunctionResult) {
  Fig4Session S;
  DiagnosticsEngine Diags;
  GADTSession Session(*S.Buggy, GADTOptions(), Diags);
  ASSERT_TRUE(Session.valid());
  BugReport R = Session.debug(S.User);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.UnitName, "decrement");
  ASSERT_EQ(R.CandidateStmts.size(), 1u)
      << "decrement's body is a single assignment";
  EXPECT_EQ(printStmt(*R.CandidateStmts[0]), "decrement := y + 1;\n");
}

TEST(DebuggerTest, NoCandidatesWithoutSlicing) {
  Fig4Session S;
  DiagnosticsEngine Diags;
  GADTOptions Opts;
  Opts.Debugger.Slicing = SliceMode::None; // no SDG built
  GADTSession Session(*S.Buggy, Opts, Diags);
  ASSERT_TRUE(Session.valid());
  BugReport R = Session.debug(S.User);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.CandidateStmts.empty());
}

} // namespace

//===----------------------------------------------------------------------===//
// Dialogue transcripts (appended suite)
//===----------------------------------------------------------------------===//

namespace {

TEST(DebuggerTest, TranscriptReproducesSection8Dialogue) {
  Fig4Session S;
  DiagnosticsEngine Diags;
  GADTSession Session(*S.Buggy, GADTOptions(), Diags);
  ASSERT_TRUE(Session.valid());
  auto [Spec, DB] = arrsumDatabase(*S.Fixed);
  Session.addTestDatabase(Spec, DB);
  BugReport R = Session.debug(S.User);
  ASSERT_TRUE(R.Found);

  std::string T = Session.stats().transcript();
  // The exchanges of the paper's Section 8 session, in order.
  const char *Lines[] = {
      "sqrtest(In ary: [1, 2], In n: 2, Out isok: false)? no",
      "arrsum(In a: [1, 2], In n: 2, Out b: 3)? yes  [answered by test-db]",
      "computs(In y: 3, Out r1: 12, Out r2: 9)? no, error on output r1",
      "partialsums(In y: 3, Out s1: 6, Out s2: 6)? no, error on output s2",
      "decrement(In y: 3)=4? no",
  };
  size_t Pos = 0;
  for (const char *Line : Lines) {
    size_t Found = T.find(Line, Pos);
    EXPECT_NE(Found, std::string::npos) << "missing in order: " << Line
                                        << "\n" << T;
    if (Found != std::string::npos)
      Pos = Found;
  }
  // Dialogue length equals judgements plus memo hits.
  EXPECT_EQ(Session.stats().Dialogue.size(),
            Session.stats().Judgements + Session.stats().MemoHits);
}

TEST(DebuggerTest, TranscriptMarksMemoHits) {
  const char *BuggyText =
      "program p; var x, y: integer;"
      "function ok(v: integer): integer; begin ok := v + 1; end;"
      "procedure p1(var r: integer); begin r := ok(5); end;"
      "procedure p2(var r: integer); begin r := ok(5) * 2 + 1; end;"
      "begin p1(x); p2(y); writeln(x, ' ', y); end.";
  std::string FixedText = BuggyText;
  FixedText.replace(FixedText.find("* 2 + 1"), 7, "* 2");
  auto Buggy = compile(BuggyText);
  auto Fixed = compile(FixedText.c_str());
  DiagnosticsEngine Diags;
  GADTOptions Opts;
  Opts.Debugger.Strategy = SearchStrategy::BottomUp;
  Opts.Debugger.Slicing = SliceMode::None;
  GADTSession Session(*Buggy, Opts, Diags);
  ASSERT_TRUE(Session.valid());
  IntendedProgramOracle User(*Fixed);
  Session.debug(User);
  EXPECT_NE(Session.stats().transcript().find("[remembered]"),
            std::string::npos);
}

} // namespace

//===----------------------------------------------------------------------===//
// Iteration-level localization (appended suite)
//===----------------------------------------------------------------------===//

namespace {

TEST(DebuggerTest, BugLocalizedToASpecificIteration) {
  // Paper Section 6.1: the debugger asks whether "iteration variables are
  // correct for iteration 1, iteration 2 etc." — with iteration units on
  // and a loop-invariant assertion, the bug lands on the exact iteration.
  auto Buggy = compile("program p; var i, s: integer;"
                       "begin s := 0;"
                       "for i := 1 to 5 do"
                       "  if i = 3 then s := s + i + 10"  // bug at i = 3
                       "  else s := s + i;"
                       "writeln(s); end.");
  DiagnosticsEngine Diags;
  GADTOptions Opts;
  Opts.TraceLoops = true;
  Opts.TraceIterations = true;
  GADTSession Session(*Buggy, Opts, Diags);
  ASSERT_TRUE(Session.valid());
  // The invariant after iteration i: s = 1 + 2 + ... + i. It serves as a
  // complete spec for both the loop unit and each iteration unit.
  ASSERT_TRUE(Session.assertions().addAssertion(
      "p.for#1", "s = (i * (i + 1)) div 2",
      AssertionOracle::Strength::Specification, Diags));
  LambdaOracle Mute([](const ExecNode &) { return Judgement::dontKnow(); });
  BugReport R = Session.debug(Mute);
  ASSERT_TRUE(R.Found);
  ASSERT_TRUE(R.Node);
  EXPECT_EQ(R.Node->getKind(), UnitKind::Iteration);
  EXPECT_EQ(R.Node->getIterIndex(), 3u)
      << "the exact buggy iteration, as the paper describes\n"
      << Session.tree()->str();
}

} // namespace
