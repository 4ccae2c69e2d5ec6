//===- TGenTest.cpp - T-GEN category-partition tests (paper Figure 1) -----===//

#include "tgen/Classifier.h"
#include "tgen/ConstEval.h"
#include "tgen/FrameGen.h"
#include "tgen/Generator.h"
#include "tgen/ReportDB.h"
#include "tgen/SpecParser.h"

#include "pascal/Frontend.h"
#include "pascal/Parser.h"
#include "support/Casting.h"
#include "workload/ArrsumFixture.h"
#include "workload/PaperPrograms.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace gadt;
using namespace gadt::interp;
using namespace gadt::pascal;
using namespace gadt::tgen;

namespace {

std::unique_ptr<TestSpec> parse(std::string_view Src) {
  DiagnosticsEngine Diags;
  auto Spec = parseSpec(Src, Diags);
  EXPECT_TRUE(Spec != nullptr) << Diags.str();
  return Spec;
}

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

TEST(SpecParserTest, ParsesArrsumSpec) {
  auto Spec = parse(workload::ArrsumSpec);
  ASSERT_TRUE(Spec);
  EXPECT_EQ(Spec->TestName, "arrsum");
  ASSERT_EQ(Spec->Categories.size(), 3u);
  EXPECT_EQ(Spec->Categories[0].Name, "size_of_array");
  EXPECT_EQ(Spec->Categories[0].Choices.size(), 4u);
  EXPECT_TRUE(Spec->Categories[0].Choices[0].Single);
  EXPECT_EQ(Spec->Categories[1].Choices[2].Properties,
            std::vector<std::string>{"mixed"});
  ASSERT_EQ(Spec->Scripts.size(), 2u);
  EXPECT_EQ(Spec->Scripts[0].Name, "script_1");
  ASSERT_EQ(Spec->Results.size(), 1u);
}

TEST(SpecParserTest, SelectorExpressions) {
  auto Spec = parse("test t;"
                    "category c1; a : property P1; b : ;"
                    "category c2;"
                    "  x : if P1 and not P2;"
                    "  y : if (P1 or P2);"
                    "end.");
  ASSERT_TRUE(Spec);
  const Choice &X = Spec->Categories[1].Choices[0];
  std::set<std::string> Props = {"p1"};
  EXPECT_TRUE(X.If.eval(Props));
  Props.insert("p2");
  EXPECT_FALSE(X.If.eval(Props));
}

TEST(SpecParserTest, SelectorsHoldOnlyPropertyNames) {
  for (const char *Sel : {"P1 = P2", "P1 and (n > 0)", "not 3", "-P1",
                          "P1 or true", "f(P1)"}) {
    DiagnosticsEngine Diags;
    EXPECT_EQ(parseSpec(std::string("test t; category c; a : if ") + Sel +
                            "; end.",
                        Diags),
              nullptr)
        << Sel;
    EXPECT_NE(Diags.str().find("expected property name in selector "
                               "expression"),
              std::string::npos)
        << Sel << ": " << Diags.str();
  }
}

TEST(SpecParserTest, ErrorMarker) {
  auto Spec = parse("test t;"
                    "category c; good : ; bad : property ERROR when x < 0;"
                    "end.");
  ASSERT_TRUE(Spec);
  EXPECT_TRUE(Spec->Categories[0].Choices[1].Error);
  EXPECT_FALSE(Spec->Categories[0].Choices[0].Error);
}

TEST(SpecParserTest, RejectsMissingTestHeader) {
  DiagnosticsEngine Diags;
  EXPECT_EQ(parseSpec("category c; a : ; end.", Diags), nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(SpecParserTest, RejectsEmptyCategory) {
  DiagnosticsEngine Diags;
  EXPECT_EQ(parseSpec("test t; category c; end.", Diags), nullptr);
}

TEST(SpecParserTest, RejectsMissingEnd) {
  DiagnosticsEngine Diags;
  EXPECT_EQ(parseSpec("test t; category c; a : ;", Diags), nullptr);
}

//===----------------------------------------------------------------------===//
// Nesting limit: specs and assertions are outside input
//===----------------------------------------------------------------------===//

constexpr unsigned MaxDepth = Parser::MaxNestingDepth;

/// \p N parentheses around `x`, \p N copies of a unary \p Op before `x`,
/// or a chain of \p N additions: N + 1 nesting levels each, since the
/// outermost expression opens the first.
std::string nestedParens(unsigned N) {
  return std::string(N, '(') + "x" + std::string(N, ')');
}
std::string unaryChain(const char *Op, unsigned N) {
  std::string Out;
  for (unsigned I = 0; I < N; ++I)
    Out += Op;
  return Out + "x";
}
std::string additionChain(unsigned N) {
  std::string Out = "x";
  for (unsigned I = 0; I < N; ++I)
    Out += " + x";
  return Out;
}
std::vector<std::string> nestings(unsigned N) {
  return {nestedParens(N), unaryChain("not ", N), unaryChain("- ", N),
          additionChain(N)};
}

/// A spec whose only choice is classified by \p When.
std::string whenSpec(const std::string &When) {
  return "test t; category c; a : when " + When + "; end.";
}

bool rejectedAsTooDeep(const DiagnosticsEngine &Diags) {
  return Diags.str().find("nests deeper than the limit") != std::string::npos;
}

TEST(SpecParserNestingTest, DeepExpressionsAreRejectedWithADiagnostic) {
  // Without the limit, each of these overflows the stack of the parser or
  // of the recursive passes over the expression it builds.
  for (const std::string &E : nestings(100000)) {
    DiagnosticsEngine ExprDiags;
    EXPECT_EQ(parseClassifierExpr(E, ExprDiags), nullptr);
    EXPECT_TRUE(rejectedAsTooDeep(ExprDiags));
    DiagnosticsEngine SpecDiags;
    EXPECT_EQ(parseSpec(whenSpec(E), SpecDiags), nullptr);
    EXPECT_TRUE(rejectedAsTooDeep(SpecDiags));
  }
  // Selectors nest the same way.
  DiagnosticsEngine Diags;
  EXPECT_EQ(parseSpec("test t; category c; a : if " + nestedParens(100000) +
                          "; end.",
                      Diags),
            nullptr);
  EXPECT_TRUE(rejectedAsTooDeep(Diags));
}

TEST(SpecParserNestingTest, OneLevelUnderTheLimitParses) {
  unsigned N = MaxDepth - 2; // N + 1 = MaxDepth - 1 levels
  for (const std::string &E : nestings(N)) {
    DiagnosticsEngine Diags;
    EXPECT_NE(parseClassifierExpr(E, Diags), nullptr) << Diags.str();
    EXPECT_NE(parseSpec(whenSpec(E), Diags), nullptr) << Diags.str();
  }
  // The limit is exact: MaxDepth levels parse, one more does not.
  DiagnosticsEngine Diags;
  EXPECT_NE(parseClassifierExpr(nestedParens(MaxDepth - 1), Diags), nullptr)
      << Diags.str();
  EXPECT_EQ(parseClassifierExpr(nestedParens(MaxDepth), Diags), nullptr);
  EXPECT_TRUE(rejectedAsTooDeep(Diags));
}

bool rejectedAsOutOfRange(const DiagnosticsEngine &Diags) {
  return Diags.str().find("error: integer literal out of range") !=
         std::string::npos;
}

TEST(SpecParserTest, LiteralOutOfRangeIsDiagnosed) {
  // The --assert reproducer: the literal used to abort the process.
  DiagnosticsEngine Diags;
  EXPECT_EQ(parseClassifierExpr("y >= 99999999999999999999", Diags), nullptr);
  EXPECT_TRUE(rejectedAsOutOfRange(Diags)) << Diags.str();
  DiagnosticsEngine SpecDiags;
  EXPECT_EQ(parseSpec(whenSpec("y >= 99999999999999999999"), SpecDiags),
            nullptr);
  EXPECT_TRUE(rejectedAsOutOfRange(SpecDiags)) << SpecDiags.str();
  DiagnosticsEngine MaxDiags;
  EXPECT_NE(parseClassifierExpr("y >= 9223372036854775807", MaxDiags), nullptr)
      << MaxDiags.str();
}

//===----------------------------------------------------------------------===//
// Size limits: frames and categories per spec
//===----------------------------------------------------------------------===//

/// A spec of \p Categories categories, each with \p Choices ordinary
/// choices and \p Singles SINGLE choices.
std::string gridSpec(size_t Categories, size_t Choices, size_t Singles = 0) {
  std::string Out = "test t;";
  for (size_t C = 0; C != Categories; ++C) {
    Out += " category c" + std::to_string(C) + ";";
    for (size_t K = 0; K != Choices; ++K)
      Out += " k" + std::to_string(K) + " : ;";
    for (size_t K = 0; K != Singles; ++K)
      Out += " s" + std::to_string(K) + " : property SINGLE;";
  }
  return Out + " end.";
}

bool mentions(const DiagnosticsEngine &Diags, const std::string &Text) {
  return Diags.str().find(Text) != std::string::npos;
}

TEST(SpecParserLimitsTest, ExponentialFrameCountIsRejectedAtParseTime) {
  // 2^40 ordinary combinations: generateFrames would never finish.
  DiagnosticsEngine Diags;
  EXPECT_EQ(parseSpec(gridSpec(40, 2), Diags), nullptr);
  EXPECT_TRUE(mentions(Diags, "can generate more than the limit of " +
                                  std::to_string(MaxFramesPerSpec) +
                                  " frames"))
      << Diags.str();
}

TEST(SpecParserLimitsTest, SpecsAtEachLimitParse) {
  // Frames: MaxFramesPerSpec ordinary choices, or one fewer plus a SINGLE
  // choice's frame, are at the limit; one frame more is past it.
  for (size_t Singles : {0, 1}) {
    auto Spec = parse(gridSpec(1, MaxFramesPerSpec - Singles, Singles));
    ASSERT_TRUE(Spec);
    EXPECT_EQ(generateFrames(*Spec).Frames.size(), MaxFramesPerSpec);
    DiagnosticsEngine Diags;
    EXPECT_EQ(parseSpec(gridSpec(1, MaxFramesPerSpec - Singles, Singles + 1),
                        Diags),
              nullptr);
    EXPECT_TRUE(mentions(Diags, "frames")) << Diags.str();
  }
  // Categories.
  auto Spec = parse(gridSpec(MaxCategoriesPerSpec, 1));
  ASSERT_TRUE(Spec);
  EXPECT_EQ(generateFrames(*Spec).Frames.size(), 1u);
  DiagnosticsEngine Diags;
  EXPECT_EQ(parseSpec(gridSpec(MaxCategoriesPerSpec + 1, 1), Diags), nullptr);
  EXPECT_TRUE(mentions(Diags, "more than the limit of " +
                                  std::to_string(MaxCategoriesPerSpec) +
                                  " categories"))
      << Diags.str();
}

//===----------------------------------------------------------------------===//
// Closed expression evaluation
//===----------------------------------------------------------------------===//

TEST(ConstEvalTest, ArithmeticAndComparison) {
  DiagnosticsEngine Diags;
  auto Spec = parseSpec(
      "test t; category c;"
      " a : when ((n + 2) * 3 = 12) and (n mod 2 = 0); end.",
      Diags);
  ASSERT_TRUE(Spec);
  const Expr *E = Spec->Categories[0].Choices[0].When.get();
  ValueEnv Env;
  Env["n"] = Value::makeInt(2);
  auto R = evalPredicate(E, Env);
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(*R);
  Env["n"] = Value::makeInt(3);
  R = evalPredicate(E, Env);
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(*R);
}

TEST(ConstEvalTest, UnboundNameIsUndefined) {
  DiagnosticsEngine Diags;
  auto Spec =
      parseSpec("test t; category c; a : when missing > 0; end.", Diags);
  ASSERT_TRUE(Spec);
  ValueEnv Env;
  EXPECT_FALSE(
      evalPredicate(Spec->Categories[0].Choices[0].When.get(), Env));
}

TEST(ConstEvalTest, DivisionByZeroIsUndefined) {
  DiagnosticsEngine Diags;
  auto Spec =
      parseSpec("test t; category c; a : when 1 div n = 1; end.", Diags);
  ASSERT_TRUE(Spec);
  ValueEnv Env;
  Env["n"] = Value::makeInt(0);
  EXPECT_FALSE(
      evalPredicate(Spec->Categories[0].Choices[0].When.get(), Env));
}

TEST(ConstEvalTest, MinIntByMinusOne) {
  DiagnosticsEngine Diags;
  auto Spec = parseSpec("test t; category c;"
                        " a : when x div y = 0;"
                        " b : when x mod y = 0; end.",
                        Diags);
  ASSERT_TRUE(Spec);
  const auto &Choices = Spec->Categories[0].Choices;
  const auto *Div = cast<BinaryExpr>(Choices[0].When.get())->getLHS();
  const auto *Mod = cast<BinaryExpr>(Choices[1].When.get())->getLHS();
  ValueEnv Env;
  Env["x"] = Value::makeInt(INT64_MIN);
  Env["y"] = Value::makeInt(-1);
  // The quotient does not fit: undefined, like a zero divisor.
  EXPECT_FALSE(evalClosedExpr(Div, Env).has_value());
  auto R = evalClosedExpr(Mod, Env);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->asInt(), 0);
}

//===----------------------------------------------------------------------===//
// Frame generation (paper Figure 1)
//===----------------------------------------------------------------------===//

struct ArrsumFrames {
  std::unique_ptr<TestSpec> Spec;
  FrameSet Frames;

  ArrsumFrames() {
    Spec = parse(workload::ArrsumSpec);
    Frames = generateFrames(*Spec);
  }

  const TestFrame *find(const std::string &Code) const {
    for (const TestFrame &F : Frames.Frames)
      if (F.encode() == Code)
        return &F;
    return nullptr;
  }
};

TEST(FrameGenTest, ArrsumFrameUniverse) {
  ArrsumFrames A;
  // 6 ordinary frames + 2 SINGLE frames.
  EXPECT_EQ(A.Frames.Frames.size(), 8u);
  for (const char *Code :
       {"two.positive.small", "two.negative.small", "more.positive.small",
        "more.negative.small", "more.mixed.large", "more.mixed.average",
        "zero.positive.small", "one.positive.small"})
    EXPECT_TRUE(A.find(Code) != nullptr) << Code;
}

TEST(FrameGenTest, Script1MatchesPaper) {
  // Paper: "script_1 contains two frames: (more, mixed, large) and
  // (more, mixed, average)".
  ArrsumFrames A;
  const std::vector<size_t> *S1 = A.Frames.framesOfScript("script_1");
  ASSERT_TRUE(S1);
  ASSERT_EQ(S1->size(), 2u);
  std::set<std::string> Codes;
  for (size_t I : *S1)
    Codes.insert(A.Frames.Frames[I].encode());
  EXPECT_TRUE(Codes.count("more.mixed.large"));
  EXPECT_TRUE(Codes.count("more.mixed.average"));
}

TEST(FrameGenTest, Script2GetsTheRest) {
  ArrsumFrames A;
  const std::vector<size_t> *S2 = A.Frames.framesOfScript("script_2");
  ASSERT_TRUE(S2);
  EXPECT_EQ(S2->size(), 6u);
}

TEST(FrameGenTest, SinglesGenerateExactlyOneFrameEach) {
  ArrsumFrames A;
  unsigned Zero = 0, One = 0;
  for (const TestFrame &F : A.Frames.Frames) {
    if (F.ChoiceNames[0] == "zero")
      ++Zero;
    if (F.ChoiceNames[0] == "one")
      ++One;
  }
  EXPECT_EQ(Zero, 1u);
  EXPECT_EQ(One, 1u);
}

TEST(FrameGenTest, ResultBucketsFollowSelectors) {
  ArrsumFrames A;
  for (size_t I = 0; I != A.Frames.Frames.size(); ++I) {
    bool Mixed = A.Frames.Frames[I].Properties.count("mixed") != 0;
    EXPECT_EQ(A.Frames.ResultOf[I], Mixed ? "result_1" : "") << I;
  }
}

TEST(FrameGenTest, SelectorsPruneInconsistentCombinations) {
  ArrsumFrames A;
  // mixed requires MORE: no "two.mixed.*" frame may exist.
  for (const TestFrame &F : A.Frames.Frames)
    EXPECT_FALSE(F.ChoiceNames[0] == "two" && F.ChoiceNames[1] == "mixed");
}

TEST(FrameGenTest, ErrorChoiceYieldsOneFrame) {
  auto Spec = parse("test t;"
                    "category size; ok : ; neg : property ERROR;"
                    "category kind; a : ; b : ;"
                    "end.");
  FrameSet FS = generateFrames(*Spec);
  // ok x {a,b} = 2 ordinary + 1 error frame.
  ASSERT_EQ(FS.Frames.size(), 3u);
  unsigned Errors = 0;
  for (const TestFrame &F : FS.Frames)
    Errors += F.IsError;
  EXPECT_EQ(Errors, 1u);
}

TEST(FrameGenTest, FrameEncodingAndDisplay) {
  ArrsumFrames A;
  const TestFrame *F = A.find("more.mixed.large");
  ASSERT_TRUE(F);
  EXPECT_EQ(F->str(), "(more, mixed, large)");
}

//===----------------------------------------------------------------------===//
// Classification (automatic frame selection)
//===----------------------------------------------------------------------===//

TEST(ClassifierTest, FeaturesFromBindings) {
  ArrayVal Arr;
  Arr.Lo = 1;
  Arr.Hi = 3;
  Arr.Elems = {4, -2, 9};
  std::vector<Binding> Inputs = {{"a", Value::makeArray(Arr)},
                                 {"n", Value::makeInt(3)}};
  ValueEnv Env = extractFeatures(Inputs);
  EXPECT_EQ(Env["n"].asInt(), 3);
  EXPECT_EQ(Env["a_len"].asInt(), 3);
  EXPECT_EQ(Env["a_min"].asInt(), -2);
  EXPECT_EQ(Env["a_max"].asInt(), 9);
  EXPECT_EQ(Env["a_spread"].asInt(), 11);
}

TEST(ClassifierTest, ClassifiesPaperExampleInputs) {
  ArrsumFrames A;
  ArrayVal Arr;
  Arr.Lo = 1;
  Arr.Hi = 2;
  Arr.Elems = {1, 2};
  std::vector<Binding> Inputs = {{"a", Value::makeArray(Arr)},
                                 {"n", Value::makeInt(2)}};
  auto Frame = classifyInputs(*A.Spec, Inputs);
  ASSERT_TRUE(Frame.has_value());
  EXPECT_EQ(Frame->encode(), "two.positive.small");
}

TEST(ClassifierTest, InstantiationRoundTripsForAllFrames) {
  // The frame instantiator and the classifier must agree: generating
  // concrete inputs for a frame and classifying them yields the frame.
  ArrsumFrames A;
  for (const TestFrame &F : A.Frames.Frames) {
    auto Args = workload::instantiateArrsumFrame(F);
    ASSERT_TRUE(Args.has_value()) << F.encode();
    std::vector<Binding> Inputs = {{"a", (*Args)[0]}, {"n", (*Args)[1]}};
    auto Back = classifyInputs(*A.Spec, Inputs);
    ASSERT_TRUE(Back.has_value()) << F.encode();
    EXPECT_EQ(Back->encode(), F.encode());
  }
}

TEST(ClassifierTest, FailsWhenNoChoiceMatches) {
  ArrsumFrames A;
  // n = -1 matches no size choice.
  std::vector<Binding> Inputs = {{"n", Value::makeInt(-1)}};
  EXPECT_FALSE(classifyInputs(*A.Spec, Inputs).has_value());
}

//===----------------------------------------------------------------------===//
// Test execution and the report database
//===----------------------------------------------------------------------===//

struct ArrsumSuite {
  std::unique_ptr<Program> Prog;
  ArrsumFrames A;

  explicit ArrsumSuite(const char *Source) {
    DiagnosticsEngine Diags;
    Prog = parseAndCheck(Source, Diags);
    EXPECT_TRUE(Prog != nullptr) << Diags.str();
  }

  TestReportDB run() {
    return runTestSuite(*Prog, *A.Spec, A.Frames,
                        workload::instantiateArrsumFrame,
                        workload::checkArrsumOutcome);
  }
};

TEST(ReportDBTest, CorrectArrsumPassesAllFrames) {
  ArrsumSuite S(workload::Figure4Fixed);
  TestReportDB DB = S.run();
  EXPECT_EQ(DB.failCount(), 0u);
  EXPECT_EQ(DB.passCount(), 8u);
  EXPECT_EQ(DB.verdict("two.positive.small"), Verdict::Pass);
  EXPECT_EQ(DB.verdict("more.mixed.large"), Verdict::Pass);
  EXPECT_EQ(DB.verdict("nonexistent.frame"), Verdict::Untested);
}

TEST(ReportDBTest, BuggyArrsumFailsFrames) {
  // Plant a bug in arrsum itself: start the sum at 1 instead of 0.
  std::string Src = workload::Figure4Fixed;
  size_t Pos = Src.find("b := 0;");
  ASSERT_NE(Pos, std::string::npos);
  Src.replace(Pos, 7, "b := 1;");
  ArrsumSuite S(Src.c_str());
  TestReportDB DB = S.run();
  EXPECT_EQ(DB.passCount(), 0u);
  EXPECT_EQ(DB.failCount(), 8u);
  EXPECT_EQ(DB.verdict("two.positive.small"), Verdict::Fail);
}

TEST(ReportDBTest, VerdictAggregation) {
  TestReportDB DB;
  DB.record({"f1", "s", true, ""});
  DB.record({"f1", "s", true, ""});
  DB.record({"f2", "s", true, ""});
  DB.record({"f2", "s", false, "bad"});
  EXPECT_EQ(DB.verdict("f1"), Verdict::Pass);
  EXPECT_EQ(DB.verdict("f2"), Verdict::Fail);
  EXPECT_EQ(DB.verdict("f3"), Verdict::Untested);
  EXPECT_EQ(DB.passCount(), 3u);
  EXPECT_EQ(DB.failCount(), 1u);
  EXPECT_NE(DB.str().find("f2: fail"), std::string::npos);
}

TEST(ReportDBTest, RecordsCarryScripts) {
  ArrsumSuite S(workload::Figure4Fixed);
  TestReportDB DB = S.run();
  unsigned Script1 = 0;
  for (const TestCaseRecord &R : DB.records())
    if (R.Script == "script_1")
      ++Script1;
  EXPECT_EQ(Script1, 2u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Spec-driven test-case generation (the `params` / `gen` extension)
//===----------------------------------------------------------------------===//

namespace {



TEST(GeneratorTest, ParsesParamsAndGenClauses) {
  auto Spec = parse(workload::ArrsumSpecWithGens);
  ASSERT_TRUE(Spec);
  ASSERT_EQ(Spec->Params.size(), 3u);
  EXPECT_EQ(Spec->Params[0].Name, "a");
  EXPECT_FALSE(Spec->Params[0].IsOut);
  EXPECT_EQ(Spec->Params[2].Name, "b");
  EXPECT_TRUE(Spec->Params[2].IsOut);
  EXPECT_TRUE(Spec->hasGenerators());
  // size_of_array.more carries `gen n := 7`.
  const Choice &More = Spec->Categories[0].Choices[3];
  ASSERT_EQ(More.Gens.size(), 1u);
  EXPECT_EQ(More.Gens[0].first, "n");
}

TEST(GeneratorTest, EvalGenExprBuiltins) {
  DiagnosticsEngine Diags;
  auto Spec = parseSpec("test t; category c;"
                        "a : gen x := fill(3, i * i) , y := max(2, 5) ,"
                        "        z := min(2, 5) , w := abs(0 - 4);"
                        "end.",
                        Diags);
  ASSERT_TRUE(Spec != nullptr) << Diags.str();
  const auto &Gens = Spec->Categories[0].Choices[0].Gens;
  ASSERT_EQ(Gens.size(), 4u);
  ValueEnv Env;
  auto X = evalGenExpr(Gens[0].second.get(), Env);
  ASSERT_TRUE(X && X->isArray());
  EXPECT_EQ(X->asArray().Elems, (std::vector<int64_t>{1, 4, 9}));
  EXPECT_EQ(evalGenExpr(Gens[1].second.get(), Env)->asInt(), 5);
  EXPECT_EQ(evalGenExpr(Gens[2].second.get(), Env)->asInt(), 2);
  EXPECT_EQ(evalGenExpr(Gens[3].second.get(), Env)->asInt(), 4);
}

TEST(GeneratorTest, FillSeesEarlierBindings) {
  auto Spec = parse(workload::ArrsumSpecWithGens);
  FrameSet Frames = generateFrames(*Spec);
  for (const TestFrame &F : Frames.Frames) {
    auto Args = instantiateFrame(*Spec, F);
    ASSERT_TRUE(Args.has_value()) << F.encode();
    ASSERT_EQ(Args->size(), 3u);
    EXPECT_TRUE((*Args)[0].isArray()) << F.encode();
    EXPECT_TRUE((*Args)[1].isInt()) << F.encode();
    EXPECT_TRUE((*Args)[2].isUnset()) << "out param stays unset";
  }
}

TEST(GeneratorTest, SpecDrivenInstantiationRoundTrips) {
  // The generated inputs must classify back to their own frame — the same
  // invariant the handwritten instantiator satisfies.
  auto Spec = parse(workload::ArrsumSpecWithGens);
  FrameSet Frames = generateFrames(*Spec);
  EXPECT_EQ(Frames.Frames.size(), 8u);
  for (const TestFrame &F : Frames.Frames) {
    auto Args = instantiateFrame(*Spec, F);
    ASSERT_TRUE(Args.has_value()) << F.encode();
    std::vector<Binding> Inputs = {{"a", (*Args)[0]}, {"n", (*Args)[1]}};
    auto Back = classifyInputs(*Spec, Inputs);
    ASSERT_TRUE(Back.has_value()) << F.encode();
    EXPECT_EQ(Back->encode(), F.encode());
  }
}

TEST(GeneratorTest, SpecDrivenSuiteMatchesCallbackSuite) {
  auto Spec = parse(workload::ArrsumSpecWithGens);
  FrameSet Frames = generateFrames(*Spec);
  DiagnosticsEngine Diags;
  auto Prog = parseAndCheck(workload::Figure4Fixed, Diags);
  ASSERT_TRUE(Prog);
  TestReportDB DB =
      runTestSuite(*Prog, *Spec, Frames, specInstantiator(*Spec),
                   workload::checkArrsumOutcome);
  EXPECT_EQ(DB.passCount(), 8u);
  EXPECT_EQ(DB.failCount(), 0u);
}

TEST(GeneratorTest, SpecWithoutGeneratorsDeclines) {
  auto Spec = parse(workload::ArrsumSpec);
  EXPECT_FALSE(Spec->hasGenerators());
  FrameSet Frames = generateFrames(*Spec);
  EXPECT_FALSE(instantiateFrame(*Spec, Frames.Frames[0]).has_value());
}

TEST(GeneratorTest, UnboundInputParameterFails) {
  DiagnosticsEngine Diags;
  auto Spec = parseSpec("test t; params x, y;"
                        "category c; a : gen x := 1; end.",
                        Diags);
  ASSERT_TRUE(Spec != nullptr) << Diags.str();
  FrameSet Frames = generateFrames(*Spec);
  ASSERT_EQ(Frames.Frames.size(), 1u);
  EXPECT_FALSE(instantiateFrame(*Spec, Frames.Frames[0]).has_value())
      << "y is never generated";
}

TEST(GeneratorTest, UnknownBuiltinFails) {
  DiagnosticsEngine Diags;
  auto Spec = parseSpec("test t; params x;"
                        "category c; a : gen x := frobnicate(1); end.",
                        Diags);
  ASSERT_TRUE(Spec != nullptr) << Diags.str();
  FrameSet Frames = generateFrames(*Spec);
  EXPECT_FALSE(instantiateFrame(*Spec, Frames.Frames[0]).has_value());
}

} // namespace
