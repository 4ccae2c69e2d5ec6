//===- ParserTest.cpp - Parser unit tests ---------------------------------===//

#include "interp/Interpreter.h"
#include "pascal/Frontend.h"
#include "pascal/Parser.h"
#include "pascal/PrettyPrinter.h"
#include "transform/Transform.h"
#include "workload/PaperPrograms.h"
#include "workload/Payroll.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>

using namespace gadt;
using namespace gadt::pascal;

namespace {

std::unique_ptr<Program> parse(std::string_view Src) {
  DiagnosticsEngine Diags;
  Parser P(Src, Diags);
  std::unique_ptr<Program> Prog = P.parseProgram();
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

void expectParseError(std::string_view Src) {
  DiagnosticsEngine Diags;
  Parser P(Src, Diags);
  std::unique_ptr<Program> Prog = P.parseProgram();
  EXPECT_EQ(Prog, nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserTest, MinimalProgram) {
  auto Prog = parse("program tiny; begin end.");
  ASSERT_TRUE(Prog);
  EXPECT_EQ(Prog->getName(), "tiny");
  EXPECT_TRUE(Prog->getMain()->getBody()->getBody().empty());
}

TEST(ParserTest, GlobalVariables) {
  auto Prog = parse("program p; var x, y: integer; b: boolean; begin end.");
  ASSERT_TRUE(Prog);
  const auto &Globals = Prog->getMain()->getLocals();
  ASSERT_EQ(Globals.size(), 3u);
  EXPECT_EQ(Globals[0]->getName(), "x");
  EXPECT_TRUE(Globals[0]->getType()->isInteger());
  EXPECT_EQ(Globals[2]->getName(), "b");
  EXPECT_TRUE(Globals[2]->getType()->isBoolean());
}

TEST(ParserTest, TypeDefinitions) {
  auto Prog = parse("program p; type arr = array[1..10] of integer;"
                    "var a: arr; begin end.");
  ASSERT_TRUE(Prog);
  ASSERT_EQ(Prog->getTypeDefs().size(), 1u);
  const Type *T = Prog->getTypeDefs()[0].Ty;
  EXPECT_TRUE(T->isArray());
  EXPECT_EQ(T->getLowerBound(), 1);
  EXPECT_EQ(T->getUpperBound(), 10);
  EXPECT_EQ(Prog->getMain()->getLocals()[0]->getType(), T);
}

TEST(ParserTest, NegativeArrayBounds) {
  auto Prog = parse("program p; var a: array[-5..5] of integer; begin end.");
  ASSERT_TRUE(Prog);
  const Type *T = Prog->getMain()->getLocals()[0]->getType();
  EXPECT_EQ(T->getLowerBound(), -5);
  EXPECT_EQ(T->getArraySize(), 11);
}

TEST(ParserTest, ProcedureWithParamModes) {
  auto Prog = parse("program p;"
                    "procedure q(a: integer; var b: integer;"
                    "            in c: integer; out d: integer);"
                    "begin b := a; end;"
                    "begin end.");
  ASSERT_TRUE(Prog);
  RoutineDecl *Q = Prog->getMain()->findNested("q");
  ASSERT_TRUE(Q);
  ASSERT_EQ(Q->getParams().size(), 4u);
  EXPECT_EQ(Q->getParams()[0]->getMode(), ParamMode::Value);
  EXPECT_EQ(Q->getParams()[1]->getMode(), ParamMode::Var);
  EXPECT_EQ(Q->getParams()[2]->getMode(), ParamMode::In);
  EXPECT_EQ(Q->getParams()[3]->getMode(), ParamMode::Out);
}

TEST(ParserTest, FunctionWithReturnType) {
  auto Prog = parse("program p;"
                    "function f(x: integer): integer;"
                    "begin f := x + 1; end;"
                    "begin end.");
  ASSERT_TRUE(Prog);
  RoutineDecl *F = Prog->getMain()->findNested("f");
  ASSERT_TRUE(F);
  EXPECT_TRUE(F->isFunction());
  EXPECT_TRUE(F->getReturnType()->isInteger());
}

TEST(ParserTest, NestedProcedures) {
  auto Prog = parse("program p;"
                    "procedure outer;"
                    "  procedure inner; begin end;"
                    "begin inner; end;"
                    "begin outer; end.");
  ASSERT_TRUE(Prog);
  RoutineDecl *Outer = Prog->getMain()->findNested("outer");
  ASSERT_TRUE(Outer);
  EXPECT_TRUE(Outer->findNested("inner"));
  EXPECT_EQ(Outer->findNested("inner")->getParent(), Outer);
}

TEST(ParserTest, LabelsAndGotos) {
  auto Prog = parse("program p; label 9; var x: integer;"
                    "begin x := 1; goto 9; x := 2; 9: x := 3; end.");
  ASSERT_TRUE(Prog);
  ASSERT_EQ(Prog->getMain()->getLabels().size(), 1u);
  EXPECT_EQ(Prog->getMain()->getLabels()[0], 9);
  const auto &Body = Prog->getMain()->getBody()->getBody();
  ASSERT_EQ(Body.size(), 4u);
  EXPECT_EQ(Body[1]->getKind(), Stmt::Kind::Goto);
  EXPECT_EQ(Body[3]->getKind(), Stmt::Kind::Labeled);
}

TEST(ParserTest, ControlFlowStatements) {
  auto Prog = parse(
      "program p; var i, s: integer; b: boolean;"
      "begin"
      "  if i < 10 then s := 1 else s := 2;"
      "  while i > 0 do i := i - 1;"
      "  repeat i := i + 1; until i = 10;"
      "  for i := 1 to 10 do s := s + i;"
      "  for i := 10 downto 1 do s := s - i;"
      "end.");
  ASSERT_TRUE(Prog);
  const auto &Body = Prog->getMain()->getBody()->getBody();
  ASSERT_EQ(Body.size(), 5u);
  EXPECT_EQ(Body[0]->getKind(), Stmt::Kind::If);
  EXPECT_EQ(Body[1]->getKind(), Stmt::Kind::While);
  EXPECT_EQ(Body[2]->getKind(), Stmt::Kind::Repeat);
  EXPECT_EQ(Body[3]->getKind(), Stmt::Kind::For);
  EXPECT_TRUE(cast<ForStmt>(Body[4].get())->isDownward());
}

TEST(ParserTest, OperatorPrecedence) {
  auto Prog = parse("program p; var x: integer; b: boolean;"
                    "begin x := 1 + 2 * 3; b := x < 4 + 1; end.");
  ASSERT_TRUE(Prog);
  const auto &Body = Prog->getMain()->getBody()->getBody();
  const auto *A0 = cast<AssignStmt>(Body[0].get());
  EXPECT_EQ(A0->getValue()->str(), "1 + 2 * 3");
  const auto *B0 = cast<BinaryExpr>(A0->getValue());
  EXPECT_EQ(B0->getOp(), BinaryOp::Add);
  const auto *A1 = cast<AssignStmt>(Body[1].get());
  const auto *B1 = cast<BinaryExpr>(A1->getValue());
  EXPECT_EQ(B1->getOp(), BinaryOp::Lt);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto Prog = parse("program p; var x: integer;"
                    "begin x := (1 + 2) * 3; end.");
  const auto &Body = Prog->getMain()->getBody()->getBody();
  const auto *A = cast<AssignStmt>(Body[0].get());
  const auto *Mul = cast<BinaryExpr>(A->getValue());
  EXPECT_EQ(Mul->getOp(), BinaryOp::Mul);
  EXPECT_EQ(A->getValue()->str(), "(1 + 2) * 3");
}

TEST(ParserTest, ArrayConstructorExpression) {
  auto Prog = parse("program p; type arr = array[1..2] of integer;"
                    "procedure q(a: arr); begin end;"
                    "begin q([1, 2]); end.");
  ASSERT_TRUE(Prog);
  const auto &Body = Prog->getMain()->getBody()->getBody();
  const auto *PC = cast<ProcCallStmt>(Body[0].get());
  ASSERT_EQ(PC->getArgs().size(), 1u);
  EXPECT_EQ(PC->getArgs()[0]->getKind(), Expr::Kind::ArrayLiteral);
}

TEST(ParserTest, ReadAndWriteStatements) {
  auto Prog = parse("program p; var x: integer;"
                    "begin read(x); write(x, ' '); writeln(x + 1); end.");
  const auto &Body = Prog->getMain()->getBody()->getBody();
  ASSERT_EQ(Body.size(), 3u);
  EXPECT_EQ(Body[0]->getKind(), Stmt::Kind::Read);
  EXPECT_EQ(Body[1]->getKind(), Stmt::Kind::Write);
  EXPECT_FALSE(cast<WriteStmt>(Body[1].get())->isWriteln());
  EXPECT_TRUE(cast<WriteStmt>(Body[2].get())->isWriteln());
}

TEST(ParserTest, UnaryOperators) {
  auto Prog = parse("program p; var x: integer; b: boolean;"
                    "begin x := -x + 3; b := not b; end.");
  const auto &Body = Prog->getMain()->getBody()->getBody();
  const auto *A = cast<AssignStmt>(Body[0].get());
  EXPECT_EQ(A->getValue()->str(), "-x + 3");
}

TEST(ParserTest, PaperFigure4Parses) {
  auto Prog = parse(workload::Figure4Buggy);
  ASSERT_TRUE(Prog);
  EXPECT_EQ(Prog->getMain()->getNested().size(), 13u);
  EXPECT_TRUE(Prog->getMain()->findNested("sqrtest"));
  EXPECT_TRUE(Prog->getMain()->findNested("decrement")->isFunction());
}

TEST(ParserTest, PaperFigure2Parses) {
  auto Prog = parse(workload::Figure2);
  ASSERT_TRUE(Prog);
  EXPECT_EQ(Prog->getMain()->getLocals().size(), 5u);
}

TEST(ParserTest, PaperGotoProgramsParse) {
  EXPECT_TRUE(parse(workload::Section6GlobalGoto));
  EXPECT_TRUE(parse(workload::Section6LoopGoto));
}

TEST(ParserTest, RoundTripThroughPrettyPrinter) {
  auto Prog = parse(workload::Figure4Buggy);
  ASSERT_TRUE(Prog);
  std::string Printed = printProgram(*Prog);
  auto Reparsed = parse(Printed);
  ASSERT_TRUE(Reparsed) << Printed;
  EXPECT_EQ(printProgram(*Reparsed), Printed);
}

TEST(ParserTest, ErrorMissingSemicolon) {
  expectParseError("program p begin end.");
}

TEST(ParserTest, ErrorUnknownType) {
  expectParseError("program p; var x: floof; begin end.");
}

TEST(ParserTest, ErrorBadArrayBounds) {
  expectParseError("program p; var a: array[10..1] of integer; begin end.");
}

TEST(ParserTest, HugeArrayTypesAreRejected) {
  // The first three passed the parser and Sema before the element limit
  // and then aborted the process at run time: the first two with a
  // length_error (the second after a signed overflow counting its
  // elements), the third with a bad_alloc under a 4 GB address-space
  // limit (it needs 2.4 GB). The last is one element past the limit.
  for (const char *Bounds :
       {"1..9000000000000000000",
        "-9223372036854775807..9223372036854775807", "1..300000000",
        "0..1000000"}) {
    DiagnosticsEngine Diags;
    std::string Src = std::string("program p; var a: array[") + Bounds +
                      "] of integer; begin a[1] := 1 end.";
    EXPECT_EQ(parseAndCheck(Src, Diags), nullptr) << Bounds;
    EXPECT_NE(Diags.str().find("error: array type has more elements than "
                               "the limit of 1000000"),
              std::string::npos)
        << Diags.str();
  }
}

TEST(ParserTest, ArrayAtTheElementLimitRuns) {
  static_assert(Parser::MaxArrayElements == 1000000);
  DiagnosticsEngine Diags;
  std::unique_ptr<Program> Prog =
      parseAndCheck("program p; var a: array[-499999..500000] of integer;"
                    " begin a[-499999] := 1; a[500000] := 2;"
                    " writeln(a[-499999] + a[500000]) end.",
                    Diags);
  ASSERT_NE(Prog, nullptr) << Diags.str();
  interp::Interpreter I(*Prog);
  interp::ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(R.Output, "3\n");
}

TEST(ParserTest, ErrorMissingEndDot) {
  expectParseError("program p; begin end");
}

TEST(ParserTest, ErrorDanglingExpression) {
  expectParseError("program p; var x: integer; begin x := ; end.");
}

TEST(ParserTest, EmptyStatementsAreTolerated) {
  auto Prog = parse("program p; var x: integer; begin ; x := 1; ; end.");
  ASSERT_TRUE(Prog);
  EXPECT_EQ(Prog->getMain()->getBody()->getBody().size(), 1u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Constants and forward declarations (appended suite)
//===----------------------------------------------------------------------===//

namespace {

TEST(ParserTest, ConstantsSubstituteLiterals) {
  auto Prog = parse("program p;"
                    "const lim = 10; neg = -3; yes = true;"
                    "var x: integer; b: boolean;"
                    "begin x := lim + neg; b := yes; end.");
  ASSERT_TRUE(Prog);
  const auto *A = cast<AssignStmt>(Prog->getMain()->getBody()->getBody()[0].get());
  EXPECT_EQ(A->getValue()->str(), "10 + -3");
}

TEST(ParserTest, ConstantsAsArrayBounds) {
  auto Prog = parse("program p; const n = 5;"
                    "var a: array[1..n] of integer;"
                    "begin a[n] := 1; end.");
  ASSERT_TRUE(Prog);
  EXPECT_EQ(Prog->getMain()->getLocals()[0]->getType()->getUpperBound(), 5);
}

TEST(ParserTest, ConstantsReferenceEarlierConstants) {
  auto Prog = parse("program p; const n = 4; m = n;"
                    "var x: integer; begin x := m; end.");
  ASSERT_TRUE(Prog);
  const auto *A = cast<AssignStmt>(Prog->getMain()->getBody()->getBody()[0].get());
  EXPECT_EQ(A->getValue()->str(), "4");
}

TEST(ParserTest, LocalVariablesShadowOuterConstants) {
  auto Prog = parse("program p; const n = 7;"
                    "procedure q; var n: integer;"
                    "begin n := 1; end;"
                    "var x: integer;"
                    "begin x := n; q; end.");
  ASSERT_TRUE(Prog);
  // Inside q, n is the local variable, so n := 1 must parse as assignment.
  RoutineDecl *Q = Prog->getMain()->findNested("q");
  EXPECT_EQ(Q->getBody()->getBody()[0]->getKind(), Stmt::Kind::Assign);
  // Outside, n is the constant 7.
  const auto *A = cast<AssignStmt>(Prog->getMain()->getBody()->getBody()[0].get());
  EXPECT_EQ(A->getValue()->str(), "7");
}

TEST(ParserTest, ConstantNamesIgnoreCase) {
  auto Prog = parse("program p; const Lim = 3;"
                    "var x: integer; begin x := LIM; end.");
  ASSERT_TRUE(Prog);
  const auto *A = cast<AssignStmt>(Prog->getMain()->getBody()->getBody()[0].get());
  EXPECT_EQ(A->getValue()->str(), "3");
}

TEST(ParserTest, NestedRoutineConstantIsHiddenFromItsSibling) {
  auto Prog = parse("program p; var x: integer;"
                    "procedure a; const k = 1; begin x := k; end;"
                    "procedure b; begin x := k; end;"
                    "begin a; b; end.");
  ASSERT_TRUE(Prog);
  auto ValueOf = [&](const char *Routine) {
    RoutineDecl *R = Prog->getMain()->findNested(Routine);
    return cast<AssignStmt>(R->getBody()->getBody()[0].get())->getValue();
  };
  EXPECT_EQ(ValueOf("a")->getKind(), Expr::Kind::IntLiteral);
  ASSERT_EQ(ValueOf("b")->getKind(), Expr::Kind::VarRef);
  EXPECT_EQ(cast<VarRefExpr>(ValueOf("b"))->getName(), "k");
}

/// \p Src with the case of its letters alternated, except inside string
/// literals, whose case is part of the program's output.
std::string scrambleCase(std::string_view Src) {
  std::string Out(Src);
  bool InString = false, Upper = false;
  for (size_t I = 0; I < Out.size(); ++I) {
    char &C = Out[I];
    if (!InString && C == '{') {
      I = std::min(Out.find('}', I), Out.size());
      continue;
    }
    if (!InString && C == '(' && I + 1 < Out.size() && Out[I + 1] == '*') {
      I = std::min(Out.find("*)", I + 2), Out.size());
      continue;
    }
    if (C == '\'') {
      InString = !InString;
      continue;
    }
    if (InString || !std::isalpha(static_cast<unsigned char>(C)))
      continue;
    C = static_cast<char>(Upper ? std::toupper(C) : std::tolower(C));
    Upper = !Upper;
  }
  return Out;
}

TEST(ParserTest, CaseScrambledProgramsPrintAsTheOriginal) {
  std::vector<std::string> Sources = {
      workload::Figure4Buggy,       workload::Figure4Fixed,
      workload::Figure2,            workload::Section6Globals,
      workload::Section6GlobalGoto, workload::Section6LoopGoto,
      workload::ArrsumProgram,      workload::PayrollCorrect,
      workload::PayrollTaxBug,      workload::PayrollOvertimeBug,
      workload::incrementalEditProgram(12, 0, 0, 3)};
  size_t PaperAndHub = Sources.size();
  for (const auto &Entry :
       std::filesystem::directory_iterator(GADT_SAMPLES_DIR))
    if (Entry.path().extension() == ".pas") {
      std::ifstream In(Entry.path());
      Sources.emplace_back(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
    }
  ASSERT_GT(Sources.size(), PaperAndHub);
  for (const std::string &Src : Sources) {
    std::string Scrambled = scrambleCase(Src);
    ASSERT_NE(Scrambled, Src);
    DiagnosticsEngine Diags;
    std::unique_ptr<Program> Original = parseAndCheck(Src, Diags);
    std::unique_ptr<Program> Copy = parseAndCheck(Scrambled, Diags);
    ASSERT_TRUE(Original && Copy) << Diags.str() << "\n" << Scrambled;
    EXPECT_EQ(printProgram(*Copy), printProgram(*Original)) << Scrambled;
  }
}

TEST(ParserTest, AssigningToConstantIsAnError) {
  expectParseError("program p; const n = 1; begin n := 2; end.");
}

TEST(ParserTest, ForwardDeclarationEnablesMutualRecursion) {
  auto Prog = parse(
      "program p; var r: integer;"
      "function isodd(n: integer): boolean; forward;"
      "function iseven(n: integer): boolean;"
      "begin if n = 0 then iseven := true else iseven := isodd(n - 1);"
      "end;"
      "function isodd(n: integer): boolean;"
      "begin if n = 0 then isodd := false else isodd := iseven(n - 1);"
      "end;"
      "begin if isodd(7) then r := 1 else r := 0; end.");
  ASSERT_TRUE(Prog);
  EXPECT_EQ(Prog->getMain()->getNested().size(), 2u);
  EXPECT_TRUE(Prog->getMain()->findNested("isodd")->getBody());
}

TEST(ParserTest, ForwardDefinitionMayOmitParameters) {
  auto Prog = parse("program p; var r: integer;"
                    "procedure q(x: integer; var y: integer); forward;"
                    "procedure q;"
                    "begin y := x * 2; end;"
                    "begin q(21, r); end.");
  ASSERT_TRUE(Prog);
  RoutineDecl *Q = Prog->getMain()->findNested("q");
  ASSERT_EQ(Q->getParams().size(), 2u) << "heading inherited from forward";
}

TEST(ParserTest, UndefinedForwardIsAnError) {
  expectParseError("program p;"
                   "procedure q(x: integer); forward;"
                   "begin end.");
}

TEST(ParserTest, DuplicateForwardIsAnError) {
  expectParseError("program p;"
                   "procedure q; forward;"
                   "procedure q; forward;"
                   "begin end.");
}

TEST(ParserTest, ParamCountMismatchWithForwardIsAnError) {
  expectParseError("program p;"
                   "procedure q(x: integer); forward;"
                   "procedure q(x, y: integer); begin end;"
                   "begin end.");
}

//===----------------------------------------------------------------------===//
// Nesting limit: deep programs get a diagnostic, never a stack overflow
//===----------------------------------------------------------------------===//

constexpr unsigned MaxDepth = Parser::MaxNestingDepth;

std::string repeat(std::string_view Piece, unsigned N) {
  std::string Out;
  Out.reserve(Piece.size() * N);
  for (unsigned I = 0; I != N; ++I)
    Out += Piece;
  return Out;
}

// The shapes below open these levels: the main routine (1), its
// statements (one per statement, including each nested begin), the
// statement's expression (1), and one per parenthesis or binary operator.

/// `x := (((...(1)...)))` with \p Parens parentheses: 3 + Parens levels.
std::string nestedParens(unsigned Parens) {
  return "program p; var x: integer; begin x := " + repeat("(", Parens) +
         "1" + repeat(")", Parens) + "; writeln(x) end.";
}

/// \p Blocks nested begin blocks around `x := 1`: 3 + Blocks levels.
std::string nestedBlocks(unsigned Blocks) {
  return "program p; var x: integer; begin " + repeat("begin ", Blocks) +
         "x := 1" + repeat(" end", Blocks) + "; writeln(x) end.";
}

/// `x := 1 + 1 + ... + 1` with \p Ops operators: 3 + Ops levels.
std::string additionChain(unsigned Ops) {
  return "program p; var x: integer; begin x := 1" + repeat(" + 1", Ops) +
         "; writeln(x) end.";
}

/// \p Routines procedures, each declared inside the previous one: one
/// level per routine below the main one.
std::string nestedRoutines(unsigned Routines) {
  return "program p; " + repeat("procedure q; ", Routines) +
         repeat("begin end; ", Routines) + "begin end.";
}

void expectTooDeep(const std::string &Src) {
  DiagnosticsEngine Diags;
  EXPECT_EQ(parseAndCheck(Src, Diags), nullptr);
  EXPECT_NE(Diags.str().find("program nests deeper than the limit of " +
                             std::to_string(MaxDepth) + " levels"),
            std::string::npos)
      << Diags.str();
}

TEST(ParserNestingTest, DeepProgramsAreRejectedWithADiagnostic) {
  // Without the limit, each of these overflows the stack of the parser,
  // Sema or the bytecode compiler (Release build, 8 MB stack).
  expectTooDeep(nestedParens(20000));
  expectTooDeep(nestedBlocks(20000));
  expectTooDeep(additionChain(40000));
  expectTooDeep(additionChain(200000));
  expectTooDeep(nestedRoutines(20000));
  expectTooDeep("program p; var b: boolean; begin b := " +
                repeat("not ", 100000) + "true end.");
}

TEST(ParserNestingTest, LimitIsExact) {
  DiagnosticsEngine Diags;
  EXPECT_NE(parseAndCheck(additionChain(MaxDepth - 3), Diags), nullptr)
      << Diags.str();
  expectTooDeep(additionChain(MaxDepth - 2));
  EXPECT_NE(parseAndCheck(nestedParens(MaxDepth - 3), Diags), nullptr)
      << Diags.str();
  expectTooDeep(nestedParens(MaxDepth - 2));
}

TEST(ParserNestingTest, OneLevelUnderTheLimitRunsEveryPass) {
  unsigned N = MaxDepth - 4; // 3 + N = MaxDepth - 1 levels
  struct Case {
    std::string Src;
    std::string Output;
  } Cases[] = {{nestedParens(N), "1\n"},
               {nestedBlocks(N), "1\n"},
               {additionChain(N), std::to_string(N + 1) + "\n"}};
  for (const Case &C : Cases) {
    DiagnosticsEngine Diags;
    std::unique_ptr<Program> Prog = parseAndCheck(C.Src, Diags);
    ASSERT_NE(Prog, nullptr) << Diags.str();
    transform::TransformResult T = transform::transformProgram(*Prog, Diags);
    ASSERT_NE(T.Transformed, nullptr) << Diags.str();
    for (const Program *P : {Prog.get(), T.Transformed.get()}) {
      interp::Interpreter I(*P);
      interp::ExecResult R = I.run();
      ASSERT_TRUE(R.Ok) << R.Error.Message;
      EXPECT_EQ(R.Output, C.Output);
    }
  }
}

} // namespace
