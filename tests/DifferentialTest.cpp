//===- DifferentialTest.cpp - Seeded differential sweeps ------------------===//
//
// Three differential obligations:
//
//  1. Transformation is semantics-preserving: for a seeded sweep of random
//     programs (gotos on and off), the original and the transformed program
//     produce identical output AND identical final global values.
//
//  2. Caching is observation-preserving: a session served from a warm
//     RuntimeContext localizes the same buggy unit, with a byte-identical
//     summary, as a cold one.
//
//  3. Assertions and T-GEN clauses mean what programs mean: a seeded closed
//     expression, printed and parsed back as an assertion, evaluates under
//     tgen::evalClosedExpr to what the VM prints for it, and is undefined
//     exactly where the VM stops with a runtime error.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "pascal/Frontend.h"
#include "runtime/BatchRunner.h"
#include "tgen/ConstEval.h"
#include "tgen/SpecParser.h"
#include "transform/Transform.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>

using namespace gadt;
using namespace gadt::interp;
using namespace gadt::pascal;
using namespace gadt::runtime;
using namespace gadt::workload;

namespace {

std::unique_ptr<Program> compile(const std::string &Src) {
  DiagnosticsEngine Diags;
  auto Prog = parseAndCheck(Src, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

SyntheticOptions optionsForSeed(uint32_t Seed) {
  SyntheticOptions Opts;
  Opts.Seed = Seed * 17 + 5;
  Opts.NumRoutines = 4 + Seed % 4;
  Opts.NumGlobals = 2 + Seed % 3;
  Opts.StmtsPerRoutine = 4 + Seed % 3;
  Opts.UseGotos = (Seed % 2) == 0; // alternate transform stress on/off
  return Opts;
}

/// Runs \p P and asserts success.
ExecResult mustRun(const Program &P) {
  Interpreter I(P);
  ExecResult R = I.run();
  EXPECT_TRUE(R.Ok) << R.Error.Message;
  return R;
}

/// Every global of the original program must hold the same final value in
/// the transformed run. (The transformation may introduce fresh bookkeeping
/// variables — exit flags for structured goto elimination — so the check is
/// over the original's names, not set equality.)
void expectSameObservableState(const ExecResult &Orig,
                               const ExecResult &Xformed,
                               const std::string &Tag) {
  EXPECT_EQ(Orig.Output, Xformed.Output) << Tag;
  for (const Binding &B : Orig.FinalGlobals) {
    bool Seen = false;
    for (const Binding &X : Xformed.FinalGlobals) {
      if (X.Name != B.Name)
        continue;
      Seen = true;
      EXPECT_TRUE(B.V.equals(X.V))
          << Tag << ": global '" << B.Name << "' diverged: original "
          << B.V.str() << " vs transformed " << X.V.str();
      break;
    }
    EXPECT_TRUE(Seen) << Tag << ": global '" << B.Name
                      << "' lost by the transformation";
  }
}

class DifferentialSweep : public ::testing::TestWithParam<uint32_t> {};

//===----------------------------------------------------------------------===//
// Original vs transformed
//===----------------------------------------------------------------------===//

TEST_P(DifferentialSweep, TransformPreservesFinalGlobals) {
  ProgramPair Pair = randomProgram(optionsForSeed(GetParam()));
  for (const std::string *Src : {&Pair.Fixed, &Pair.Buggy}) {
    const char *Tag = (Src == &Pair.Fixed) ? "fixed" : "buggy";
    auto Prog = compile(*Src);
    ASSERT_TRUE(Prog);

    DiagnosticsEngine Diags;
    transform::TransformResult T = transform::transformProgram(*Prog, Diags);
    ASSERT_TRUE(T.Transformed) << Diags.str();

    ExecResult Orig = mustRun(*Prog);
    ExecResult Xformed = mustRun(*T.Transformed);
    expectSameObservableState(Orig, Xformed, Tag);
  }
}

//===----------------------------------------------------------------------===//
// Cold vs warm cache
//===----------------------------------------------------------------------===//

TEST_P(DifferentialSweep, ColdAndWarmCacheLocalizeTheSameUnit) {
  ProgramPair Pair = randomProgram(optionsForSeed(GetParam()));

  // Mirror PropertyTest: the planted bug only matters on seeds where it
  // actually changes the observable output.
  auto Buggy = compile(Pair.Buggy);
  auto Fixed = compile(Pair.Fixed);
  ASSERT_TRUE(Buggy && Fixed);
  if (mustRun(*Buggy).Output == mustRun(*Fixed).Output)
    GTEST_SKIP() << "bug does not manifest for this seed";

  SessionRequest Req;
  Req.Source = Pair.Buggy;
  Req.Intended = Pair.Fixed;

  RuntimeContext Ctx;
  SessionResult Cold = runSession(Ctx, Req);
  ASSERT_TRUE(Cold.Found) << Cold.Message;
  EXPECT_EQ(Cold.UnitName, Pair.BuggyRoutine);

  // Same context: everything is served from the caches.
  uint64_t MissesBefore = Ctx.stats().TransformMisses +
                          Ctx.stats().SdgMisses + Ctx.stats().SliceMisses;
  SessionResult Warm = runSession(Ctx, Req);
  uint64_t MissesAfter = Ctx.stats().TransformMisses +
                         Ctx.stats().SdgMisses + Ctx.stats().SliceMisses;
  EXPECT_EQ(Warm.summary(), Cold.summary());
  EXPECT_EQ(MissesAfter, MissesBefore) << "warm session rebuilt an artifact";

  // A different context (cold again) must agree too — the caches hold no
  // session-observable state.
  RuntimeContext Ctx2;
  EXPECT_EQ(runSession(Ctx2, Req).summary(), Cold.summary());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSweep, ::testing::Range(1u, 17u));

//===----------------------------------------------------------------------===//
// T-GEN's closed evaluator vs the VM
//===----------------------------------------------------------------------===//

/// Builds seeded, well-typed, closed integer and boolean expressions. The
/// leaves include both ends of int64, and `div` and `mod` often get a
/// divisor of 0 or -1.
class ClosedExprGen {
public:
  explicit ClosedExprGen(uint64_t Seed) : Rng(Seed) {}

  ExprPtr integer(unsigned Depth) {
    if (Depth == 0)
      return intLeaf();
    switch (pick(7)) {
    case 0:
      return intLeaf();
    case 1:
      return neg(integer(Depth - 1));
    case 2:
      return bin(BinaryOp::Add, integer(Depth - 1), integer(Depth - 1));
    case 3:
      return bin(BinaryOp::Sub, integer(Depth - 1), integer(Depth - 1));
    case 4:
      return bin(BinaryOp::Mul, integer(Depth - 1), integer(Depth - 1));
    default: {
      ExprPtr LHS = integer(Depth - 1);
      ExprPtr Divisor = pick(2) ? lit(pick(2) ? 0 : -1) : integer(Depth - 1);
      return bin(pick(2) ? BinaryOp::Div : BinaryOp::Mod, std::move(LHS),
                 std::move(Divisor));
    }
    }
  }

  ExprPtr boolean(unsigned Depth) {
    if (Depth == 0)
      return std::make_unique<BoolLiteralExpr>(SourceLoc(), pick(2) == 0);
    switch (pick(5)) {
    case 0:
      return std::make_unique<UnaryExpr>(SourceLoc(), UnaryOp::Not,
                                         boolean(Depth - 1));
    case 1:
      return bin(pick(2) ? BinaryOp::And : BinaryOp::Or, boolean(Depth - 1),
                 boolean(Depth - 1));
    case 2:
      return bin(pick(2) ? BinaryOp::Eq : BinaryOp::Ne, boolean(Depth - 1),
                 boolean(Depth - 1));
    default: {
      static constexpr BinaryOp Relations[] = {BinaryOp::Eq, BinaryOp::Ne,
                                               BinaryOp::Lt, BinaryOp::Le,
                                               BinaryOp::Gt, BinaryOp::Ge};
      return bin(Relations[pick(std::size(Relations))], integer(Depth - 1),
                 integer(Depth - 1));
    }
    }
  }

private:
  unsigned pick(size_t N) {
    return std::uniform_int_distribution<unsigned>(0, N - 1)(Rng);
  }

  static ExprPtr neg(ExprPtr E) {
    return std::make_unique<UnaryExpr>(SourceLoc(), UnaryOp::Neg,
                                       std::move(E));
  }
  static ExprPtr bin(BinaryOp Op, ExprPtr L, ExprPtr R) {
    return std::make_unique<BinaryExpr>(SourceLoc(), Op, std::move(L),
                                        std::move(R));
  }
  /// \p V as the parser builds it: a negative value is a negated literal,
  /// and INT64_MIN, whose magnitude no literal holds, is -INT64_MAX - 1.
  static ExprPtr lit(int64_t V) {
    if (V == INT64_MIN)
      return bin(BinaryOp::Sub, lit(-INT64_MAX), lit(1));
    if (V < 0)
      return neg(lit(-V));
    return std::make_unique<IntLiteralExpr>(SourceLoc(), V);
  }

  ExprPtr intLeaf() {
    static constexpr int64_t Pool[] = {
        0,         1,         -1,        2,         7,
        -13,       100,       3037000500, INT64_MAX, INT64_MAX - 1,
        INT64_MIN, INT64_MIN + 1};
    if (pick(4) == 0)
      return lit(static_cast<int64_t>(Rng()));
    return lit(Pool[pick(std::size(Pool))]);
  }

  std::mt19937_64 Rng;
};

TEST(ClosedExprDifferential, TGenEvaluatorAgreesWithTheVM) {
  unsigned Values = 0, Errors = 0;
  for (uint64_t Seed = 1; Seed <= 2000; ++Seed) {
    ClosedExprGen Gen(Seed);
    bool IsInt = Seed % 2 == 0;
    unsigned Depth = 1 + Seed % 5;
    std::string Text = (IsInt ? Gen.integer(Depth) : Gen.boolean(Depth))->str();
    SCOPED_TRACE(Text);

    DiagnosticsEngine Diags;
    ExprPtr Assertion = tgen::parseClassifierExpr(Text, Diags);
    ASSERT_NE(Assertion, nullptr) << Diags.str();
    EXPECT_EQ(Assertion->str(), Text);
    std::optional<Value> Ref = tgen::evalClosedExpr(Assertion.get(), {});

    auto Prog = compile(std::string("program p; var r: ") +
                        (IsInt ? "integer" : "boolean") +
                        ";\nbegin r := " + Text + "; writeln(r) end.");
    ASSERT_TRUE(Prog);
    Interpreter I(*Prog);
    ExecResult R = I.run();
    if (!R.Ok) {
      ++Errors;
      EXPECT_FALSE(Ref) << "the VM stopped: " << R.Error.Message;
      continue;
    }
    ++Values;
    ASSERT_TRUE(Ref) << "the VM printed " << R.Output;
    EXPECT_EQ(R.Output, Ref->str() + "\n");
  }
  // Both outcomes are exercised.
  EXPECT_GT(Values, 1000u);
  EXPECT_GT(Errors, 300u);
}

} // namespace
