//===- SupportTest.cpp - Support library and value-model unit tests -------===//

#include "interp/DepSet.h"
#include "interp/Value.h"
#include "pascal/Frontend.h"
#include "pascal/PrettyPrinter.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/OnceCache.h"
#include "support/Parallel.h"
#include "support/SourceLoc.h"
#include "support/StringUtils.h"
#include "transform/Transform.h"
#include "workload/PaperPrograms.h"
#include "workload/Payroll.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace gadt;

namespace {

//===----------------------------------------------------------------------===//
// SourceLoc / SourceRange
//===----------------------------------------------------------------------===//

TEST(SourceLocTest, ValidityAndRendering) {
  SourceLoc Invalid;
  EXPECT_FALSE(Invalid.isValid());
  EXPECT_EQ(Invalid.str(), "<unknown>");
  SourceLoc L(3, 14);
  EXPECT_TRUE(L.isValid());
  EXPECT_EQ(L.str(), "3:14");
}

TEST(SourceLocTest, Ordering) {
  EXPECT_LT(SourceLoc(1, 9), SourceLoc(2, 1));
  EXPECT_LT(SourceLoc(2, 1), SourceLoc(2, 5));
  EXPECT_EQ(SourceLoc(2, 5), SourceLoc(2, 5));
  EXPECT_NE(SourceLoc(2, 5), SourceLoc(2, 6));
}

TEST(SourceRangeTest, Rendering) {
  SourceRange R(SourceLoc(1, 2), SourceLoc(1, 8));
  EXPECT_EQ(R.str(), "1:2-1:8");
  EXPECT_EQ(SourceRange().str(), "<unknown>");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, CountsOnlyErrors) {
  DiagnosticsEngine D;
  D.note(SourceLoc(1, 1), "fyi");
  D.warning(SourceLoc(2, 1), "hmm");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(3, 1), "boom");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.diagnostics().size(), 3u);
}

TEST(DiagnosticsTest, RendersCompilerStyle) {
  DiagnosticsEngine D;
  D.error(SourceLoc(7, 3), "unexpected thing");
  EXPECT_EQ(D.str(), "7:3: error: unexpected thing\n");
  D.clear();
  EXPECT_TRUE(D.empty());
  EXPECT_FALSE(D.hasErrors());
}

TEST(DiagnosticsTest, InvalidLocationOmitsPrefix) {
  DiagnosticsEngine D;
  D.error(SourceLoc(), "global problem");
  EXPECT_EQ(D.str(), "error: global problem\n");
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, ToLower) {
  EXPECT_EQ(toLower("MiXeD_09"), "mixed_09");
  EXPECT_EQ(toLower(""), "");
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"solo"}, "+"), "solo");
}

TEST(StringUtilsTest, SplitLines) {
  auto Lines = splitLines("a\nb\n\nc");
  ASSERT_EQ(Lines.size(), 4u);
  EXPECT_EQ(Lines[2], "");
  EXPECT_EQ(splitLines("x\n").size(), 1u) << "trailing newline adds no line";
  EXPECT_TRUE(splitLines("").empty());
}

TEST(StringUtilsTest, CountCodeLines) {
  EXPECT_EQ(countCodeLines("a\n \n\t\nb\n"), 2u);
  EXPECT_EQ(countCodeLines(""), 0u);
  EXPECT_TRUE(isBlank("  \t "));
  EXPECT_FALSE(isBlank(" x "));
}

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

TEST(CastingTest, IsaCastDynCast) {
  using namespace gadt::pascal;
  IntLiteralExpr Int(SourceLoc(1, 1), 42);
  Expr *E = &Int;
  EXPECT_TRUE(isa<IntLiteralExpr>(E));
  EXPECT_FALSE(isa<BoolLiteralExpr>(E));
  EXPECT_EQ(cast<IntLiteralExpr>(E)->getValue(), 42);
  EXPECT_EQ(dyn_cast<BoolLiteralExpr>(E), nullptr);
  EXPECT_NE(dyn_cast<IntLiteralExpr>(E), nullptr);
  Expr *Null = nullptr;
  EXPECT_EQ(dyn_cast_or_null<IntLiteralExpr>(Null), nullptr);
}

//===----------------------------------------------------------------------===//
// DepSet
//===----------------------------------------------------------------------===//

TEST(DepSetTest, InsertKeepsSortedUnique) {
  interp::DepSet S;
  S.insert(5);
  S.insert(1);
  S.insert(5);
  S.insert(3);
  EXPECT_EQ(S.ids(), (std::vector<uint32_t>{1, 3, 5}));
  EXPECT_TRUE(S.contains(3));
  EXPECT_FALSE(S.contains(4));
}

TEST(DepSetTest, MergeIsUnion) {
  interp::DepSet A, B;
  A.insert(1);
  A.insert(4);
  B.insert(2);
  B.insert(4);
  A.mergeWith(B);
  EXPECT_EQ(A.ids(), (std::vector<uint32_t>{1, 2, 4}));
  interp::DepSet Empty;
  A.mergeWith(Empty);
  EXPECT_EQ(A.size(), 3u);
  Empty.mergeWith(A);
  EXPECT_EQ(Empty.size(), 3u);
}

TEST(DepSetTest, MergeSelf) {
  interp::DepSet S;
  for (uint32_t Id : {3u, 1u, 7u})
    S.insert(Id);
  S.mergeWith(S);
  EXPECT_EQ(S.ids(), (std::vector<uint32_t>{1, 3, 7}));
  // Self-merge on a heap-backed set (> inline capacity) as well.
  for (uint32_t Id : {9u, 11u, 13u, 15u})
    S.insert(Id);
  S.mergeWith(S);
  EXPECT_EQ(S.ids(), (std::vector<uint32_t>{1, 3, 7, 9, 11, 13, 15}));
}

TEST(DepSetTest, MergeDisjoint) {
  interp::DepSet A, B;
  for (uint32_t Id : {1u, 3u, 5u})
    A.insert(Id);
  for (uint32_t Id : {2u, 4u, 6u})
    B.insert(Id);
  A.mergeWith(B);
  EXPECT_EQ(A.ids(), (std::vector<uint32_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(B.ids(), (std::vector<uint32_t>{2, 4, 6})); // argument untouched
}

TEST(DepSetTest, MergeFullyOverlapping) {
  interp::DepSet A, B;
  for (uint32_t Id : {2u, 4u, 8u})
    A.insert(Id);
  for (uint32_t Id : {2u, 4u, 8u})
    B.insert(Id);
  A.mergeWith(B);
  EXPECT_EQ(A.ids(), (std::vector<uint32_t>{2, 4, 8}));
  // Strict subset in either direction is also a no-copy path.
  interp::DepSet Sub;
  Sub.insert(4);
  A.mergeWith(Sub);
  EXPECT_EQ(A.ids(), (std::vector<uint32_t>{2, 4, 8}));
  Sub.mergeWith(A);
  EXPECT_EQ(Sub.ids(), (std::vector<uint32_t>{2, 4, 8}));
}

TEST(DepSetTest, SpillsInlineToHeapAndBack) {
  // Two runs fit inline. Cross that boundary via insert and via merge, and
  // come back; contains, ids order and equality must be
  // representation-independent. Ids are non-adjacent, so each is a run.
  interp::DepSet S;
  for (uint32_t Id = 1; Id <= 12; ++Id)
    S.insert(2 * (13 - Id)); // 24, 22, ..., 2: twelve runs
  EXPECT_EQ(S.size(), 12u);
  for (uint32_t Id = 1; Id <= 12; ++Id) {
    EXPECT_TRUE(S.contains(2 * Id));
    EXPECT_FALSE(S.contains(2 * Id - 1));
  }
  EXPECT_FALSE(S.contains(26));

  interp::DepSet A, B;
  for (uint32_t Id : {1u, 3u})
    A.insert(Id);
  for (uint32_t Id : {10u, 20u})
    B.insert(Id);
  A.mergeWith(B); // two inline runs each, four merged
  EXPECT_EQ(A.ids(), (std::vector<uint32_t>{1, 3, 10, 20}));

  interp::DepSet C = A; // shared heap handle
  EXPECT_TRUE(C == A);
  C.insert(5); // copy-on-write: A must not see the 5
  EXPECT_TRUE(C.contains(5));
  EXPECT_FALSE(A.contains(5));
  interp::DepSet EmptyAdopts;
  EmptyAdopts.mergeWith(A);
  EXPECT_TRUE(EmptyAdopts == A);

  // Filling the gaps coalesces C's five runs back into one inline run.
  interp::DepSet Gaps;
  for (uint32_t Id = 1; Id <= 20; ++Id)
    if (!C.contains(Id))
      Gaps.insert(Id);
  C.mergeWith(Gaps);
  EXPECT_EQ(C.size(), 20u);
  unsigned Runs = 0;
  C.forEachRun([&](uint32_t Lo, uint32_t Hi) {
    EXPECT_EQ(Lo, 1u);
    EXPECT_EQ(Hi, 20u);
    ++Runs;
  });
  EXPECT_EQ(Runs, 1u);
  EXPECT_EQ(A.ids(), (std::vector<uint32_t>{1, 3, 10, 20}));
}

/// Differential harness: a pool of DepSets, each shadowed by a std::set
/// reference. Every step is applied to both; check() compares everything
/// observable — ids, size, the coalesced runs, membership probes and
/// pairwise equality — for the whole pool, so a mutation that leaks into a
/// copy shows up on the copy.
class DepSetDifferential {
public:
  explicit DepSetDifferential(size_t N) : Sets(N), Refs(N) {}

  void insert(size_t I, uint32_t Id) {
    Sets[I].insert(Id);
    Refs[I].insert(Id);
    check("insert " + std::to_string(Id) + " into " + std::to_string(I));
  }
  void merge(size_t I, size_t J) {
    Sets[I].mergeWith(Sets[J]);
    Refs[I].insert(Refs[J].begin(), Refs[J].end());
    check("merge " + std::to_string(J) + " into " + std::to_string(I));
  }
  void copy(size_t I, size_t J) {
    Sets[I] = Sets[J];
    Refs[I] = Refs[J];
    check("copy " + std::to_string(J) + " to " + std::to_string(I));
  }
  void clear(size_t I) {
    Sets[I].clear();
    Refs[I].clear();
    check("clear " + std::to_string(I));
  }
  size_t runs(size_t I) const { return runsOf(Sets[I]).size(); }

private:
  using Runs = std::vector<std::pair<uint32_t, uint32_t>>;

  static Runs runsOf(const interp::DepSet &S) {
    Runs Out;
    S.forEachRun([&](uint32_t Lo, uint32_t Hi) { Out.push_back({Lo, Hi}); });
    return Out;
  }
  static Runs runsOf(const std::set<uint32_t> &Ref) {
    Runs Out;
    for (uint32_t Id : Ref)
      if (!Out.empty() && uint64_t(Out.back().second) + 1 == Id)
        Out.back().second = Id;
      else
        Out.push_back({Id, Id});
    return Out;
  }

  void check(const std::string &Step) {
    for (size_t I = 0; I != Sets.size(); ++I) {
      const interp::DepSet &S = Sets[I];
      const std::set<uint32_t> &Ref = Refs[I];
      SCOPED_TRACE("after " + Step + ", set " + std::to_string(I));
      ASSERT_EQ(S.ids(), std::vector<uint32_t>(Ref.begin(), Ref.end()));
      ASSERT_EQ(S.size(), Ref.size());
      ASSERT_EQ(S.empty(), Ref.empty());
      ASSERT_EQ(runsOf(S), runsOf(Ref)) << "runs must be coalesced";
      std::vector<uint32_t> Probes = {0, 1, UINT32_MAX - 1, UINT32_MAX};
      for (uint32_t Id : Ref) {
        Probes.push_back(Id - 1); // wraps at 0: probes UINT32_MAX
        Probes.push_back(Id);
        Probes.push_back(Id + 1);
      }
      for (uint32_t Id : Probes)
        ASSERT_EQ(S.contains(Id), Ref.count(Id) != 0) << "probe " << Id;
      for (size_t J = 0; J != Sets.size(); ++J)
        ASSERT_EQ(S == Sets[J], Ref == Refs[J]) << "against set " << J;
    }
  }

  std::vector<interp::DepSet> Sets;
  std::vector<std::set<uint32_t>> Refs;
};

TEST(DepSetTest, DifferentialScriptedEdgeCases) {
  DepSetDifferential D(4);
  // x and x+1 in either order coalesce into one run.
  D.insert(0, 7);
  D.insert(0, 8);
  D.insert(1, 11);
  D.insert(1, 10);
  EXPECT_EQ(D.runs(0), 1u);
  EXPECT_EQ(D.runs(1), 1u);
  D.insert(0, 9); // extends [7, 8] to [7, 9]
  D.merge(0, 1);  // [7, 9] + [10, 11] touch: [7, 11]
  EXPECT_EQ(D.runs(0), 1u);

  // Runs touching 0 and UINT32_MAX; Hi + 1 must not wrap.
  D.clear(2);
  D.insert(2, UINT32_MAX);
  D.insert(2, 0);
  D.insert(2, UINT32_MAX - 1);
  D.insert(2, 1);
  EXPECT_EQ(D.runs(2), 2u);
  D.merge(2, 0); // [0, 1] [7, 11] [max-1, max]
  D.insert(3, UINT32_MAX - 2);
  D.merge(2, 3); // extends the top run downwards
  EXPECT_EQ(D.runs(2), 3u);
  D.insert(2, UINT32_MAX); // already there: no run after the top one
  D.merge(3, 2);

  // Alternating ids maximize the run count; more runs than the merge's
  // stack buffer holds go through its scratch vector.
  D.clear(0);
  D.clear(1);
  for (uint32_t Id = 0; Id <= 80; Id += 2)
    D.insert(0, Id);
  for (uint32_t Id = 101; Id <= 181; Id += 2)
    D.insert(1, Id);
  EXPECT_EQ(D.runs(0), 41u);
  D.merge(0, 1);
  EXPECT_EQ(D.runs(0), 82u);
  // The odd ids in between coalesce the first 41 runs into one.
  D.clear(1);
  for (uint32_t Id = 1; Id < 80; Id += 2)
    D.insert(1, Id);
  D.merge(0, 1);
  EXPECT_EQ(D.runs(0), 42u);

  // Crossing the two-run inline boundary in both directions.
  D.clear(3);
  D.insert(3, 10);
  D.insert(3, 20);
  D.insert(3, 30); // three runs: heap
  EXPECT_EQ(D.runs(3), 3u);
  D.insert(3, 31);
  D.insert(3, 29); // [10] [20] [29, 31]
  for (uint32_t Id = 11; Id < 20; ++Id)
    D.insert(3, Id); // [10, 20] [29, 31]: back inline
  EXPECT_EQ(D.runs(3), 2u);
  D.insert(3, 25); // three again
  EXPECT_EQ(D.runs(3), 3u);

  // Copy, then mutate either side: the other must not change.
  D.copy(1, 0); // shared heap storage
  D.insert(1, 1000);
  D.merge(0, 3);
  D.copy(2, 3);
  D.insert(3, 21); // [10, 21] [25] [29, 31]
  D.clear(2);

  // Subset and superset merges in both directions.
  D.copy(2, 0);
  D.insert(2, 5000); // 2 is a proper superset of 0
  D.merge(2, 0);     // subset into superset: unchanged
  D.merge(0, 2);     // superset into subset: takes 2's storage
  D.insert(0, 6000); // and copy-on-write keeps 2 intact
  D.merge(3, 3);     // self-merge
  D.merge(1, 1);
  D.clear(1);
  D.merge(1, 3); // empty adopts
  D.merge(1, 1);
}

TEST(DepSetTest, DifferentialRandomSteps) {
  constexpr size_t Pool = 5;
  DepSetDifferential D(Pool);
  std::mt19937 Gen(42);
  auto Below = [&Gen](uint32_t N) { return static_cast<uint32_t>(Gen() % N); };
  for (unsigned Step = 0; Step != 4000; ++Step) {
    size_t I = Below(Pool), J = Below(Pool);
    switch (Below(20)) {
    case 0:
      D.clear(I);
      break;
    case 1:
    case 2:
      D.copy(I, J);
      break;
    case 3:
    case 4:
    case 5:
    case 6:
    case 7:
      D.merge(I, J); // I == J is a self-merge
      break;
    default: {
      uint32_t Id;
      switch (Below(5)) {
      case 0:
        Id = Below(48); // dense: neighbours coalesce
        break;
      case 1:
        Id = 2 * Below(40); // alternating: many runs
        break;
      case 2:
        Id = Below(6); // touching 0
        break;
      case 3:
        Id = UINT32_MAX - Below(6); // touching UINT32_MAX
        break;
      default:
        Id = static_cast<uint32_t>(Gen());
        break;
      }
      D.insert(I, Id);
      break;
    }
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

TEST(ValueTest, KindsAndEquality) {
  using interp::Value;
  EXPECT_TRUE(Value().isUnset());
  EXPECT_TRUE(Value::makeInt(3).equals(Value::makeInt(3)));
  EXPECT_FALSE(Value::makeInt(3).equals(Value::makeInt(4)));
  EXPECT_FALSE(Value::makeInt(1).equals(Value::makeBool(true)));
  interp::ArrayVal A;
  A.Lo = 1;
  A.Hi = 2;
  A.Elems = {1, 2};
  interp::ArrayVal B = A;
  EXPECT_TRUE(Value::makeArray(A).equals(Value::makeArray(B)));
  B.Elems[1] = 9;
  EXPECT_FALSE(Value::makeArray(A).equals(Value::makeArray(B)));
}

TEST(ValueTest, Rendering) {
  using interp::Value;
  EXPECT_EQ(Value().str(), "<unset>");
  EXPECT_EQ(Value::makeInt(-7).str(), "-7");
  EXPECT_EQ(Value::makeBool(true).str(), "true");
  EXPECT_EQ(Value::makeStr("hi").str(), "'hi'");
  interp::ArrayVal A;
  A.Lo = 1;
  A.Hi = 3;
  A.Elems = {1, 2, 3};
  EXPECT_EQ(Value::makeArray(A).str(), "[1, 2, 3]");
}

TEST(ValueTest, ArrayHelpers) {
  interp::ArrayVal A;
  A.Lo = -1;
  A.Hi = 1;
  A.Elems = {10, 20, 30};
  EXPECT_EQ(A.size(), 3);
  EXPECT_TRUE(A.inBounds(-1));
  EXPECT_TRUE(A.inBounds(1));
  EXPECT_FALSE(A.inBounds(2));
  EXPECT_EQ(A.at(0), 20);
  A.at(-1) = 99;
  EXPECT_EQ(A.Elems[0], 99);
}

static_assert(sizeof(interp::Value) == 16,
              "a Value is a kind tag plus one 64-bit word");

TEST(ValueTest, CopiesShareArrayPayloadUntilOneIsWritten) {
  using interp::Value;
  interp::ArrayVal A;
  A.Lo = 1;
  A.Hi = 3;
  A.Elems = {1, 2, 3};
  Value V = Value::makeArray(A);
  Value Copy = V;
  EXPECT_EQ(&V.asArray(), &Copy.asArray()) << "a copy shares the payload";
  Copy.arrayForWrite().at(2) = 9;
  EXPECT_NE(&V.asArray(), &Copy.asArray()) << "a shared payload is copied";
  EXPECT_EQ(V.str(), "[1, 2, 3]");
  EXPECT_EQ(Copy.str(), "[1, 9, 3]");
  // The sole holder writes in place.
  const interp::ArrayVal *Before = &Copy.asArray();
  Copy.arrayForWrite().at(3) = 7;
  EXPECT_EQ(&Copy.asArray(), Before);
  EXPECT_EQ(Copy.str(), "[1, 9, 7]");
  // Moving leaves the source unset and the payload with the target.
  Value Moved = std::move(Copy);
  EXPECT_TRUE(Copy.isUnset());
  EXPECT_EQ(&Moved.asArray(), Before);
  EXPECT_TRUE(Value::makeStr("s").equals(Value::makeStr("s")));
}

TEST(ValueTest, SharedPayloadsCopyAcrossThreads) {
  // Compiled constants and report databases share payloads between
  // batch threads: copies and releases race on the refcount only.
  using interp::Value;
  const Value Str = Value::makeStr("shared");
  interp::ArrayVal A;
  A.Hi = 2;
  A.Elems = {4, 5};
  const Value Arr = Value::makeArray(A);
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != 20000; ++I) {
        Value S = Str, V = Arr;
        V.arrayForWrite().at(1) = I; // private copy: Arr is shared
        ASSERT_EQ(S.asStr(), "shared");
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Arr.str(), "[4, 5]");
}

//===----------------------------------------------------------------------===//
// Pretty-printer round trips
//===----------------------------------------------------------------------===//

/// Parses the print of \p P back and expects it to print identically.
void expectPrintRoundTrips(const pascal::Program &P) {
  std::string Printed = pascal::printProgram(P);
  DiagnosticsEngine D;
  auto Reparsed = pascal::parseAndCheck(Printed, D);
  ASSERT_TRUE(Reparsed) << D.str() << "\n" << Printed;
  EXPECT_EQ(pascal::printProgram(*Reparsed), Printed) << "fixed point";
}

TEST(PrettyPrinterTest, AllPaperProgramsRoundTrip) {
  std::vector<std::string> Sources = {
      workload::Figure4Buggy,       workload::Figure2,
      workload::Section6Globals,    workload::Section6GlobalGoto,
      workload::Section6LoopGoto,   workload::ArrsumProgram,
      workload::PayrollCorrect,     workload::PayrollTaxBug,
      workload::PayrollOvertimeBug};
  // Relations under `and`/`or` and right-nested operands: the printer
  // must parenthesize by the parser's levels (relations lowest, `or` with
  // `+`, `and` with `*`), not by C's.
  for (const char *Expr :
       {"(x > 0) and (y > 0)", "(a < b) or c", "not (p and q)",
        "(a < b) = (x >= d)", "p or q and (a <> b)"})
    Sources.push_back(
        std::string("program e; var a, b, d, x, y: integer; "
                    "c, p, q, r: boolean; begin r := ") +
        Expr + "; writeln(r) end.");
  for (const char *Expr : {"a - (b - c)", "a div (b * c) mod d",
                           "-a * b", "(-a) * b", "a * -b - -c", "k * a - k"})
    Sources.push_back(
        std::string("program e; const k = -5; var a, b, c, d, r: integer; "
                    "begin r := ") +
        Expr + "; writeln(r) end.");
  for (const std::string &Src : Sources) {
    DiagnosticsEngine D;
    auto P = pascal::parseAndCheck(Src, D);
    ASSERT_TRUE(P) << D.str() << "\n" << Src;
    expectPrintRoundTrips(*P);
  }
  // The Section 6 programs after the transformation phase, which adds
  // `(B) and not leave` loop conditions.
  for (const char *Src : {workload::Section6Globals,
                          workload::Section6GlobalGoto,
                          workload::Section6LoopGoto}) {
    DiagnosticsEngine D;
    auto P = pascal::parseAndCheck(Src, D);
    ASSERT_TRUE(P) << D.str();
    transform::TransformResult X = transform::transformProgram(*P, D);
    ASSERT_TRUE(X.Transformed) << D.str();
    expectPrintRoundTrips(*X.Transformed);
  }
}

TEST(PrettyPrinterTest, StatementRendering) {
  DiagnosticsEngine D;
  auto P = pascal::parseAndCheck(
      "program p; label 9; var x: integer;"
      "begin repeat x := x + 1; until x > 3; goto 9; 9: writeln(x); end.",
      D);
  ASSERT_TRUE(P);
  const auto &Body = P->getMain()->getBody()->getBody();
  EXPECT_EQ(pascal::printStmt(*Body[0]),
            "repeat\n  x := x + 1;\nuntil x > 3;\n");
  EXPECT_EQ(pascal::printStmt(*Body[1]), "goto 9;\n");
}

//===----------------------------------------------------------------------===//
// OnceCache exception safety
//===----------------------------------------------------------------------===//

TEST(OnceCacheTest, ThrowingBuilderDoesNotPoisonTheSlot) {
  OnceCache<int, int> Cache;
  EXPECT_THROW(
      Cache.getOrBuild(
          1, []() -> std::shared_ptr<const int> {
            throw std::runtime_error("builder failed");
          }),
      std::runtime_error);
  // The failed slot was removed, not published: the next request rebuilds
  // and succeeds.
  EXPECT_EQ(Cache.size(), 0u);
  auto V = Cache.getOrBuild(1, [] { return std::make_shared<const int>(42); });
  ASSERT_TRUE(V);
  EXPECT_EQ(*V, 42);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(OnceCacheTest, ConcurrentWaitersSurviveAThrowingBuilder) {
  OnceCache<int, int> Cache;
  // The first builder to run throws; every waiter must wake, retry, and
  // share the value built by whichever thread wins the retry.
  std::atomic<int> Builds{0};
  std::atomic<int> Throws{0};
  auto Build = [&]() -> std::shared_ptr<const int> {
    if (Builds.fetch_add(1) == 0)
      throw std::runtime_error("first build fails");
    return std::make_shared<const int>(7);
  };
  constexpr int kThreads = 8;
  std::vector<std::thread> Ts;
  std::vector<int> Got(kThreads, 0);
  for (int I = 0; I != kThreads; ++I)
    Ts.emplace_back([&, I] {
      for (;;) {
        try {
          auto V = Cache.getOrBuild(5, Build);
          ASSERT_TRUE(V);
          Got[I] = *V;
          return;
        } catch (const std::runtime_error &) {
          ++Throws; // this thread ran the failing build; retry
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();
  for (int I = 0; I != kThreads; ++I)
    EXPECT_EQ(Got[I], 7);
  EXPECT_EQ(Throws.load(), 1);
  EXPECT_EQ(Cache.size(), 1u);
  auto V = Cache.peek(5);
  ASSERT_TRUE(V);
  EXPECT_EQ(*V, 7);
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(ParallelForTest, NestedCallsRunInlineOnTheOuterItemsThread) {
  constexpr size_t Outer = 8, Inner = 16;
  std::vector<std::thread::id> OuterThread(Outer);
  std::vector<std::thread::id> InnerThread(Outer * Inner);
  support::parallelFor(4, Outer, [&](size_t I) {
    OuterThread[I] = std::this_thread::get_id();
    support::parallelFor(4, Inner, [&](size_t J) {
      InnerThread[I * Inner + J] = std::this_thread::get_id();
    });
  });
  for (size_t I = 0; I != Outer; ++I)
    for (size_t J = 0; J != Inner; ++J)
      EXPECT_EQ(InnerThread[I * Inner + J], OuterThread[I])
          << "outer item " << I << ", inner item " << J;

  // The outer fan-out is over, so a top-level call fans out again: each of
  // four items waits until all four have started, which only four threads
  // running at once can satisfy.
  std::atomic<unsigned> Arrived{0};
  std::atomic<bool> TimedOut{false};
  support::parallelFor(4, 4, [&](size_t) {
    Arrived.fetch_add(1);
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (Arrived.load() < 4) {
      if (std::chrono::steady_clock::now() > Deadline) {
        TimedOut = true;
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(TimedOut.load()) << Arrived.load() << " of 4 items ran at once";
}

} // namespace
