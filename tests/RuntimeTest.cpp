//===- RuntimeTest.cpp - Batch runtime & shared-cache concurrency tests ---===//
//
// The hardening layer for the parallel batch-debugging runtime:
//  - N sessions across 8 threads produce byte-identical results to serial
//    execution (same context wiring, same dialogue, same bug);
//  - an exception a session throws reaches runBatch's caller;
//  - cache hit/miss counters are exact (build-once semantics);
//  - results are deterministic across repeated runs with the same seed;
//  - sessions built from shared artifacts behave identically to sessions
//    that build everything themselves.
//
//===----------------------------------------------------------------------===//

#include "runtime/BatchRunner.h"

#include "TwoHelpers.h"

#include "core/ReferenceOracle.h"
#include "pascal/Frontend.h"
#include "slicing/StaticSlicer.h"
#include "support/Hashing.h"
#include "workload/PaperPrograms.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <cctype>
#include <stdexcept>

using namespace gadt;
using namespace gadt::core;
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

/// A mixed, seed-determined workload: chains, a call tree, random programs
/// and the paper's Figure 4 — every request pairs a buggy subject with its
/// intended program. The last two pairs slice dynamically, so their
/// sessions trace with dependence tracking.
std::vector<SessionRequest> makeWorkload(unsigned N) {
  std::vector<ProgramPair> Pairs;
  for (unsigned K = 1; K <= 3; ++K)
    Pairs.push_back(chainProgram(6, K * 2));
  Pairs.push_back(treeProgram(3));
  for (uint32_t Seed : {3u, 8u}) {
    SyntheticOptions Opts;
    Opts.Seed = Seed;
    Opts.NumRoutines = 5;
    Pairs.push_back(randomProgram(Opts));
  }
  Pairs.push_back({Figure4Fixed, Figure4Buggy, "decrement"});
  size_t FirstDynamic = Pairs.size();
  Pairs.push_back(summaryMeshProgram(3, 3));
  {
    SyntheticOptions Opts;
    Opts.Seed = 5;
    Opts.NumRoutines = 6;
    Pairs.push_back(randomProgram(Opts));
  }

  std::vector<SessionRequest> Reqs;
  for (unsigned I = 0; I < N; ++I) {
    size_t K = I % Pairs.size();
    SessionRequest R;
    R.Source = Pairs[K].Buggy;
    R.Intended = Pairs[K].Fixed;
    if (K >= FirstDynamic)
      R.Opts.Debugger.Slicing = SliceMode::Dynamic;
    Reqs.push_back(std::move(R));
  }
  return Reqs;
}

std::vector<std::string> summaries(const std::vector<SessionResult> &Rs) {
  std::vector<std::string> Out;
  for (const SessionResult &R : Rs)
    Out.push_back(R.summary());
  return Out;
}

//===----------------------------------------------------------------------===//
// Parallel == serial, byte for byte
//===----------------------------------------------------------------------===//

TEST(BatchRunnerTest, EightThreadsByteIdenticalToSerial) {
  std::vector<SessionRequest> Reqs = makeWorkload(21);

  // Serial reference: one fresh context, the calling thread.
  RuntimeContext Serial;
  std::vector<std::string> Reference;
  for (const SessionRequest &R : Reqs)
    Reference.push_back(runSession(Serial, R).summary());

  // Parallel: fresh context, 8 threads.
  RuntimeContext Parallel;
  std::vector<SessionResult> Results = runBatch(Parallel, Reqs, 8);

  ASSERT_EQ(Results.size(), Reqs.size());
  for (size_t I = 0; I < Results.size(); ++I) {
    EXPECT_TRUE(Results[I].Prepared) << Results[I].Message;
    EXPECT_EQ(Results[I].summary(), Reference[I]) << "request " << I;
  }
}

TEST(BatchRunnerTest, LocalizesThePlantedBugInParallel) {
  ProgramPair Chain = chainProgram(8, 5);
  std::vector<SessionRequest> Reqs(12);
  for (SessionRequest &R : Reqs) {
    R.Source = Chain.Buggy;
    R.Intended = Chain.Fixed;
  }
  RuntimeContext Ctx;
  for (const SessionResult &R : runBatch(Ctx, Reqs, 8)) {
    ASSERT_TRUE(R.Found) << R.Message;
    EXPECT_EQ(R.UnitName, Chain.BuggyRoutine);
  }
}

//===----------------------------------------------------------------------===//
// Exact cache accounting
//===----------------------------------------------------------------------===//

TEST(BatchRunnerTest, CacheHitCountersAreExact) {
  ProgramPair Pair = chainProgram(6, 4);
  SessionRequest Req;
  Req.Source = Pair.Buggy;
  Req.Intended = Pair.Fixed;

  // One serial session establishes the per-session cache-access profile.
  RuntimeContext Ctx;
  SessionResult First = runSession(Ctx, Req);
  ASSERT_TRUE(First.Found);
  RuntimeStats S1 = Ctx.stats();
  EXPECT_EQ(S1.ProgramMisses, 2u) << "subject + intended parsed once each";
  EXPECT_EQ(S1.TransformMisses, 1u);
  EXPECT_EQ(S1.TransformHits, 0u);
  EXPECT_EQ(S1.SdgMisses, 1u);
  EXPECT_EQ(S1.CodeMisses, 2u) << "subject + intended compiled once each";
  EXPECT_EQ(S1.CodeHits, 0u);
  EXPECT_EQ(S1.Subjects, 1u);
  uint64_t SliceCallsPerSession = S1.SliceMisses + S1.SliceHits;

  // Eleven more identical sessions across 8 threads: every build is a hit,
  // no cache builds anything again.
  std::vector<SessionRequest> Reqs(11, Req);
  std::vector<SessionResult> Results = runBatch(Ctx, Reqs, 8);
  for (const SessionResult &R : Results)
    EXPECT_EQ(R.summary(), First.summary());

  RuntimeStats S12 = Ctx.stats();
  EXPECT_EQ(S12.ProgramMisses, 2u);
  EXPECT_EQ(S12.ProgramHits, S1.ProgramHits + 22u);
  EXPECT_EQ(S12.TransformMisses, 1u);
  EXPECT_EQ(S12.TransformHits, 11u);
  EXPECT_EQ(S12.SdgMisses, 1u);
  EXPECT_EQ(S12.SdgHits, 11u);
  EXPECT_EQ(S12.CodeMisses, 2u);
  EXPECT_EQ(S12.CodeHits, 22u);
  EXPECT_EQ(S12.SliceMisses, S1.SliceMisses)
      << "identical sessions never rebuild a slice";
  EXPECT_EQ(S12.SliceHits, S1.SliceHits + 11 * SliceCallsPerSession);
  EXPECT_EQ(S12.Subjects, 1u);
}

TEST(BatchRunnerTest, DistinctSubjectsGetDistinctEntries) {
  std::vector<SessionRequest> Reqs = makeWorkload(7); // 7 distinct pairs
  RuntimeContext Ctx;
  runBatch(Ctx, Reqs, 4);
  RuntimeStats S = Ctx.stats();
  EXPECT_EQ(S.Subjects, 7u);
  EXPECT_EQ(S.TransformMisses, 7u);
  EXPECT_EQ(S.TransformHits, 0u);
  EXPECT_EQ(S.ProgramMisses, 12u)
      << "7 subjects + 5 distinct intended programs (the three chain "
         "requests share one fixed program)";
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(BatchRunnerTest, RepeatedRunsWithSameSeedAreIdentical) {
  std::vector<SessionRequest> Reqs = makeWorkload(21);
  RuntimeContext A, B;
  EXPECT_EQ(summaries(runBatch(A, Reqs, 8)), summaries(runBatch(B, Reqs, 8)));
}

TEST(BatchRunnerTest, WarmCacheChangesNothingButTheCounters) {
  std::vector<SessionRequest> Reqs = makeWorkload(14);
  RuntimeContext Ctx;

  std::vector<std::string> Cold = summaries(runBatch(Ctx, Reqs, 8));
  RuntimeStats AfterCold = Ctx.stats();

  std::vector<std::string> Warm = summaries(runBatch(Ctx, Reqs, 8));
  RuntimeStats AfterWarm = Ctx.stats();

  EXPECT_EQ(Cold, Warm) << "warm-cache sessions localize the same bugs";
  EXPECT_EQ(AfterWarm.ProgramMisses, AfterCold.ProgramMisses);
  EXPECT_EQ(AfterWarm.TransformMisses, AfterCold.TransformMisses);
  EXPECT_EQ(AfterWarm.SdgMisses, AfterCold.SdgMisses);
  EXPECT_EQ(AfterWarm.CodeMisses, AfterCold.CodeMisses);
  EXPECT_EQ(AfterWarm.SliceMisses, AfterCold.SliceMisses);
}

//===----------------------------------------------------------------------===//
// Batch mechanics
//===----------------------------------------------------------------------===//

TEST(BatchRunnerTest, EmptyBatchMoreThreadsThanRequests) {
  RuntimeContext Ctx;
  EXPECT_TRUE(runBatch(Ctx, {}, 8).empty());
  // 2 requests on 8 threads: each request runs once, in request order.
  std::vector<SessionRequest> Reqs = makeWorkload(2);
  std::vector<SessionResult> Results = runBatch(Ctx, Reqs, 8);
  ASSERT_EQ(Results.size(), 2u);
  for (size_t I = 0; I < Results.size(); ++I)
    EXPECT_EQ(Results[I].summary(), runSession(Ctx, Reqs[I]).summary());
}

TEST(BatchRunnerTest, ThrowingSessionReachesTheCaller) {
  std::vector<SessionRequest> Reqs = makeWorkload(6);
  Reqs[3].MakeOracle = []() -> std::unique_ptr<Oracle> {
    throw std::runtime_error("oracle factory failed");
  };
  RuntimeContext Ctx;
  try {
    runBatch(Ctx, Reqs, 4);
    FAIL() << "runBatch returned although a session threw";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "oracle factory failed");
  }
}

TEST(BatchRunnerTest, BadSubjectReportsFailureWithoutPoisoningTheBatch) {
  std::vector<SessionRequest> Reqs = makeWorkload(4);
  Reqs[1].Source = "program broken; begin x := ; end.";
  Reqs[2].MakeOracle = nullptr;
  Reqs[2].Intended.clear(); // no oracle at all
  RuntimeContext Ctx;
  std::vector<SessionResult> Results = runBatch(Ctx, Reqs, 4);
  EXPECT_TRUE(Results[0].Prepared);
  EXPECT_FALSE(Results[1].Prepared);
  EXPECT_NE(Results[1].Message.find("parse failure"), std::string::npos)
      << Results[1].Message;
  EXPECT_FALSE(Results[2].Prepared);
  EXPECT_NE(Results[2].Message.find("no oracle"), std::string::npos);
  EXPECT_TRUE(Results[3].Prepared);
}

//===----------------------------------------------------------------------===//
// Artifact injection vs. self-built sessions
//===----------------------------------------------------------------------===//

TEST(RuntimeContextTest, ArtifactSessionMatchesSelfBuiltSession) {
  auto Buggy = compile(Figure4Buggy);
  auto Fixed = compile(Figure4Fixed);

  DiagnosticsEngine D1;
  GADTSession Direct(*Buggy, GADTOptions(), D1);
  ASSERT_TRUE(Direct.valid());
  IntendedProgramOracle U1(*Fixed);
  BugReport R1 = Direct.debug(U1);

  RuntimeContext Ctx;
  DiagnosticsEngine D2;
  auto Artifacts = Ctx.prepare(Figure4Buggy, GADTOptions(), D2);
  ASSERT_TRUE(Artifacts) << D2.str();
  EXPECT_EQ(Artifacts->Fingerprint, hashBytes(Figure4Buggy));
  ASSERT_TRUE(Artifacts->Sdg) << "static slicing is on by default";
  GADTSession Injected(Artifacts, GADTOptions(), D2);
  ASSERT_TRUE(Injected.valid()) << D2.str();
  IntendedProgramOracle U2(*Fixed);
  BugReport R2 = Injected.debug(U2);

  ASSERT_TRUE(R1.Found && R2.Found);
  EXPECT_EQ(R1.UnitName, R2.UnitName);
  EXPECT_EQ(R1.WrongOutput, R2.WrongOutput);
  EXPECT_EQ(R1.Message, R2.Message);
  EXPECT_EQ(R1.CandidateStmts.size(), R2.CandidateStmts.size());
  EXPECT_EQ(Direct.stats().transcript(), Injected.stats().transcript())
      << "the shared slice memo must not change the dialogue";
  EXPECT_EQ(Direct.stats().NodesPruned, Injected.stats().NodesPruned);
}

TEST(RuntimeContextTest, TransformArtifactsAreShared) {
  RuntimeContext Ctx;
  DiagnosticsEngine Diags;
  GADTOptions Opts;
  auto A1 = Ctx.prepare(Section6Globals, Opts, Diags);
  auto A2 = Ctx.prepare(Section6Globals, Opts, Diags);
  ASSERT_TRUE(A1 && A2);
  EXPECT_EQ(A1->Prepared.get(), A2->Prepared.get())
      << "one transformed program object per fingerprint";
  EXPECT_EQ(A1->Sdg.get(), A2->Sdg.get());
  EXPECT_EQ(Ctx.stats().TransformMisses, 1u);
  EXPECT_EQ(Ctx.stats().TransformHits, 1u);
}

TEST(RuntimeContextTest, TextualVariantsAreSeparateSubjects) {
  // Same program, different whitespace/case: the caches are keyed by
  // source text, so each text is its own subject with its own parse,
  // transform and SDG — and both debug to the same dialogue.
  std::string A = Figure4Buggy;
  std::string B;
  for (size_t I = 0; I != A.size(); ++I) {
    if (A.compare(I, 2, "  ") == 0) {
      B += '\t';
      ++I;
    } else {
      B += static_cast<char>(std::toupper(static_cast<unsigned char>(A[I])));
    }
  }
  ASSERT_NE(A, B);
  RuntimeContext Ctx;
  DiagnosticsEngine Diags;
  auto AA = Ctx.prepare(A, GADTOptions(), Diags);
  auto AB = Ctx.prepare(B, GADTOptions(), Diags);
  ASSERT_TRUE(AA && AB) << Diags.str();
  EXPECT_NE(AA->Fingerprint, AB->Fingerprint);
  EXPECT_NE(AA->Prepared.get(), AB->Prepared.get());
  EXPECT_EQ(Ctx.stats().ProgramMisses, 2u);
  EXPECT_EQ(Ctx.stats().TransformMisses, 2u);
  EXPECT_EQ(Ctx.stats().SdgMisses, 2u);

  auto Fixed = compile(Figure4Fixed);
  std::string Transcripts[2];
  for (int I = 0; I != 2; ++I) {
    GADTSession Session(I ? AB : AA, GADTOptions(), Diags);
    ASSERT_TRUE(Session.valid()) << Diags.str();
    IntendedProgramOracle User(*Fixed);
    ASSERT_TRUE(Session.debug(User).Found);
    Transcripts[I] = Session.stats().transcript();
  }
  EXPECT_FALSE(Transcripts[0].empty());
  EXPECT_EQ(Transcripts[0], Transcripts[1]);
}

TEST(RuntimeContextTest, SliceMemoKeepsRoutinesOfOneNameApart) {
  RuntimeContext Ctx;
  DiagnosticsEngine Diags;
  auto Artifacts = Ctx.prepare(test::TwoHelpers, GADTOptions(), Diags);
  ASSERT_TRUE(Artifacts && Artifacts->Sdg) << Diags.str();
  const RoutineDecl *Main = Artifacts->Prepared->getMain();
  const RoutineDecl *A = Main->findNested("a")->findNested("helper");
  const RoutineDecl *B = Main->findNested("b")->findNested("helper");
  auto SA = Artifacts->Slices(A, "x");
  auto SB = Artifacts->Slices(B, "x");
  ASSERT_TRUE(SA && SB);
  EXPECT_NE(SA->nodes(), SB->nodes());
  EXPECT_EQ(SA->nodes(),
            slicing::sliceOnRoutineOutput(*Artifacts->Sdg, A, "x").nodes());
  EXPECT_EQ(SB->nodes(),
            slicing::sliceOnRoutineOutput(*Artifacts->Sdg, B, "x").nodes());
  EXPECT_EQ(Ctx.stats().SliceMisses, 2u);
  EXPECT_EQ(Artifacts->Slices(B, "x"), SB);
  EXPECT_EQ(Ctx.stats().SliceHits, 1u);
}

TEST(RuntimeContextTest, SharedNameSessionsLocalizeAsInAFreshContext) {
  // Session 1's intended a.helper adds 2, so it slices p.a.helper on x.
  // Session 2's intended inc2 adds 2, so it must slice p.b.helper on x,
  // keep the inc2 call and localize inc2 — in a warm context as in a
  // fresh one.
  SessionRequest First, Second;
  First.Source = Second.Source = test::TwoHelpers;
  First.Intended = test::twoHelpersWith("x + 1", "x + 2");
  Second.Intended = test::twoHelpersWith("x + 3", "x + 2");
  First.Input = Second.Input = {1};
  RuntimeContext Warm;
  SessionResult R1 = runSession(Warm, First);
  ASSERT_TRUE(R1.Found) << R1.Message;
  EXPECT_EQ(R1.UnitName, "helper");
  SessionResult R2 = runSession(Warm, Second);
  RuntimeContext Fresh;
  SessionResult Cold = runSession(Fresh, Second);
  ASSERT_TRUE(Cold.Found) << Cold.Message;
  EXPECT_EQ(Cold.UnitName, "inc2");
  EXPECT_EQ(R2.UnitName, "inc2") << R2.summary();
  EXPECT_EQ(R2.Stats.transcript(), Cold.Stats.transcript());
}

TEST(RuntimeContextTest, CachedParseFailureIsReported) {
  RuntimeContext Ctx;
  DiagnosticsEngine D1, D2;
  EXPECT_EQ(Ctx.internProgram("program x; begin := end.", D1), nullptr);
  EXPECT_TRUE(D1.hasErrors());
  // Second request hits the cached failure, still reporting an error.
  EXPECT_EQ(Ctx.internProgram("program x; begin := end.", D2), nullptr);
  EXPECT_TRUE(D2.hasErrors());
  EXPECT_EQ(Ctx.stats().ProgramMisses, 1u);
  EXPECT_EQ(Ctx.stats().ProgramHits, 1u);
}

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

TEST(HashingTest, ProgramFingerprintIsStableAndDiscriminating) {
  EXPECT_EQ(hashBytes("gadt"), hashBytes("gadt"));
  EXPECT_NE(hashBytes("gadt"), hashBytes("gadT"));
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
  EXPECT_EQ(hashHex(0).size(), 16u);
  EXPECT_EQ(hashHex(0xabcULL), "0000000000000abc");
}

} // namespace
