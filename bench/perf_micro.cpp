//===- perf_micro.cpp - Microbenchmarks (X4/X9) ---------------------------===//
//
// Experiment X4 (DESIGN.md): google-benchmark timings of the pipeline
// stages — front-end, tracing (with and without dependence tracking), SDG
// construction, slice queries, search strategies, incremental recompute —
// on the paper's programs and growing synthetic subjects. Every family is
// read by a gate of bench/trajectory.json, a README table or an
// EXPERIMENTS.md entry.
//
// Experiment X9 (EXPERIMENTS.md): the interpreter-bound cases (BM_Interpret*
// and BM_Trace*) are the regression gate for the hot-path work — every run
// is repeated (min-of-N with a warm-up phase) so the --json numbers are
// stable enough to diff across commits with bench/compare_bench.py.
//
//===----------------------------------------------------------------------===//

#include "analysis/SDG.h"
#include "bytecode/Bytecode.h"
#include "bytecode/VM.h"
#include "core/Debugger.h"
#include "core/GADT.h"
#include "interp/Interpreter.h"
#include "obs/Trace.h"
#include "pascal/Frontend.h"
#include "runtime/EditSession.h"
#include "runtime/RuntimeContext.h"
#include "slicing/DynamicSlicer.h"
#include "slicing/StaticSlicer.h"
#include "slicing/TreePruner.h"
#include "support/JSON.h"
#include "trace/ExecTreeBuilder.h"
#include "workload/PaperPrograms.h"
#include "workload/Synthetic.h"

#include "perfbench/Calibrate.h"

#include <benchmark/benchmark.h>

#include <fstream>
#include <map>
#include <unistd.h>
#include <unordered_set>

using namespace gadt;

namespace {

std::unique_ptr<pascal::Program> compileOrDie(const std::string &Src) {
  DiagnosticsEngine Diags;
  auto Prog = pascal::parseAndCheck(Src, Diags);
  if (!Prog)
    std::abort();
  return Prog;
}

/// A loop-heavy deterministic synthetic subject for the interpreter-bound
/// cases (fixed seed: the same program on every run and every machine).
const workload::ProgramPair &syntheticSubject() {
  static workload::ProgramPair Pair = [] {
    workload::SyntheticOptions Opts;
    Opts.Seed = 42;
    Opts.NumRoutines = 8;
    Opts.NumGlobals = 4;
    Opts.StmtsPerRoutine = 8;
    Opts.UseLoops = true;
    return workload::randomProgram(Opts);
  }();
  return Pair;
}

void BM_ParseAndCheckFigure4(benchmark::State &State) {
  std::string Src = workload::Figure4Buggy;
  for (auto _ : State) {
    DiagnosticsEngine Diags;
    auto Prog = pascal::parseAndCheck(Src, Diags);
    benchmark::DoNotOptimize(Prog);
  }
}
BENCHMARK(BM_ParseAndCheckFigure4);

/// Parse and check of the edit_relocalize hub (the session benchmark's
/// EditSession subject); the bytes/s column is the frontend's throughput.
void BM_ParseAndCheckHub(benchmark::State &State) {
  const std::string Src = workload::incrementalEditProgram(12, 0, 0, 3);
  for (auto _ : State) {
    DiagnosticsEngine Diags;
    auto Prog = pascal::parseAndCheck(Src, Diags);
    benchmark::DoNotOptimize(Prog);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Src.size()));
}
BENCHMARK(BM_ParseAndCheckHub);

/// The session benchmark's machine-speed kernel (perfbench/Calibrate.cpp).
/// It calls no GADT code, so the CI perf gates divide by it: a ratio then
/// cancels the speed of the runner and no layer of the pipeline.
void BM_CalibrationKernel(benchmark::State &State) {
  uint64_t Checksum = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(perfbench::kernelMicros(Checksum));
  benchmark::DoNotOptimize(Checksum);
}
BENCHMARK(BM_CalibrationKernel);

void BM_TraceFigure4(benchmark::State &State) {
  auto Prog = compileOrDie(workload::Figure4Buggy);
  for (auto _ : State) {
    auto Tree = trace::buildExecTree(*Prog, {}, {});
    benchmark::DoNotOptimize(Tree);
  }
}
BENCHMARK(BM_TraceFigure4);

void BM_TraceFigure4WithDeps(benchmark::State &State) {
  auto Prog = compileOrDie(workload::Figure4Buggy);
  interp::InterpOptions Opts;
  Opts.TrackDeps = true;
  for (auto _ : State) {
    auto Tree = trace::buildExecTree(*Prog, Opts, {});
    benchmark::DoNotOptimize(Tree);
  }
}
BENCHMARK(BM_TraceFigure4WithDeps);

void BM_InterpretChain(benchmark::State &State) {
  auto Prog = compileOrDie(
      workload::chainProgram(static_cast<unsigned>(State.range(0)), 1)
          .Fixed);
  for (auto _ : State) {
    interp::Interpreter I(*Prog);
    auto R = I.run();
    benchmark::DoNotOptimize(R);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_InterpretChain)->Range(8, 256)->Complexity();

/// Interpreter-bound, dependence tracking on, no listener: pure cost of the
/// dependence substrate (DepSet merges, control-dep stacks, cell stores).
void BM_InterpretChainDeps(benchmark::State &State) {
  auto Prog = compileOrDie(
      workload::chainProgram(static_cast<unsigned>(State.range(0)), 1)
          .Fixed);
  interp::InterpOptions Opts;
  Opts.TrackDeps = true;
  for (auto _ : State) {
    interp::Interpreter I(*Prog, Opts);
    auto R = I.run();
    benchmark::DoNotOptimize(R);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_InterpretChainDeps)->Range(8, 256)->Complexity();

/// Full tracing pipeline on the call chain with dependence tracking — the
/// exact configuration every dynamic slice pays for.
void BM_TraceChainDeps(benchmark::State &State) {
  auto Prog = compileOrDie(
      workload::chainProgram(static_cast<unsigned>(State.range(0)), 1)
          .Fixed);
  interp::InterpOptions Opts;
  Opts.TrackDeps = true;
  for (auto _ : State) {
    auto Tree = trace::buildExecTree(*Prog, Opts, {});
    benchmark::DoNotOptimize(Tree);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_TraceChainDeps)->Range(8, 256)->Complexity();

/// Loop-heavy synthetic subject, dependence tracking on, no listener.
void BM_InterpretSyntheticDeps(benchmark::State &State) {
  auto Prog = compileOrDie(syntheticSubject().Fixed);
  interp::InterpOptions Opts;
  Opts.TrackDeps = true;
  for (auto _ : State) {
    interp::Interpreter I(*Prog, Opts);
    auto R = I.run();
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_InterpretSyntheticDeps);

/// The paper's most expensive configuration: loops and iterations as
/// debugging units plus dependence tracking, with a tree listener attached.
void BM_TraceSyntheticLoopsItersDeps(benchmark::State &State) {
  auto Prog = compileOrDie(syntheticSubject().Fixed);
  interp::InterpOptions Opts;
  Opts.TraceLoops = true;
  Opts.TraceIterations = true;
  Opts.TrackDeps = true;
  for (auto _ : State) {
    auto Tree = trace::buildExecTree(*Prog, Opts, {});
    benchmark::DoNotOptimize(Tree);
  }
}
BENCHMARK(BM_TraceSyntheticLoopsItersDeps);

//===--------------------------------------------------------------------===//
// Execution benchmarks (X12): the bytecode VM on the dependence-tracking
// hot path. The interpreter is constructed ONCE outside the timing loop,
// so bytecode compilation is excluded and the numbers isolate execution.
//===--------------------------------------------------------------------===//

/// Dependence tracking down a deep call chain, warm interpreter: DepSet
/// merges, pooled cell stores and unit events with no listener attached.
void BM_TrackDepsChain(benchmark::State &State) {
  auto Prog = compileOrDie(
      workload::chainProgram(static_cast<unsigned>(State.range(0)), 1)
          .Fixed);
  interp::InterpOptions Opts;
  Opts.TrackDeps = true;
  interp::Interpreter I(*Prog, Opts);
  for (auto _ : State) {
    auto R = I.run();
    benchmark::DoNotOptimize(R.Ok);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_TrackDepsChain)->Range(8, 256)->Complexity();

/// Dependence tracking over the loop-heavy synthetic subject, warm
/// interpreter — loop control flow rather than call depth.
void BM_TrackDepsSynthetic(benchmark::State &State) {
  auto Prog = compileOrDie(syntheticSubject().Fixed);
  interp::InterpOptions Opts;
  Opts.TrackDeps = true;
  interp::Interpreter I(*Prog, Opts);
  for (auto _ : State) {
    auto R = I.run();
    benchmark::DoNotOptimize(R.Ok);
  }
}
BENCHMARK(BM_TrackDepsSynthetic);

/// Tracing the summary mesh with dependence tracking, code compiled once:
/// the tracing step of a dynamic-slicing session. Every layer's outputs
/// merge the dependence sets of several callees, so this measures merges
/// of multi-run sets, which the single-run sets of the BM_TrackDeps* chains
/// never reach. Arguments: layers, width. The name matches no CI gate
/// filter, so captures without it still compare.
void BM_DepTrackingMesh(benchmark::State &State) {
  auto Prog = compileOrDie(
      workload::summaryMeshProgram(static_cast<unsigned>(State.range(0)),
                                   static_cast<unsigned>(State.range(1)))
          .Buggy);
  interp::InterpOptions Opts;
  Opts.TrackDeps = true;
  Opts.Code = bytecode::compile(*Prog, Opts.DetectUninitialized);
  for (auto _ : State) {
    auto Tree = trace::buildExecTree(*Prog, Opts, {});
    benchmark::DoNotOptimize(Tree);
  }
}
BENCHMARK(BM_DepTrackingMesh)->Args({3, 5})->Args({4, 4});

/// Plain execution (no dependence tracking, no listener) with a warm
/// interpreter: the floor the dispatch loop itself sets.
void BM_TrackDepsOffChain(benchmark::State &State) {
  auto Prog = compileOrDie(
      workload::chainProgram(static_cast<unsigned>(State.range(0)), 1)
          .Fixed);
  interp::Interpreter I(*Prog);
  for (auto _ : State) {
    auto R = I.run();
    benchmark::DoNotOptimize(R.Ok);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_TrackDepsOffChain)->Range(8, 256)->Complexity();

/// Bytecode compilation cost on the chain — what the RuntimeContext code
/// cache amortizes away (one compile serves every session of a subject).
void BM_BytecodeCompileChain(benchmark::State &State) {
  auto Prog = compileOrDie(
      workload::chainProgram(static_cast<unsigned>(State.range(0)), 1)
          .Fixed);
  for (auto _ : State) {
    auto Code = bytecode::compile(*Prog, /*Checked=*/false);
    benchmark::DoNotOptimize(Code);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_BytecodeCompileChain)->Range(8, 256)->Complexity();

/// Serial batch-session proxy in the compare_bench schema: warm
/// RuntimeContext (program/transform/code caches hit), one full debug
/// session per subject per iteration. The parallel version lives in
/// bench/batch_throughput.cpp; this serial proxy is the per-session cost
/// the A/B gate watches.
void BM_BatchThroughputSerial(benchmark::State &State) {
  std::vector<std::string> Sources = {
      workload::Figure4Buggy, workload::Figure4Fixed,
      workload::chainProgram(32, 1).Fixed, syntheticSubject().Fixed};
  runtime::RuntimeContext Ctx;
  core::GADTOptions Opts;
  core::LambdaOracle O(
      [](const trace::ExecNode &) {
        return core::Judgement::correct("bench");
      },
      "bench");
  for (auto _ : State) {
    for (const std::string &Src : Sources) {
      DiagnosticsEngine Diags;
      auto Artifacts = Ctx.prepare(Src, Opts, Diags);
      core::GADTSession S(Artifacts, Opts, Diags);
      auto R = S.debug(O, {});
      benchmark::DoNotOptimize(R.Found);
    }
  }
}
BENCHMARK(BM_BatchThroughputSerial);

//===--------------------------------------------------------------------===//
// Loop benchmarks: the VM on a loop-heavy subject where the dispatch loop
// itself is the cost.
//===--------------------------------------------------------------------===//

/// Hand-written tight-loop subject: straight-line arithmetic bodies inside
/// nested while loops, with scale factors and offsets written out longhand
/// as constant subexpressions that the VM evaluates on every trip. No
/// calls, no I/O until the final writeln — per-statement dispatch and
/// expression evaluation are the entire cost, which is what the sixth CI
/// gate watches.
const char *LoopHeavySrc =
    "program tightloop;\n"
    "var i, j, a, b, c, d, e, s: integer;\n"
    "begin\n"
    "  s := 0;\n"
    "  i := 0;\n"
    "  while i < 2000 do\n"
    "  begin\n"
    "    a := (i * (2 + 1) + (10 - 3)) - (i - 2) * (4 - 2);\n"
    "    b := (a + i) * (8 - 6) - (a - (3 * 4 - 7));\n"
    "    c := (b - i) + (a * (5 - 3) - b) + (2 * 5 - 1);\n"
    "    d := (c + a) * (3 - 1) - (b + (6 * 2 - 9)) + (c - i);\n"
    "    e := (d - b) + (c * (7 - 5) - a) + (d - (8 - 4)) - (1 + 1);\n"
    "    s := s + e - (a - b) * (6 - 5) + (d - c) - (2 - 2);\n"
    "    a := (s + i) - (e * (2 + 2) - d) + (9 - 6);\n"
    "    b := (a - e) * (5 - 4) + (s - d) - (3 * 3 - 8);\n"
    "    c := (b + a) - (s - e) * (2 - 1) + (4 + 3 - 7);\n"
    "    s := s + (c - b) + (a - (10 - 9));\n"
    "    j := 0;\n"
    "    while j < 4 do\n"
    "    begin\n"
    "      s := s + (j * (7 - 5) - (4 - 3)) + (2 - 2);\n"
    "      j := j + 1\n"
    "    end;\n"
    "    i := i + 1\n"
    "  end;\n"
    "  writeln(s)\n"
    "end.";

/// Warm interpreter: the dispatch loop running the code the compiler emits.
void BM_LoopHeavy(benchmark::State &State) {
  auto Prog = compileOrDie(LoopHeavySrc);
  interp::Interpreter I(*Prog);
  for (auto _ : State) {
    auto R = I.run();
    benchmark::DoNotOptimize(R.Ok);
  }
}
BENCHMARK(BM_LoopHeavy);

/// Same subject with dependence tracking: every operand's DepSet merge on
/// top of the dispatch.
void BM_LoopHeavyDeps(benchmark::State &State) {
  auto Prog = compileOrDie(LoopHeavySrc);
  interp::InterpOptions Opts;
  Opts.TrackDeps = true;
  interp::Interpreter I(*Prog, Opts);
  for (auto _ : State) {
    auto R = I.run();
    benchmark::DoNotOptimize(R.Ok);
  }
}
BENCHMARK(BM_LoopHeavyDeps);

void BM_StaticSliceQuery(benchmark::State &State) {
  auto Prog = compileOrDie(workload::Figure4Buggy);
  analysis::SDG G(*Prog);
  const pascal::RoutineDecl *Computs =
      Prog->getMain()->findNested("computs");
  for (auto _ : State) {
    auto Slice = slicing::sliceOnRoutineOutput(G, Computs, "r1");
    benchmark::DoNotOptimize(Slice.size());
  }
}
BENCHMARK(BM_StaticSliceQuery);

//===--------------------------------------------------------------------===//
// Incremental-recompute benchmarks (X13): one edit-commit against a warm
// EditSession versus a cold rebuild of the same program. Each iteration
// alternates between two variants of the same routine, so every commit is
// a real edit (the fingerprint diff never short-circuits on identical
// text). Timing covers commit() only — parsing and checking the staged
// source is byte-for-byte identical work on both paths (and has its own
// benchmark, BM_ParseAndCheckFigure4), so the numbers isolate the
// recompute pipeline the transaction layer actually controls: fingerprint
// diff, dirty rules, PDG build/replay, summary solve, code splice, and
// destroying the state the commit replaces.
//===--------------------------------------------------------------------===//

constexpr unsigned kIncLeaves = 24;
/// Dense-block repetitions per leaf (see workload::incrementalEditProgram):
/// high enough that per-routine dependence analysis dominates the commit,
/// which is the regime the incremental machinery exists for.
constexpr unsigned kIncRounds = 8;

/// Commits each edit into a fresh session: the cold path every first
/// commit takes. Constructing the session, staging the edit and destroying
/// the session afterwards are untimed. CI's gate 5 divides the incremental
/// rows by this one. A commit takes ~40 ms on a 4-vCPU VM, where the
/// default 0.5 s ran only 14-17 iterations per repetition and 1.5 s runs
/// 41-53: enough for the gate's 20-iteration minimum on a machine up to
/// 2x slower.
void BM_ColdRebuild(benchmark::State &State) {
  const std::string A = workload::incrementalEditProgram(kIncLeaves, 1, 1, kIncRounds);
  const std::string B = workload::incrementalEditProgram(kIncLeaves, 1, 2, kIncRounds);
  bool Flip = false;
  for (auto _ : State) {
    State.PauseTiming();
    auto S = std::make_unique<runtime::EditSession>();
    auto T = S->begin(Flip ? A : B);
    State.ResumeTiming();
    auto St = T.commit();
    benchmark::DoNotOptimize(St.PdgRebuilt);
    State.PauseTiming();
    S.reset();
    State.ResumeTiming();
    Flip = !Flip;
  }
}
BENCHMARK(BM_ColdRebuild)->MinTime(1.5);

/// Re-commit after editing one leaf body out of kIncLeaves + 2 routines —
/// the surgical best case: one PDG rebuild, one routine recompiled,
/// everything else replayed.
void BM_IncrementalEditLeaf(benchmark::State &State) {
  runtime::EditSession S;
  const std::string A = workload::incrementalEditProgram(kIncLeaves, 1, 1, kIncRounds);
  const std::string B = workload::incrementalEditProgram(kIncLeaves, 1, 2, kIncRounds);
  S.begin(A).commit();
  bool Flip = false;
  for (auto _ : State) {
    State.PauseTiming();
    auto T = S.begin(Flip ? A : B);
    State.ResumeTiming();
    auto St = T.commit();
    benchmark::DoNotOptimize(St.PdgReplayed);
    Flip = !Flip;
  }
}
BENCHMARK(BM_IncrementalEditLeaf);

/// Re-commit after editing the hub's body: one PDG rebuild too, but the
/// dirty routine calls every leaf, so the summary re-solve (hub + main) is
/// as wide as a single edit gets.
void BM_IncrementalEditHub(benchmark::State &State) {
  runtime::EditSession S;
  const std::string A = workload::incrementalEditProgram(kIncLeaves, 0, 0, kIncRounds);
  std::string B = A;
  const std::string From = "  b := s;";
  B.replace(B.find(From), From.size(), "  b := s + 1;");
  S.begin(A).commit();
  bool Flip = false;
  for (auto _ : State) {
    State.PauseTiming();
    auto T = S.begin(Flip ? A : B);
    State.ResumeTiming();
    auto St = T.commit();
    benchmark::DoNotOptimize(St.SummaryRecomputed);
    Flip = !Flip;
  }
}
BENCHMARK(BM_IncrementalEditHub);

//===--------------------------------------------------------------------===//
// Debugger-strategy benchmarks (X10): search cost over large synthetic
// execution trees with a zero-latency perfect oracle, so the numbers
// isolate the tree bookkeeping — subtree weights, slice pruning, memo
// lookups — rather than oracle latency. These are the regression gate for
// the trace/slicing/debugger substrate.
//===--------------------------------------------------------------------===//

/// A traced buggy subject plus the node ids a perfect oracle judges
/// incorrect: every execution of the buggy routine and all its ancestors
/// (the erroneous path the search must follow down to the bug).
struct StrategyFixture {
  std::unique_ptr<pascal::Program> Prog;
  std::unique_ptr<trace::ExecTree> Tree;
  std::unordered_set<uint32_t> Bad;
};

StrategyFixture makeStrategyFixture(const workload::ProgramPair &Pair) {
  StrategyFixture F;
  F.Prog = compileOrDie(Pair.Buggy);
  F.Tree = trace::buildExecTree(*F.Prog, {}, {});
  F.Tree->forEachNode([&](trace::ExecNode *N) {
    if (N->getRoutine() && N->getRoutine()->getName() == Pair.BuggyRoutine)
      for (const trace::ExecNode *A = N; A; A = A->getParent())
        F.Bad.insert(A->getId());
  });
  return F;
}

core::LambdaOracle::Fn perfectOracle(const StrategyFixture &Fix) {
  return [&Fix](const trace::ExecNode &N) {
    return Fix.Bad.count(N.getId()) ? core::Judgement::incorrect("bench")
                                    : core::Judgement::correct("bench");
  };
}

/// Heaviest-first descent over a complete binary call tree (depth = range):
/// every level re-ranks the children by active subtree weight.
void BM_DebugTopDownHeaviestTree(benchmark::State &State) {
  auto Fix = makeStrategyFixture(
      workload::treeProgram(static_cast<unsigned>(State.range(0))));
  core::LambdaOracle O(perfectOracle(Fix), "bench");
  core::DebuggerOptions Opts;
  Opts.Strategy = core::SearchStrategy::TopDownHeaviest;
  Opts.Slicing = core::SliceMode::None;
  for (auto _ : State) {
    core::AlgorithmicDebugger D(*Fix.Tree, O, Opts);
    auto R = D.run();
    benchmark::DoNotOptimize(R.Found);
  }
  State.SetComplexityN(1 << State.range(0));
}
BENCHMARK(BM_DebugTopDownHeaviestTree)->DenseRange(8, 12, 2)->Complexity();

/// Shapiro's divide-and-query over the same binary tree: each round scans
/// every active candidate's subtree weight to find the half-weight pivot.
void BM_DebugDivideAndQueryTree(benchmark::State &State) {
  auto Fix = makeStrategyFixture(
      workload::treeProgram(static_cast<unsigned>(State.range(0))));
  core::LambdaOracle O(perfectOracle(Fix), "bench");
  core::DebuggerOptions Opts;
  Opts.Strategy = core::SearchStrategy::DivideAndQuery;
  Opts.Slicing = core::SliceMode::None;
  for (auto _ : State) {
    core::AlgorithmicDebugger D(*Fix.Tree, O, Opts);
    auto R = D.run();
    benchmark::DoNotOptimize(R.Found);
  }
  State.SetComplexityN(1 << State.range(0));
}
BENCHMARK(BM_DebugDivideAndQueryTree)->DenseRange(8, 12, 2)->Complexity();

/// Divide-and-query on a linear call chain — the weight-scan worst case:
/// O(active) candidates per round, each with an O(subtree) weight.
void BM_DebugDivideAndQueryChain(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  auto Fix = makeStrategyFixture(workload::chainProgram(N, N / 2));
  core::LambdaOracle O(perfectOracle(Fix), "bench");
  core::DebuggerOptions Opts;
  Opts.Strategy = core::SearchStrategy::DivideAndQuery;
  Opts.Slicing = core::SliceMode::None;
  for (auto _ : State) {
    core::AlgorithmicDebugger D(*Fix.Tree, O, Opts);
    auto R = D.run();
    benchmark::DoNotOptimize(R.Found);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_DebugDivideAndQueryChain)->Range(64, 512)->Complexity();

/// The paper's Figure 5 scenario at scale: a wrong-output answer activates
/// static slicing, pruning the N-1 irrelevant calls, then the search
/// continues on the pruned tree.
void BM_DebugSliceThenSearchWide(benchmark::State &State) {
  auto Fix = makeStrategyFixture(
      workload::wideIrrelevantProgram(static_cast<unsigned>(State.range(0))));
  analysis::SDG G(*Fix.Prog);
  core::LambdaOracle O(
      [&Fix](const trace::ExecNode &N) {
        if (!Fix.Bad.count(N.getId()))
          return core::Judgement::correct("bench");
        std::string Wrong = N.getOutputs().empty()
                                ? std::string()
                                : std::string(N.getOutputs().back().Name);
        return core::Judgement::incorrect("bench", std::move(Wrong));
      },
      "bench");
  core::DebuggerOptions Opts;
  Opts.Strategy = core::SearchStrategy::TopDown;
  Opts.Slicing = core::SliceMode::Static;
  for (auto _ : State) {
    core::AlgorithmicDebugger D(*Fix.Tree, O, Opts);
    D.setSDG(&G);
    auto R = D.run();
    benchmark::DoNotOptimize(R.Found);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_DebugSliceThenSearchWide)->Range(64, 256)->Complexity();

/// Static-slice pruning plus retained-count over the wide tree, without the
/// search on top — the raw prune/count substrate.
void BM_PruneStaticWide(benchmark::State &State) {
  auto Pair =
      workload::wideIrrelevantProgram(static_cast<unsigned>(State.range(0)));
  auto Prog = compileOrDie(Pair.Buggy);
  auto Tree = trace::buildExecTree(*Prog, {}, {});
  analysis::SDG G(*Prog);
  const pascal::RoutineDecl *P = Prog->getMain()->findNested("p");
  auto Slice = slicing::sliceOnRoutineOutput(G, P, "b");
  trace::ExecNode *PNode = nullptr;
  Tree->forEachNode([&](trace::ExecNode *N) {
    if (N->getRoutine() == P)
      PNode = N;
  });
  for (auto _ : State) {
    auto Kept = slicing::pruneByStaticSlice(PNode, Slice);
    benchmark::DoNotOptimize(slicing::countRetained(PNode, Kept));
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_PruneStaticWide)->Range(64, 512)->Complexity();

/// Dynamic slicing on the root output of a dependence-tracked chain: the
/// relevant-set closure walk over the whole tree.
void BM_DynamicSliceChainDeps(benchmark::State &State) {
  auto Pair = workload::chainProgram(static_cast<unsigned>(State.range(0)), 1);
  auto Prog = compileOrDie(Pair.Buggy);
  interp::InterpOptions IOpts;
  IOpts.TrackDeps = true;
  auto Tree = trace::buildExecTree(*Prog, IOpts, {});
  for (auto _ : State) {
    auto Kept = slicing::dynamicSlice(Tree->getRoot(), "r");
    benchmark::DoNotOptimize(Kept.size());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_DynamicSliceChainDeps)->Range(64, 512)->Complexity();

//===--------------------------------------------------------------------===//
// Static-analysis substrate benchmarks (X11): SDG construction, the
// interprocedural summary-edge fixpoint, and two-phase slice queries over
// workload-generated programs. These are the regression gate for the
// analysis/slicing substrate.
//===--------------------------------------------------------------------===//

/// Whole-graph construction over the paper's Figure 5 shape at scale: many
/// routines with one call site each, flow-dominated.
void BM_SDGBuildWide(benchmark::State &State) {
  auto Prog = compileOrDie(
      workload::wideIrrelevantProgram(static_cast<unsigned>(State.range(0)))
          .Fixed);
  for (auto _ : State) {
    analysis::SDG G(*Prog);
    benchmark::DoNotOptimize(G.numEdges());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_SDGBuildWide)->Range(64, 256)->Complexity();

/// Whole-graph construction over the layered call mesh (4 layers x W
/// routines, W^2 call sites per layer boundary): the interprocedural
/// summary-edge fixpoint dominates, with a dense actual-in/actual-out
/// frontier at every call site.
void BM_SummaryEdgesMesh(benchmark::State &State) {
  auto Prog = compileOrDie(
      workload::summaryMeshProgram(4, static_cast<unsigned>(State.range(0)))
          .Fixed);
  for (auto _ : State) {
    analysis::SDG G(*Prog);
    benchmark::DoNotOptimize(G.numEdges());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_SummaryEdgesMesh)->RangeMultiplier(2)->Range(2, 8)->Complexity();

/// Backward slice from the top of the mesh: the two-phase walk descends
/// through every layer over parameter and summary edges.
void BM_StaticSliceMesh(benchmark::State &State) {
  auto Prog = compileOrDie(workload::summaryMeshProgram(4, 6).Fixed);
  analysis::SDG G(*Prog);
  const pascal::RoutineDecl *Top = Prog->getMain()->findNested("m1_1");
  for (auto _ : State) {
    auto Slice = slicing::sliceOnRoutineOutput(G, Top, "u");
    benchmark::DoNotOptimize(Slice.size());
  }
}
BENCHMARK(BM_StaticSliceMesh);

/// Backward slice down a long call chain: worst-case slice depth, every
/// routine entered through its formal-out.
void BM_StaticSliceChain(benchmark::State &State) {
  auto Prog = compileOrDie(
      workload::chainProgram(static_cast<unsigned>(State.range(0)), 1).Fixed);
  analysis::SDG G(*Prog);
  const pascal::RoutineDecl *P1 = Prog->getMain()->findNested("p1");
  for (auto _ : State) {
    auto Slice = slicing::sliceOnRoutineOutput(G, P1, "y");
    benchmark::DoNotOptimize(Slice.size());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_StaticSliceChain)->Range(64, 256)->Complexity();

/// Disabled-mode tracing overhead (EXPERIMENTS.md X11): with the tracer
/// off, a span must cost one relaxed atomic load and a branch. This pins
/// that contract so telemetry growth cannot silently tax the production
/// path.
void BM_SpanDisabledOverhead(benchmark::State &State) {
  if (obs::enabled())
    State.SkipWithError("tracing is active; disabled-cost bench is void");
  for (auto _ : State) {
    obs::Span S("bench.span", "bench");
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_SpanDisabledOverhead);

/// The stock console reporter, additionally collecting every per-repetition
/// run so main() can export min-of-N aggregates as machine-readable JSON.
class CollectingReporter : public benchmark::ConsoleReporter {
public:
  // Match BENCHMARK_MAIN's behaviour of dropping colour codes when stdout
  // is not a terminal (pipes, CI logs, grep).
  CollectingReporter()
      : benchmark::ConsoleReporter(isatty(fileno(stdout))
                                       ? OO_ColorTabular
                                       : OO_Tabular) {}

  struct Result {
    std::string Name;
    double RealNanos = 0, CpuNanos = 0;
    uint64_t Iterations = 0;
    unsigned Reps = 0;
  };
  /// Min-of-N per benchmark name, in first-seen order.
  std::vector<Result> Results;

  void ReportRuns(const std::vector<Run> &Reports) override {
    for (const Run &R : Reports) {
      if (R.run_type != Run::RT_Iteration || R.error_occurred)
        continue;
      const std::string Name = R.benchmark_name();
      auto It = Index.find(Name);
      if (It == Index.end()) {
        Index.emplace(Name, Results.size());
        Results.push_back({Name, R.GetAdjustedRealTime(),
                           R.GetAdjustedCPUTime(),
                           static_cast<uint64_t>(R.iterations), 1});
        continue;
      }
      Result &Agg = Results[It->second];
      // Repetition of a benchmark we already saw: keep the fastest run.
      // min-of-N is the standard noise filter — the minimum is the run
      // least disturbed by scheduling/frequency jitter.
      if (R.GetAdjustedCPUTime() < Agg.CpuNanos) {
        Agg.CpuNanos = R.GetAdjustedCPUTime();
        Agg.RealNanos = R.GetAdjustedRealTime();
        Agg.Iterations = static_cast<uint64_t>(R.iterations);
      }
      ++Agg.Reps;
    }
    benchmark::ConsoleReporter::ReportRuns(Reports);
  }

private:
  std::map<std::string, size_t> Index;
};

void writeJson(const std::string &Path, unsigned Repetitions,
               const std::vector<CollectingReporter::Result> &Results) {
  std::string Buf;
  json::Writer W(Buf);
  W.beginObject();
  W.key("bench").value("perf_micro");
  // Schema 2: real_ns/cpu_ns are min-of-N over `reps` repetitions (after a
  // warm-up phase), not a single run. See README "Benchmarks & JSON export".
  W.key("schema").value(2);
  W.key("repetitions").value(Repetitions);
  W.key("results").beginArray();
  for (const auto &R : Results) {
    W.beginObject();
    W.key("name").value(R.Name);
    W.key("real_ns").value(R.RealNanos);
    W.key("cpu_ns").value(R.CpuNanos);
    W.key("iterations").value(R.Iterations);
    W.key("reps").value(R.Reps);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  std::ofstream Out(Path);
  Out << Buf << "\n";
}

} // namespace

int main(int argc, char **argv) {
  // Peel off our own flags before google-benchmark sees the command line
  // (it rejects flags it does not know): --json <path> exports machine-
  // readable results, --reps <n> overrides the repetition count.
  std::string JsonPath;
  unsigned Reps = 5;
  bool UserSetReps = false;
  std::vector<char *> Args;
  for (int I = 0; I < argc; ++I) {
    std::string_view Arg(argv[I]);
    if (Arg == "--json" && I + 1 < argc) {
      JsonPath = argv[++I];
      continue;
    }
    if (Arg == "--reps" && I + 1 < argc) {
      Reps = static_cast<unsigned>(std::max(1, atoi(argv[++I])));
      UserSetReps = true;
      continue;
    }
    if (Arg.rfind("--benchmark_repetitions", 0) == 0)
      UserSetReps = true; // respect an explicit google-benchmark flag
    Args.push_back(argv[I]);
  }
  // Repetition + warm-up defaults, injected unless the caller overrode
  // them: each benchmark runs a short untimed warm-up, then N timed
  // repetitions; the reporter keeps the fastest (min-of-N).
  std::string RepFlag = "--benchmark_repetitions=" + std::to_string(Reps);
  std::string WarmupFlag = "--benchmark_min_warmup_time=0.05";
  if (!UserSetReps)
    Args.push_back(RepFlag.data());
  Args.push_back(WarmupFlag.data());
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  CollectingReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  if (!JsonPath.empty())
    writeJson(JsonPath, Reps, Reporter.Results);
  benchmark::Shutdown();
  return 0;
}
