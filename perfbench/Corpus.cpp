//===- Corpus.cpp - Seeded session corpora of the session benchmark -------===//

#include "Corpus.h"

#include "core/ReferenceOracle.h"
#include "interp/Interpreter.h"
#include "pascal/Frontend.h"
#include "tgen/FrameGen.h"
#include "tgen/Generator.h"
#include "tgen/SpecParser.h"
#include "workload/PaperPrograms.h"
#include "workload/Payroll.h"
#include "workload/Synthetic.h"

#include <chrono>
#include <stdexcept>
#include <utility>

using namespace gadt;
using namespace perfbench;

namespace {

/// splitmix64: small, seedable and identical on every platform, unlike the
/// standard distributions.
struct Rng {
  uint64_t S;
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  unsigned range(unsigned Lo, unsigned Hi) {
    return Lo + static_cast<unsigned>(next() % (Hi - Lo + 1));
  }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[next() % I]);
  }
};

/// The midpoint of stratum \p I of \p N over [Lo, Hi]: sizes are the same
/// for every seed, which varies only what is generated at each size.
unsigned stratum(unsigned I, unsigned N, unsigned Lo, unsigned Hi) {
  return Lo + static_cast<unsigned>((Hi - Lo) * ((I + 0.5) / N) + 0.5);
}

/// True when both programs run and differ in their printed output or final
/// globals (Figure 4's symptom is the global `isok`): the planted bug shows.
bool manifests(const std::string &Buggy, const std::string &Intended) {
  DiagnosticsEngine Diags;
  auto B = pascal::parseAndCheck(Buggy, Diags);
  auto I = pascal::parseAndCheck(Intended, Diags);
  if (!B || !I)
    throw std::runtime_error("corpus program does not compile: " +
                             Diags.str());
  interp::Interpreter IB(*B), II(*I);
  interp::ExecResult RB = IB.run(), RI = II.run();
  if (!RB.Ok || !RI.Ok)
    return false;
  if (RB.Output != RI.Output ||
      RB.FinalGlobals.size() != RI.FinalGlobals.size())
    return true;
  for (size_t K = 0; K != RB.FinalGlobals.size(); ++K)
    if (RB.FinalGlobals[K].Name != RI.FinalGlobals[K].Name ||
        !RB.FinalGlobals[K].V.equals(RI.FinalGlobals[K].V))
      return true;
  return false;
}

core::GADTOptions sessionOptions(core::SearchStrategy S, core::SliceMode M) {
  core::GADTOptions O;
  O.Debugger.Strategy = S;
  O.Debugger.Slicing = M;
  return O;
}

Subject fromPair(std::string Name, const workload::ProgramPair &P,
                 core::GADTOptions Opts) {
  return {std::move(Name), P.Buggy, P.Fixed, P.BuggyRoutine, Opts, {}};
}

/// A random program pair of \p Routines routines whose bug shows and is
/// found. Draws generator seeds until one qualifies. Two kinds of draw are
/// dropped and counted: a planted bug that never changes the output, and
/// one that a cold session under \p Opts does not localize (typically the
/// intended program could not replay some call, and an unanswered query
/// counts as "correct"). Such an op could never succeed, so a seed that
/// drew one would fail every run.
workload::ProgramPair randomPair(Rng &R, unsigned Routines, bool Gotos,
                                 const core::GADTOptions &Opts, Corpus &C) {
  for (unsigned Try = 0; Try != 500; ++Try) {
    workload::SyntheticOptions O;
    O.Seed = static_cast<uint32_t>(R.next());
    O.NumRoutines = Routines;
    O.UseGotos = Gotos;
    workload::ProgramPair P = workload::randomProgram(O);
    if (!manifests(P.Buggy, P.Fixed)) {
      ++C.Discarded;
      continue;
    }
    DiagnosticsEngine Diags;
    auto Buggy = pascal::parseAndCheck(P.Buggy, Diags);
    auto Fixed = pascal::parseAndCheck(P.Fixed, Diags);
    core::GADTSession Session(*Buggy, Opts, Diags);
    core::IntendedProgramOracle User(*Fixed);
    if (Session.debug(User).UnitName != P.BuggyRoutine) {
      ++C.Unjudged;
      continue;
    }
    return P;
  }
  throw std::runtime_error("no qualifying random program found");
}

workload::ProgramPair hubPair(unsigned Leaves, unsigned Leaf, unsigned Variant,
                              unsigned Rounds) {
  return {workload::incrementalEditProgram(Leaves, 0, 0, Rounds),
          workload::incrementalEditProgram(Leaves, Leaf, Variant, Rounds),
          "leaf" + std::to_string(Leaf)};
}

std::string tag(const char *Kind, std::initializer_list<unsigned> Params) {
  std::string S = Kind;
  char Sep = '/';
  for (unsigned P : Params) {
    S += Sep + std::to_string(P);
    Sep = ',';
  }
  return S;
}

/// cold_corpus: 24 strata of four generators, sizes spread evenly over
/// each generator's range. DivideAndQuery with static slicing keeps the
/// search short, so the frontend, transform, SDG and compile dominate.
Corpus coldCorpus(Rng &R, bool Smoke) {
  Corpus C;
  const unsigned N = Smoke ? 2 : 24;
  auto Opts = sessionOptions(core::SearchStrategy::DivideAndQuery,
                             core::SliceMode::Static);
  for (unsigned I = 0; I != N; ++I) {
    unsigned Routines = stratum(I, N, 16, Smoke ? 20 : 48);
    bool Gotos = I % 2 == 1;
    C.Subjects.push_back(
        fromPair(tag(Gotos ? "random-goto" : "random", {Routines}),
                 randomPair(R, Routines, Gotos, Opts, C), Opts));

    // The mesh has no seed: cycling through its nine shapes keeps the
    // number of large meshes, the slow tail, the same for every seed.
    unsigned Layers = 3 + I / 3 % 3, Width = 3 + I % 3;
    C.Subjects.push_back(
        fromPair(tag("mesh", {Layers, Width}),
                 workload::summaryMeshProgram(Layers, Width), Opts));

    unsigned Len = stratum(I, N, 64, Smoke ? 80 : 256);
    unsigned Bug = R.range(1, Len);
    C.Subjects.push_back(fromPair(tag("chain", {Len, Bug}),
                                  workload::chainProgram(Len, Bug), Opts));

    unsigned Leaves = stratum(I, N, 4, 12), Rounds = 1 + I % 2;
    unsigned Leaf = R.range(1, Leaves), Variant = R.range(1, 9);
    C.Subjects.push_back(fromPair(tag("hub", {Leaves, Rounds, Leaf, Variant}),
                                  hubPair(Leaves, Leaf, Variant, Rounds),
                                  Opts));
  }
  return C;
}

/// Builds the report database of \p SpecText by running its T-GEN suite
/// against \p Reference (the tested, intended routine).
TestDb testDatabase(const char *SpecText, const pascal::Program &Reference) {
  DiagnosticsEngine Diags;
  std::shared_ptr<tgen::TestSpec> Spec = tgen::parseSpec(SpecText, Diags);
  if (!Spec)
    throw std::runtime_error("test spec does not parse: " + Diags.str());
  tgen::FrameSet Frames = tgen::generateFrames(*Spec);
  std::string Routine = Spec->TestName;
  auto Check = [&Reference, Routine](const std::vector<interp::Value> &Args,
                                     const interp::CallOutcome &Out) {
    interp::Interpreter I(Reference);
    interp::CallOutcome Expected = I.callRoutine(Routine, Args);
    if (!Expected.Ok || !Out.Ok)
      return Expected.Ok == Out.Ok;
    for (const interp::Binding &B : Expected.Outputs)
      for (const interp::Binding &Got : Out.Outputs)
        if (Got.Name == B.Name && !Got.V.equals(B.V))
          return false;
    return true;
  };
  auto DB = std::make_shared<tgen::TestReportDB>(tgen::runTestSuite(
      Reference, *Spec, Frames, tgen::specInstantiator(*Spec), Check));
  return {std::move(Spec), std::move(DB)};
}

/// warm_repeat: thirteen subjects whose cost sits after the caches — deep
/// top-down searches, loop and iteration units, dynamic slicing, a goto
/// program the bytecode tier rejects, the paper's Figure 4, and payroll
/// with T-GEN report databases answering for the tested routine.
///
/// The schedule repeats each subject a fixed number of times in a seeded
/// order. Six cheap subjects (under 0.4 ms warm) hold 42 of 90 ops and the
/// median subject (a fixed program, about 0.7 ms) 10, so the median op is
/// always one of the median subject's; the others are over 1.2 ms. The
/// deepest chain holds 2 of 90 ops, so p99 lands near the middle of its
/// ops instead of in their tail.
Corpus warmRepeat(Rng &R, bool Smoke) {
  using core::SearchStrategy;
  using core::SliceMode;
  Corpus C;
  std::vector<unsigned> Times;
  auto Add = [&](std::string Name, const workload::ProgramPair &P,
                 core::GADTOptions O, unsigned N) {
    C.Subjects.push_back(fromPair(std::move(Name), P, O));
    Times.push_back(Smoke ? 1 : N);
  };
  auto TopDown = sessionOptions(SearchStrategy::TopDown, SliceMode::Static);
  auto DandQ =
      sessionOptions(SearchStrategy::DivideAndQuery, SliceMode::Static);
  auto BottomUp = sessionOptions(SearchStrategy::BottomUp, SliceMode::Static);
  auto Dynamic = sessionOptions(SearchStrategy::TopDown, SliceMode::Dynamic);

  // Cheap. Payroll: each bug is debugged with the *other* routine's report
  // database attached (built from the intended program), so the covered
  // routine is answered by test lookup and the buggy one by the user.
  Add("figure4", {workload::Figure4Fixed, workload::Figure4Buggy, "decrement"},
      TopDown, 7);
  {
    DiagnosticsEngine Diags;
    std::shared_ptr<pascal::Program> Correct =
        pascal::parseAndCheck(workload::PayrollCorrect, Diags);
    if (!Correct)
      throw std::runtime_error("payroll does not compile: " + Diags.str());
    auto T0 = std::chrono::steady_clock::now();
    TestDb Tax = testDatabase(workload::TaxforSpec, *Correct);
    TestDb Overtime = testDatabase(workload::OvertimeSpec, *Correct);
    C.TgenSuiteNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - T0)
                        .count();
    Add("payroll-tax",
        {workload::PayrollCorrect, workload::PayrollTaxBug, "taxfor"},
        BottomUp, 7);
    C.Subjects.back().Dbs = {Overtime};
    Add("payroll-overtime",
        {workload::PayrollCorrect, workload::PayrollOvertimeBug,
         "overtimepay"},
        BottomUp, 7);
    C.Subjects.back().Dbs = {Tax};
  }
  {
    unsigned Routines = (Smoke ? 8 : 12) + R.range(0, 2);
    Add(tag("random-goto", {Routines}),
        randomPair(R, Routines, true, DandQ, C), DandQ, 7);
    Routines = (Smoke ? 8 : 12) + R.range(0, 2);
    Add(tag("random-dynamic", {Routines}),
        randomPair(R, Routines, false, Dynamic, C), Dynamic, 7);
    Add("tree/6", workload::treeProgram(Smoke ? 4 : 6), TopDown, 7);
  }

  // The median subject.
  Add("mesh-dynamic/3,5", workload::summaryMeshProgram(3, Smoke ? 3 : 5),
      Dynamic, 10);

  // Expensive: loop and iteration units, dynamic slicing on a deep mesh, a
  // deep tree and two chains with the bug at depth >= 150.
  {
    unsigned Leaves = Smoke ? 2 : 8, Leaf = R.range(1, Leaves);
    unsigned Variant = R.range(1, 9);
    auto O = TopDown;
    O.TraceLoops = true;
    Add(tag("hub-loops", {Leaves, 2, Leaf, Variant}),
        hubPair(Leaves, Leaf, Variant, 2), O, 8);
    Leaves = Smoke ? 2 : 4;
    Leaf = R.range(1, Leaves);
    Variant = R.range(1, 9);
    O.TraceIterations = true;
    Add(tag("hub-iterations", {Leaves, 1, Leaf, Variant}),
        hubPair(Leaves, Leaf, Variant, 1), O, 8);
    Add("mesh-dynamic/4,4", workload::summaryMeshProgram(Smoke ? 3 : 4, 4),
        Dynamic, 8);
    Add("tree/9", workload::treeProgram(Smoke ? 5 : 9), TopDown, 8);
  }
  for (unsigned Len : {192u, 256u}) {
    unsigned N = Smoke ? Len / 8 : Len;
    unsigned Bug = N - R.range(N / 8, N / 8 + 8);
    Add(tag("chain", {N, Bug}), workload::chainProgram(N, Bug), TopDown,
        Len == 256 ? 2 : 4);
  }

  for (const Subject &S : C.Subjects)
    if (!manifests(S.Buggy, S.Intended))
      throw std::runtime_error("warm subject does not manifest: " + S.Name);
  for (size_t I = 0; I != C.Subjects.size(); ++I)
    C.Schedule.insert(C.Schedule.end(), Times[I], I);
  R.shuffle(C.Schedule);
  return C;
}

/// edit_relocalize: one hub, one scheduled edit per op. Each edit plants a
/// nonzero Variant in a leaf other than the previous edit's, so begin()
/// also reverts the previous leaf. Every leaf is edited equally often (its
/// position sets the search length, so a seeded mix would move the median
/// with the seed). Three times per cycle the edit adds a thirteenth leaf
/// holding the bug, and the next edit, always to leaf 1, removes it again.
/// Both change the routine list, so both commits rebuild everything; the
/// adding ops, which also search all thirteen leaves, are the costliest
/// (3 ops in 99), and session_p99_us measures them instead of the
/// machine's jitter on the surgical edits. The schedule length is odd so
/// that a traced run alternating traced and untraced ops covers every step
/// both ways.
Corpus editRelocalize(Rng &R, bool Smoke) {
  Corpus C;
  const unsigned Leaves = Smoke ? 3 : 12, Rounds = Smoke ? 1 : 3;
  const unsigned Passes = Smoke ? 2 : 8;
  const std::string Base =
      workload::incrementalEditProgram(Leaves, 0, 0, Rounds);
  auto Add = [&](const char *Kind, unsigned Width, unsigned Leaf) {
    unsigned Variant = R.range(1, 3);
    Subject S;
    S.Name = tag(Kind, {Width, Leaf, Variant});
    S.Buggy = workload::incrementalEditProgram(Width, Leaf, Variant, Rounds);
    S.Intended = Width == Leaves ? Base
                                 : workload::incrementalEditProgram(
                                       Width, 0, 0, Rounds);
    S.Expected = "leaf" + std::to_string(Leaf);
    S.Opts = sessionOptions(core::SearchStrategy::TopDown,
                            core::SliceMode::Static);
    S.Opts.Transform = false;
    C.Subjects.push_back(std::move(S));
  };

  std::vector<unsigned> Order;
  for (unsigned P = 0; P != Passes; ++P) {
    std::vector<unsigned> Pass;
    for (unsigned L = 1; L <= Leaves; ++L)
      Pass.push_back(L);
    R.shuffle(Pass);
    if (!Order.empty() && Pass.front() == Order.back())
      std::swap(Pass.front(), Pass.back());
    Order.insert(Order.end(), Pass.begin(), Pass.end());
  }
  // The schedule cycles: the last edit must also differ from the first.
  if (Order.back() == Order.front())
    std::swap(Order[Order.size() - 1], Order[Order.size() - 2]);
  for (size_t I = 0; I != Order.size(); ++I) {
    if (Order[I] == 1 && I / Leaves % 3 == 0)
      Add("edit-grow", Leaves + 1, Leaves + 1);
    Add("edit", Leaves, Order[I]);
  }
  return C;
}

} // namespace

Corpus perfbench::buildCorpus(Workload W, uint64_t Seed, bool Smoke) {
  Rng R{Seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(W)};
  Corpus C;
  switch (W) {
  case Workload::ColdCorpus:
    C = coldCorpus(R, Smoke);
    break;
  case Workload::WarmRepeat:
    C = warmRepeat(R, Smoke);
    break;
  case Workload::EditRelocalize:
    C = editRelocalize(R, Smoke);
    break;
  }
  C.W = W;
  if (C.Schedule.empty())
    for (size_t I = 0; I != C.Subjects.size(); ++I)
      C.Schedule.push_back(I);
  return C;
}
