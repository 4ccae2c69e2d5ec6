//===- Sessions.cpp - Untraced and traced debugging-session ops -----------===//

#include "Sessions.h"

#include "bytecode/Bytecode.h"
#include "core/ReferenceOracle.h"
#include "pascal/Frontend.h"
#include "slicing/StaticSlicer.h"
#include "trace/ExecTreeBuilder.h"

#include <map>
#include <stdexcept>

using namespace gadt;
using namespace perfbench;

namespace {

/// Adds the duration of \p Fn() to \p *Acc; a null \p Acc (untraced op)
/// runs \p Fn without reading the clock.
template <typename F> decltype(auto) timed(uint64_t *Acc, F &&Fn) {
  struct Add {
    uint64_t *A;
    uint64_t T0;
    ~Add() {
      if (A)
        *A += nowNs() - T0;
    }
  } Guard{Acc, Acc ? nowNs() : 0};
  return Fn();
}

/// Times and counts the judge calls of the wrapped oracle.
class TimedOracle : public core::Oracle {
public:
  TimedOracle(core::Oracle &Inner, uint64_t *Ns, unsigned *Calls = nullptr)
      : Inner(Inner), Ns(Ns), Calls(Calls) {}
  core::Judgement judge(const trace::ExecNode &N) override {
    if (Calls)
      ++*Calls;
    return timed(Ns, [&] { return Inner.judge(N); });
  }

private:
  core::Oracle &Inner;
  uint64_t *Ns;
  unsigned *Calls;
};

/// The user side of a session with report databases attached: test lookup
/// first, then the intended program. runSession's own test-db link holds no
/// databases, so the dialogue matches a session that registered them.
class LookupThenUser : public core::Oracle {
public:
  LookupThenUser(const std::vector<TestDb> &Dbs,
                 const pascal::Program &Intended)
      : User(Intended) {
    for (const TestDb &D : Dbs)
      Tests.addDatabase(D.Spec, D.DB);
  }
  core::Judgement judge(const trace::ExecNode &N) override {
    core::Judgement J = Tests.judge(N);
    return J.A != core::Answer::DontKnow ? J : User.judge(N);
  }

private:
  core::TestDatabaseOracle Tests;
  core::IntendedProgramOracle User;
};

OpOutcome outcomeOf(bool Found, const std::string &Unit,
                    const std::string &Message,
                    const core::SessionStats &Stats) {
  OpOutcome O;
  if (!Found)
    O.Error = Message.empty() ? "no bug localized" : Message;
  O.Unit = Unit;
  O.Transcript = Stats.transcript();
  O.UserQueries = Stats.userQueries();
  O.Judgements = static_cast<unsigned>(Stats.Dialogue.size());
  return O;
}

std::shared_ptr<const pascal::Program> parseOrThrow(const std::string &Src) {
  DiagnosticsEngine Diags;
  std::shared_ptr<const pascal::Program> P = pascal::parseAndCheck(Src, Diags);
  if (!P)
    throw std::runtime_error("corpus program does not compile: " +
                             Diags.str());
  return P;
}

void accumulate(runtime::RuntimeStats &Acc, const runtime::RuntimeStats &S) {
  Acc.ProgramHits += S.ProgramHits;
  Acc.ProgramMisses += S.ProgramMisses;
  Acc.TransformHits += S.TransformHits;
  Acc.TransformMisses += S.TransformMisses;
  Acc.SdgHits += S.SdgHits;
  Acc.SdgMisses += S.SdgMisses;
  Acc.CodeHits += S.CodeHits;
  Acc.CodeMisses += S.CodeMisses;
  Acc.SliceHits += S.SliceHits;
  Acc.SliceMisses += S.SliceMisses;
}

runtime::RuntimeStats difference(const runtime::RuntimeStats &A,
                                 const runtime::RuntimeStats &B) {
  runtime::RuntimeStats D;
  D.ProgramHits = A.ProgramHits - B.ProgramHits;
  D.ProgramMisses = A.ProgramMisses - B.ProgramMisses;
  D.TransformHits = A.TransformHits - B.TransformHits;
  D.TransformMisses = A.TransformMisses - B.TransformMisses;
  D.SdgHits = A.SdgHits - B.SdgHits;
  D.SdgMisses = A.SdgMisses - B.SdgMisses;
  D.CodeHits = A.CodeHits - B.CodeHits;
  D.CodeMisses = A.CodeMisses - B.CodeMisses;
  D.SliceHits = A.SliceHits - B.SliceHits;
  D.SliceMisses = A.SliceMisses - B.SliceMisses;
  return D;
}

} // namespace

SessionRunner::SessionRunner(const Corpus &C) : C(C) {
  std::map<std::string, std::shared_ptr<const pascal::Program>> Parsed;
  for (const Subject &S : C.Subjects) {
    auto &P = Parsed[S.Intended];
    if (!P)
      P = parseOrThrow(S.Intended);
    Intended.push_back(P);
    runtime::SessionRequest Req;
    Req.Source = S.Buggy;
    Req.Opts = S.Opts;
    if (S.Dbs.empty()) {
      Req.Intended = S.Intended;
    } else {
      const Subject *Sub = &S;
      const pascal::Program *Prog = Intended.back().get();
      Req.MakeOracle = [Sub, Prog] {
        return std::make_unique<LookupThenUser>(Sub->Dbs, *Prog);
      };
    }
    Requests.push_back(std::move(Req));
  }
  if (C.W == Workload::WarmRepeat)
    Shared = std::make_unique<runtime::RuntimeContext>();
  if (C.W == Workload::EditRelocalize) {
    Edits = std::make_unique<runtime::EditSession>();
    runtime::EditTransaction T = Edits->begin(C.Subjects.at(0).Intended);
    if (!T.valid() || !T.commit().Committed)
      throw std::runtime_error("edit_relocalize: base hub does not commit");
  }
}

SessionRunner::~SessionRunner() = default;

OpOutcome SessionRunner::run(size_t I, LayerRow *Row) {
  if (!Row)
    return Edits ? runEdit(I, nullptr) : runUntraced(I);
  OpOutcome O = Edits ? runEdit(I, Row) : runTraced(I, *Row);
  for (uint64_t LayerRow::*M :
       {&LayerRow::ParseNs, &LayerRow::TransformNs, &LayerRow::SdgNs,
        &LayerRow::CompileNs, &LayerRow::PrepareNs, &LayerRow::BeginNs,
        &LayerRow::CommitNs})
    if (!(Row->*M))
      Row->*M = emptyRegionNs();
  return O;
}

OpOutcome SessionRunner::runUntraced(size_t I) {
  runtime::SessionResult R;
  if (Shared) {
    runtime::RuntimeStats Before = Shared->stats();
    R = runtime::runSession(*Shared, Requests[I]);
    accumulate(Cache, difference(Shared->stats(), Before));
  } else {
    runtime::RuntimeContext Fresh;
    R = runtime::runSession(Fresh, Requests[I]);
    accumulate(Cache, Fresh.stats());
  }
  return outcomeOf(R.Prepared && R.Found, R.UnitName, R.Message, R.Stats);
}

OpOutcome SessionRunner::runTraced(size_t I, LayerRow &Row) {
  const Subject &S = C.Subjects[I];
  const core::GADTOptions &Opts = S.Opts;
  DiagnosticsEngine Diags;

  // Front half: the layer calls RuntimeContext::prepare makes on a miss,
  // or prepare itself when the context is warm.
  std::shared_ptr<const pascal::Program> Subj, IntendedProg;
  std::unique_ptr<pascal::Program> Transformed;
  std::unique_ptr<analysis::SDG> OwnSdg;
  std::shared_ptr<const bytecode::CompiledProgram> Code;
  std::shared_ptr<const core::SessionArtifacts> Artifacts;
  const pascal::Program *Prepared = nullptr;
  const analysis::SDG *Sdg = nullptr;
  core::SliceProvider Inner;
  std::map<std::pair<const pascal::RoutineDecl *, uint32_t>,
           std::shared_ptr<const slicing::StaticSlice>>
      LocalSlices;

  if (Shared) {
    timed(&Row.PrepareNs, [&] {
      Artifacts = Shared->prepare(S.Buggy, Opts, Diags);
      IntendedProg = S.Dbs.empty() ? Shared->internProgram(S.Intended, Diags)
                                   : Intended[I];
    });
    if (!Artifacts || !IntendedProg)
      return {"prepare failed: " + Diags.str(), "", "", 0, 0};
    Prepared = Artifacts->Prepared.get();
    Sdg = Artifacts->Sdg.get();
    Code = Artifacts->Code;
    Inner = Artifacts->Slices;
    Row.CompileRejected = !Code;
    Row.GotosBroken = Artifacts->TransformInfo.GotosBroken;
    Row.GlobalsConverted = Artifacts->TransformInfo.GlobalsConverted;
  } else {
    timed(&Row.ParseNs, [&] {
      Subj = pascal::parseAndCheck(S.Buggy, Diags);
      IntendedProg = pascal::parseAndCheck(S.Intended, Diags);
    });
    Row.SourceBytes = S.Buggy.size() + S.Intended.size();
    if (!Subj || !IntendedProg)
      return {"parse failed: " + Diags.str(), "", "", 0, 0};
    Prepared = Subj.get();
    if (Opts.Transform) {
      transform::TransformResult X = timed(&Row.TransformNs, [&] {
        return transform::transformProgram(*Subj, Diags);
      });
      if (!X.Transformed)
        return {"transform failed: " + Diags.str(), "", "", 0, 0};
      Transformed = std::move(X.Transformed);
      Prepared = Transformed.get();
      Row.GotosBroken = X.Stats.GotosBroken;
      Row.GlobalsConverted = X.Stats.GlobalsConverted;
    }
    if (Opts.Debugger.Slicing == core::SliceMode::Static) {
      // One PDG worker per hardware thread, as RuntimeContext builds it.
      analysis::SDGBuildOptions SdgOpts;
      SdgOpts.Threads = 0;
      timed(&Row.SdgNs, [&] {
        OwnSdg = std::make_unique<analysis::SDG>(*Prepared, SdgOpts);
      });
      Sdg = OwnSdg.get();
      // The per-session slice memo a fresh context would provide.
      Inner = [&](const pascal::RoutineDecl *R, support::Symbol Out)
          -> std::shared_ptr<const slicing::StaticSlice> {
        if (!R)
          return nullptr;
        auto &Slot = LocalSlices[{R, Out.id()}];
        if (!Slot)
          Slot = std::make_shared<const slicing::StaticSlice>(
              slicing::sliceOnRoutineOutput(*Sdg, R, Out.str()));
        return Slot;
      };
    }
    timed(&Row.CompileNs,
          [&] { Code = bytecode::compile(*Prepared, /*Checked=*/false); });
    Row.CompileRejected = !Code;
  }
  // Tracing phase, as GADTSession::debug runs it.
  interp::InterpOptions IOpts;
  IOpts.TraceLoops = Opts.TraceLoops;
  IOpts.TraceIterations = Opts.TraceIterations;
  IOpts.TrackDeps = Opts.Debugger.Slicing == core::SliceMode::Dynamic;
  IOpts.Code = Code;
  interp::ExecResult Run;
  std::unique_ptr<trace::ExecTree> Tree = timed(&Row.ExecNs, [&] {
    return trace::buildExecTree(*Prepared, IOpts, {}, &Run);
  });
  if (!Tree || !Run.Ok)
    return {"subject program failed: " + Run.Error.Message, "", "", 0, 0};
  Row.TreeNodes = Tree->size();
  Row.TreeBytes = Tree->memoryBytes();
  Row.Steps = Run.Steps;

  // Debugging phase: assertions, then the test database, then the user.
  core::AssertionOracle Assertions;
  core::TestDatabaseOracle Tests;
  for (const TestDb &D : S.Dbs)
    Tests.addDatabase(D.Spec, D.DB);
  core::IntendedProgramOracle User(*IntendedProg);
  TimedOracle TimedTests(Tests, &Row.LookupNs);
  core::OracleChain Chain;
  Chain.append(&Assertions);
  Chain.append(&TimedTests);
  Chain.append(&User);
  TimedOracle TimedChain(Chain, &Row.ChainNs, &Row.OracleCalls);

  core::BugReport Report;
  core::SessionStats Stats;
  timed(&Row.RunNs, [&] {
    core::AlgorithmicDebugger Debugger(*Tree, TimedChain, Opts.Debugger);
    if (Sdg)
      Debugger.setSDG(Sdg);
    if (Inner)
      Debugger.setSliceProvider(
          [&](const pascal::RoutineDecl *R, support::Symbol Out) {
            ++Row.SliceCalls;
            return timed(&Row.SliceNs, [&] { return Inner(R, Out); });
          });
    Report = Debugger.run();
    Stats = Debugger.stats();
    timed(&Row.SliceNs, [&] { LocalSlices.clear(); });
  });
  OpOutcome O =
      outcomeOf(Report.Found, Report.UnitName, Report.Message, Stats);
  Row.NodesPruned = Stats.NodesPruned;
  Row.MemoHits = Stats.MemoHits;
  for (const auto &[Source, N] : Stats.AnswersBySource) {
    if (Source == "user")
      Row.AnsUser = N;
    else if (Source == "test-db")
      Row.AnsTestDb = N;
    else if (Source == "assertion")
      Row.AnsAssertion = N;
  }

  // Release each artifact inside its own layer: a session pays for tearing
  // down what it built, and the untraced op does so too.
  timed(&Row.ExecNs, [&] { Tree.reset(); });
  timed(&Row.CompileNs, [&] { Code.reset(); });
  if (OwnSdg) {
    Row.SdgEdges = OwnSdg->numEdges();
    Row.SummaryEdges = OwnSdg->numSummaryEdges();
  } else if (Sdg) {
    Row.SdgEdges = Sdg->numEdges();
    Row.SummaryEdges = Sdg->numSummaryEdges();
  }
  timed(&Row.SdgNs, [&] { OwnSdg.reset(); });
  timed(&Row.TransformNs, [&] { Transformed.reset(); });
  timed(&Row.ParseNs, [&] {
    Subj.reset();
    IntendedProg.reset();
  });
  timed(&Row.PrepareNs, [&] { Artifacts.reset(); });
  return O;
}

OpOutcome SessionRunner::runEdit(size_t I, LayerRow *Row) {
  const Subject &S = C.Subjects[I];
  auto At = [&](uint64_t LayerRow::*M) { return Row ? &(Row->*M) : nullptr; };

  runtime::EditTransaction T =
      timed(At(&LayerRow::BeginNs), [&] { return Edits->begin(S.Buggy); });
  if (!T.valid())
    return {"edit does not parse: " + T.errors(), "", "", 0, 0};
  runtime::IncrementalStats Inc =
      timed(At(&LayerRow::CommitNs), [&] { return T.commit(); });
  if (!Inc.Committed)
    return {"edit did not commit", "", "", 0, 0};

  interp::InterpOptions IOpts;
  IOpts.TraceLoops = S.Opts.TraceLoops;
  IOpts.TraceIterations = S.Opts.TraceIterations;
  IOpts.Code = Edits->code();
  interp::ExecResult Run;
  std::unique_ptr<trace::ExecTree> Tree = timed(At(&LayerRow::ExecNs), [&] {
    return trace::buildExecTree(*Edits->program(), IOpts, {}, &Run);
  });
  if (!Tree || !Run.Ok)
    return {"edited program failed: " + Run.Error.Message, "", "", 0, 0};

  core::AssertionOracle Assertions;
  core::TestDatabaseOracle Tests;
  core::IntendedProgramOracle User(*Intended[I]);
  unsigned Calls = 0, SliceCalls = 0;
  TimedOracle TimedTests(Tests, At(&LayerRow::LookupNs));
  core::OracleChain Chain;
  Chain.append(&Assertions);
  Chain.append(&TimedTests);
  Chain.append(&User);
  TimedOracle TimedChain(Chain, At(&LayerRow::ChainNs), &Calls);

  core::BugReport Report;
  core::SessionStats Stats;
  timed(At(&LayerRow::RunNs), [&] {
    core::AlgorithmicDebugger Debugger(*Tree, TimedChain, S.Opts.Debugger);
    Debugger.setSDG(Edits->sdg());
    Debugger.setSliceProvider(
        [&](const pascal::RoutineDecl *R, support::Symbol Out)
            -> std::shared_ptr<const slicing::StaticSlice> {
          if (!R)
            return nullptr;
          ++SliceCalls;
          return timed(At(&LayerRow::SliceNs), [&] {
            return Edits->sliceOnOutput(R->getName(), Out.str());
          });
        });
    Report = Debugger.run();
    Stats = Debugger.stats();
  });
  OpOutcome O =
      outcomeOf(Report.Found, Report.UnitName, Report.Message, Stats);
  if (Row) {
    Row->TreeNodes = Tree->size();
    Row->TreeBytes = Tree->memoryBytes();
    Row->Steps = Run.Steps;
    Row->SourceBytes = S.Buggy.size();
    Row->SdgEdges = Edits->sdg()->numEdges();
    Row->SummaryEdges = Edits->sdg()->numSummaryEdges();
    Row->CompileRejected = !Edits->code();
    Row->OracleCalls = Calls;
    Row->SliceCalls = SliceCalls;
    Row->NodesPruned = Stats.NodesPruned;
    Row->MemoHits = Stats.MemoHits;
    Row->AnsUser = Stats.userQueries();
    Row->Inc = Inc;
  }
  timed(At(&LayerRow::ExecNs), [&] { Tree.reset(); });
  return O;
}
