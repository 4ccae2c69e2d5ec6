//===- GADT.cpp - Generalized Algorithmic Debugging and Testing -----------===//

#include "core/GADT.h"

#include "obs/Trace.h"
#include "trace/ExecTreeBuilder.h"

using namespace gadt;
using namespace gadt::core;
using namespace gadt::interp;
using namespace gadt::pascal;

GADTSession::GADTSession(const Program &Subject, GADTOptions Opts,
                         DiagnosticsEngine &Diags)
    : Opts(Opts) {
  if (Opts.Transform) {
    transform::TransformResult R = transform::transformProgram(Subject, Diags);
    if (!R.Transformed)
      return;
    TransformedStorage = std::move(R.Transformed);
    TransformInfo = std::move(R.Stats);
    Prepared = TransformedStorage.get();
  } else {
    Prepared = &Subject;
  }
  Assertions.setProgram(Prepared);
  if (Opts.Debugger.Slicing == SliceMode::Static)
    Sdg = std::make_unique<analysis::SDG>(*Prepared);
}

GADTSession::GADTSession(std::shared_ptr<const SessionArtifacts> A,
                         GADTOptions Opts, DiagnosticsEngine &Diags)
    : Opts(Opts), Artifacts(std::move(A)) {
  if (!Artifacts || !Artifacts->Prepared) {
    Diags.error(SourceLoc(), "session artifacts are missing the prepared "
                             "program");
    return;
  }
  Prepared = Artifacts->Prepared.get();
  Assertions.setProgram(Prepared);
  TransformInfo = Artifacts->TransformInfo;
  // Fall back to building the graph locally when static slicing is
  // requested but the artifacts were prepared without it.
  if (Opts.Debugger.Slicing == SliceMode::Static && !Artifacts->Sdg)
    Sdg = std::make_unique<analysis::SDG>(*Prepared);
}

GADTSession::~GADTSession() = default;

const analysis::SDG *GADTSession::sdg() const {
  if (Sdg)
    return Sdg.get();
  return Artifacts ? Artifacts->Sdg.get() : nullptr;
}

void GADTSession::addTestDatabase(
    std::shared_ptr<const tgen::TestSpec> Spec,
    std::shared_ptr<const tgen::TestReportDB> DB) {
  TestOracleImpl.addDatabase(std::move(Spec), std::move(DB));
}

BugReport GADTSession::debug(Oracle &UserOracle, std::vector<int64_t> Input) {
  BugReport Failure;
  if (!valid()) {
    Failure.Message = "session preparation failed";
    return Failure;
  }

  // Tracing phase.
  InterpOptions IOpts;
  IOpts.TraceLoops = Opts.TraceLoops;
  IOpts.TraceIterations = Opts.TraceIterations;
  IOpts.TrackDeps = Opts.Debugger.Slicing == SliceMode::Dynamic;
  // Shared compiled bytecode (when null the interpreter compiles
  // privately on its first run).
  IOpts.Code = Artifacts ? Artifacts->Code : nullptr;
  LastTree = trace::buildExecTree(*Prepared, IOpts, std::move(Input),
                                  &LastRun);
  if (!LastRun.Ok) {
    Failure.Message = "subject program failed: " + LastRun.Error.Message +
                      " at " + LastRun.Error.Loc.str();
    return Failure;
  }

  // Debugging phase: assertions, then the test database, then the user.
  OracleChain Chain;
  Chain.append(&Assertions);
  Chain.append(&TestOracleImpl);
  Chain.append(&UserOracle);

  AlgorithmicDebugger Debugger(*LastTree, Chain, Opts.Debugger);
  if (const analysis::SDG *G = sdg())
    Debugger.setSDG(G);
  if (Artifacts && Artifacts->Slices)
    Debugger.setSliceProvider(Artifacts->Slices);
  BugReport Report;
  {
    obs::Span Span("debug", "debug");
    Report = Debugger.run();
    LastStats = Debugger.stats();
    Span.arg("found", Report.Found);
    if (Report.Found)
      Span.arg("unit", Report.UnitName);
    Span.arg("judgements", LastStats.Judgements);
    Span.arg("memo_hits", LastStats.MemoHits);
    Span.arg("nodes_pruned", LastStats.NodesPruned);
  }
  return Report;
}
