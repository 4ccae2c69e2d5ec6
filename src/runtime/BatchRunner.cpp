//===- BatchRunner.cpp - Parallel batch-debugging runtime -----------------===//

#include "runtime/BatchRunner.h"

#include "core/ReferenceOracle.h"
#include "obs/Trace.h"
#include "support/Hashing.h"
#include "support/Parallel.h"

using namespace gadt;
using namespace gadt::core;
using namespace gadt::runtime;

std::string SessionResult::summary() const {
  std::string Out;
  Out += "fp=" + hashHex(Fingerprint);
  Out += " prepared=" + std::string(Prepared ? "1" : "0");
  Out += " found=" + std::string(Found ? "1" : "0");
  // Two appends each: a temporary `" unit=" + UnitName` trips GCC 12's
  // -Wrestrict false positive in Release builds.
  Out += " unit=";
  Out += UnitName;
  Out += " wrong=";
  Out += WrongOutput;
  Out += " msg=";
  Out += Message;
  Out += "\njudgements=" + std::to_string(Stats.Judgements);
  Out += " unanswered=" + std::to_string(Stats.Unanswered);
  Out += " memo=" + std::to_string(Stats.MemoHits);
  Out += " slicing=" + std::to_string(Stats.SlicingActivations);
  Out += " pruned=" + std::to_string(Stats.NodesPruned);
  Out += "\n" + Stats.transcript();
  return Out;
}

SessionResult gadt::runtime::runSession(RuntimeContext &Ctx,
                                        const SessionRequest &Req) {
  obs::Span Span("session", "runtime");
  SessionResult Res;
  DiagnosticsEngine Diags;

  auto Finish = [&](SessionResult R) {
    Span.arg("fp", hashHex(R.Fingerprint));
    Span.arg("prepared", R.Prepared);
    Span.arg("found", R.Found);
    return R;
  };

  std::shared_ptr<const SessionArtifacts> Artifacts =
      Ctx.prepare(Req.Source, Req.Opts, Diags);
  if (!Artifacts) {
    Res.Message = Diags.str();
    return Finish(std::move(Res));
  }
  Res.Fingerprint = Artifacts->Fingerprint;

  GADTSession Session(Artifacts, Req.Opts, Diags);
  if (!Session.valid()) {
    Res.Message = Diags.str();
    return Finish(std::move(Res));
  }

  // Build this session's private oracle (oracles are stateful; the
  // intended program's parse and bytecode are shared through the context).
  std::shared_ptr<const CodeEntry> Intended; // outlives the oracle below
  std::unique_ptr<Oracle> Private;
  if (Req.MakeOracle) {
    Private = Req.MakeOracle();
  } else if (!Req.Intended.empty()) {
    Intended = Ctx.internCompiled(Req.Intended, Diags);
    if (!Intended) {
      Res.Message = Diags.str();
      return Finish(std::move(Res));
    }
    Private = std::make_unique<IntendedProgramOracle>(*Intended->Prepared,
                                                      Intended->Code);
  }
  if (!Private) {
    Res.Message = "batch runtime: request provides no oracle";
    return Finish(std::move(Res));
  }
  Res.Prepared = true;

  BugReport Report = Session.debug(*Private, Req.Input);
  Res.Found = Report.Found;
  Res.UnitName = Report.UnitName;
  Res.WrongOutput = Report.WrongOutput;
  Res.Message = Report.Message;
  Res.Stats = Session.stats();
  return Finish(std::move(Res));
}

std::vector<SessionResult>
gadt::runtime::runBatch(RuntimeContext &Ctx,
                        const std::vector<SessionRequest> &Requests,
                        unsigned Threads) {
  std::vector<SessionResult> Results(Requests.size());
  support::parallelFor(Threads, Requests.size(), [&](size_t I) {
    Results[I] = runSession(Ctx, Requests[I]);
  });
  return Results;
}
