//===- BatchRunner.cpp - Parallel batch-debugging runtime -----------------===//

#include "runtime/BatchRunner.h"

#include "core/ReferenceOracle.h"
#include "obs/Trace.h"
#include "support/Hashing.h"

#include <atomic>
#include <cstdio>

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
  // Close the flow opened at enqueue time: the finish event binds to this
  // session slice ("bp":"e"), so Perfetto draws the arrow from the
  // enqueuing thread's slice into this one.
  if (uint64_t Flow = obs::FlowContext::current(); Flow && obs::enabled()) {
    obs::Tracer::global().flowEvent('f', "session.flow", "runtime", Flow);
    Span.arg("flow", Flow);
  }
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

struct BatchRunner::Batch {
  std::mutex M;
  std::condition_variable Done;
  size_t Remaining = 0;
};

BatchRunner::BatchRunner(std::shared_ptr<RuntimeContext> Ctx,
                         BatchOptions Opts)
    : Ctx(std::move(Ctx)) {
  if (!this->Ctx)
    this->Ctx = std::make_shared<RuntimeContext>();
  Threads = Opts.Threads ? Opts.Threads
                         : std::max(1u, std::thread::hardware_concurrency());
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

BatchRunner::~BatchRunner() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void BatchRunner::workerLoop(unsigned Index) {
  if (obs::enabled()) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "gadt-worker-%u", Index);
    obs::Tracer::global().setThreadName(Name);
  }
  for (;;) {
    std::function<void()> Job;
    {
      std::unique_lock<std::mutex> Lock(M);
      WorkReady.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // stopping and drained
      Job = std::move(Queue.front());
      Queue.pop_front();
    }
    Job();
  }
}

std::vector<SessionResult>
BatchRunner::run(const std::vector<SessionRequest> &Requests) {
  std::vector<SessionResult> Results(Requests.size());
  if (Requests.empty())
    return Results;

  auto State = std::make_shared<Batch>();
  State->Remaining = Requests.size();
  {
    std::lock_guard<std::mutex> Lock(M);
    for (size_t I = 0; I < Requests.size(); ++I) {
      // Each request gets a flow id linking its spans across threads: the
      // enqueue slice here starts the flow, the worker steps it at pickup
      // and the session span finishes it.
      uint64_t EnqueuedNs = 0, FlowId = 0;
      if (obs::enabled()) {
        EnqueuedNs = obs::Tracer::global().nowNanos();
        FlowId = obs::FlowContext::nextId();
        obs::Span Enq("enqueue", "runtime");
        Enq.arg("flow", FlowId);
        Enq.arg("request", static_cast<uint64_t>(I));
        obs::Tracer::global().flowEvent('s', "session.flow", "runtime",
                                        FlowId);
      }
      Queue.push_back([this, State, &Requests, &Results, I, EnqueuedNs,
                       FlowId] {
        obs::FlowContext::Scope FlowScope(FlowId);
        // Time between enqueue and a worker picking the job up: the
        // batch's queueing delay, one event per job traced at enqueue.
        if (FlowId && obs::enabled()) {
          uint64_t WaitNs = obs::Tracer::global().nowNanos() - EnqueuedNs;
          obs::Tracer::global().completeEvent(
              "queue.wait", "runtime", EnqueuedNs, WaitNs,
              {{"flow", std::to_string(FlowId), /*Quote=*/false}});
          obs::Tracer::global().flowEvent('t', "session.flow", "runtime",
                                          FlowId);
        }
        Results[I] = runSession(*Ctx, Requests[I]);
        std::lock_guard<std::mutex> BatchLock(State->M);
        if (--State->Remaining == 0)
          State->Done.notify_all();
      });
    }
  }
  WorkReady.notify_all();

  std::unique_lock<std::mutex> Lock(State->M);
  State->Done.wait(Lock, [&] { return State->Remaining == 0; });
  return Results;
}
