//===- batch_demo.cpp - Debug a fleet of buggy programs in parallel -------===//
//
// Demonstrates the batch-debugging runtime: many (buggy program, intended
// program) pairs are session requests, and runBatch runs them across
// four threads. Sessions over the same subject share its transformed
// program, system dependence graph and static slices through a
// RuntimeContext, so the second batch over the same fleet is served
// entirely from the warm caches.
//
//   $ ./batch_demo
//
// Set GADT_TRACE to watch the run in a trace viewer (README,
// "Observability"): every parse, transform, SDG build, cache lookup,
// oracle judgement and session is recorded as a span and flushed as JSONL
// at exit, each session's phases nested under its `session` span on the
// thread that ran it; tools/gadt_report folds the trace into a self-time
// table:
//
//   $ GADT_TRACE=batch.trace.jsonl ./batch_demo
//   $ gadt_report --trace batch.trace.jsonl
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"
#include "runtime/BatchRunner.h"
#include "workload/PaperPrograms.h"
#include "workload/Synthetic.h"

#include <cstdio>
#include <cstdlib>

using namespace gadt;
using namespace gadt::runtime;
using namespace gadt::workload;

int main() {
  // The fleet: three distinct subjects, each debugged four times (think:
  // one buggy submission arriving from four different CI shards).
  std::vector<ProgramPair> Fleet = {
      chainProgram(8, 5),
      treeProgram(3),
      {Figure4Fixed, Figure4Buggy, "decrement"},
  };
  std::vector<SessionRequest> Requests;
  for (unsigned Round = 0; Round < 4; ++Round)
    for (const ProgramPair &P : Fleet) {
      SessionRequest R;
      R.Source = P.Buggy;
      R.Intended = P.Fixed;
      Requests.push_back(std::move(R));
    }

  constexpr unsigned Threads = 4;
  RuntimeContext Ctx;
  std::printf("debugging %zu sessions on %u threads...\n\n", Requests.size(),
              Threads);

  std::vector<SessionResult> Results = runBatch(Ctx, Requests, Threads);
  for (size_t I = 0; I < Results.size(); ++I) {
    const SessionResult &R = Results[I];
    if (R.Found)
      std::printf("  [%2zu] bug in '%s' (%u oracle judgements)\n", I,
                  R.UnitName.c_str(), R.Stats.Judgements);
    else
      std::printf("  [%2zu] no bug found: %s\n", I, R.Message.c_str());
  }

  unsigned Judgements = 0, UserQueries = 0;
  for (const SessionResult &R : Results) {
    Judgements += R.Stats.Judgements;
    UserQueries += R.Stats.userQueries();
  }
  std::printf("\noracle accounting over the batch:\n  %u judgements, %u "
              "answered by the user\n",
              Judgements, UserQueries);

  std::printf("cache accounting after the cold batch:\n  %s\n",
              Ctx.stats().str().c_str());

  // Run the same fleet again: every artifact is already cached.
  runBatch(Ctx, Requests, Threads);
  std::printf("after a warm batch over the same fleet:\n  %s\n",
              Ctx.stats().str().c_str());

  if (const char *TracePath = std::getenv("GADT_TRACE"))
    std::printf("\ntracing: %llu events will be flushed to %s "
                "(load in chrome://tracing or Perfetto)\n",
                static_cast<unsigned long long>(
                    obs::Tracer::global().eventCount()),
                TracePath);
  else
    std::printf("\nhint: GADT_TRACE=t.jsonl ./batch_demo\n");
  return 0;
}
