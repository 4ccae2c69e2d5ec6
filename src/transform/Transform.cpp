//===- Transform.cpp - Transformation driver ------------------------------===//

#include "transform/Transform.h"

#include "analysis/CallGraph.h"
#include "analysis/SideEffects.h"
#include "obs/Trace.h"
#include "pascal/Sema.h"

using namespace gadt;
using namespace gadt::transform;
using namespace gadt::pascal;

bool gadt::transform::transformProgramInPlace(Program &P,
                                              DiagnosticsEngine &Diags,
                                              TransformStats &Stats,
                                              TransformOptions Opts) {
  // Goto passes can enable each other (a broken goto lands inside a loop, a
  // loop escape produces a new non-local goto), so alternate to fixpoint.
  for (unsigned Round = 0; Round < 100; ++Round) {
    unsigned Before = Stats.LoopsRewritten + Stats.GotosBroken;
    if (Opts.RewriteLoopEscapes && !rewriteLoopEscapes(P, Diags, Stats))
      return false;
    if (Opts.BreakGlobalGotos && !breakGlobalGotos(P, Diags, Stats))
      return false;
    unsigned After = Stats.LoopsRewritten + Stats.GotosBroken;
    if (After == Before)
      break;
  }

  if (Opts.GlobalsToParams && !convertGlobalsToParams(P, Diags, Stats))
    return false;
  return true;
}

TransformResult gadt::transform::transformProgram(const Program &P,
                                                  DiagnosticsEngine &Diags,
                                                  TransformOptions Opts) {
  obs::Span Span("transform", "transform");
  TransformResult Result;
  std::unique_ptr<Program> Work = P.clone();

  if (!transformProgramInPlace(*Work, Diags, Result.Stats, Opts))
    return Result;

  Result.Transformed = std::move(Work);
  Span.arg("loops_rewritten", Result.Stats.LoopsRewritten);
  Span.arg("gotos_broken", Result.Stats.GotosBroken);
  Span.arg("globals_converted", Result.Stats.GlobalsConverted);
  return Result;
}
