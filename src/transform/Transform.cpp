//===- Transform.cpp - Transformation driver ------------------------------===//

#include "transform/Transform.h"

#include "obs/Trace.h"

using namespace gadt;
using namespace gadt::transform;
using namespace gadt::pascal;

namespace {

/// Runs the three passes on \p P in place. Returns success; on failure \p P
/// is left partially transformed.
bool transformProgramInPlace(Program &P, DiagnosticsEngine &Diags,
                             TransformStats &Stats) {
  // Goto passes can enable each other (a broken goto lands inside a loop, a
  // loop escape produces a new non-local goto), so alternate to fixpoint.
  for (unsigned Round = 0; Round < 100; ++Round) {
    unsigned Before = Stats.LoopsRewritten + Stats.GotosBroken;
    if (!rewriteLoopEscapes(P, Diags, Stats))
      return false;
    if (!breakGlobalGotos(P, Diags, Stats))
      return false;
    unsigned After = Stats.LoopsRewritten + Stats.GotosBroken;
    if (After == Before)
      break;
  }

  return convertGlobalsToParams(P, Diags, Stats);
}

} // namespace

TransformResult gadt::transform::transformProgram(const Program &P,
                                                  DiagnosticsEngine &Diags) {
  obs::Span Span("transform", "transform");
  TransformResult Result;
  std::unique_ptr<Program> Work = P.clone();

  if (!transformProgramInPlace(*Work, Diags, Result.Stats))
    return Result;

  Result.Transformed = std::move(Work);
  Span.arg("loops_rewritten", Result.Stats.LoopsRewritten);
  Span.arg("gotos_broken", Result.Stats.GotosBroken);
  Span.arg("globals_converted", Result.Stats.GlobalsConverted);
  return Result;
}
