//===- Transform.h - The GADT transformation phase --------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's transformation phase (Sections 5.1 and 6): rewrite a program
/// with global side effects and global gotos into an equivalent program
/// whose units are side-effect free at the unit level, so that standard
/// algorithmic debugging applies. Three passes, in order:
///
///  1. rewriteLoopEscapes  — gotos jumping out of while loops become a
///     `leave` flag, a local jump to the end of the loop body, and a
///     conditional goto after the loop (paper: "Handling gotos inside a
///     loop addressed outside the loop").
///  2. breakGlobalGotos    — non-local gotos become integer exit-condition
///     parameters plus local gotos, with `if exitcond = k then goto L`
///     checks at every call site, iterated until all gotos are local
///     (paper: "Breaking global gotos into several structured local
///     gotos"). Exit side-effects in Banning's sense are thereby
///     eliminated.
///  3. convertGlobalsToParams — every non-local variable a routine may
///     reference/modify (GREF/GMOD) becomes an explicit in/out/var
///     parameter, with the variable passed at every call site (paper:
///     "Conversion of global variables to parameters").
///
/// Each pass mutates the program in place and re-runs semantic analysis;
/// the driver transformProgram() clones first, so the original is never
/// touched. The trace-generating actions the paper splices into the
/// transformed source are realized by the interpreter's unit events
/// instead (src/interp) — semantically the same observation points.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_TRANSFORM_TRANSFORM_H
#define GADT_TRANSFORM_TRANSFORM_H

#include "pascal/AST.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <vector>

namespace gadt {
namespace transform {

/// What a transformation run did, for reporting and for the transparent
/// original<->transformed presentation.
struct TransformStats {
  unsigned LoopsRewritten = 0;
  unsigned GotosBroken = 0;
  unsigned ExitParamsAdded = 0;
  unsigned GlobalsConverted = 0; ///< (routine, global) pairs converted
  std::vector<std::string> Log;  ///< human-readable notes, one per action
};

/// Result of transformProgram.
struct TransformResult {
  std::unique_ptr<pascal::Program> Transformed; ///< null on failure
  TransformStats Stats;
};

/// Runs the three passes on a clone of \p P. On failure (diagnostics in
/// \p Diags) Transformed is null. The clone shares \p P's TypeContext, so
/// \p P must outlive the result.
TransformResult transformProgram(const pascal::Program &P,
                                 DiagnosticsEngine &Diags);

/// Pass 1 (see file comment). Mutates \p P; re-analyzes; returns success.
bool rewriteLoopEscapes(pascal::Program &P, DiagnosticsEngine &Diags,
                        TransformStats &Stats);

/// Pass 2. Mutates \p P; re-analyzes; returns success. Reports an error for
/// non-local gotos inside *functions called in expressions* (the check
/// statement cannot be spliced after an expression), a case the paper does
/// not treat either.
bool breakGlobalGotos(pascal::Program &P, DiagnosticsEngine &Diags,
                      TransformStats &Stats);

/// Pass 3. Mutates \p P; re-analyzes; returns success.
bool convertGlobalsToParams(pascal::Program &P, DiagnosticsEngine &Diags,
                            TransformStats &Stats);

} // namespace transform
} // namespace gadt

#endif // GADT_TRANSFORM_TRANSFORM_H
