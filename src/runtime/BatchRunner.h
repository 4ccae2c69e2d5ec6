//===- BatchRunner.h - Parallel batch-debugging runtime ---------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes many independent debugging sessions — each a (program, input,
/// oracle, options) tuple — as one support::parallelFor over runSession.
/// Sessions draw their transformed program, dependence graph and static
/// slices from a shared RuntimeContext, so repeated sessions over the same
/// subject skip all recomputation; everything per-session (the traced
/// execution tree, the oracle dialogue, the judgement memo) stays on the
/// thread that runs it.
///
/// Results are deterministic: result[i] always belongs to request[i], and
/// a request's outcome is a pure function of the request, so any thread
/// count (including 1) produces byte-identical results. A fan-out inside a
/// session (the SDG's per-routine build) runs inline on the session's
/// thread while the batch is spread over several threads.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_RUNTIME_BATCHRUNNER_H
#define GADT_RUNTIME_BATCHRUNNER_H

#include "runtime/RuntimeContext.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace gadt {
namespace runtime {

/// One debugging job: a subject, an input, an oracle and options.
struct SessionRequest {
  /// Source text of the buggy subject program.
  std::string Source;
  /// Source text of the intended (reference) program; when non-empty, the
  /// session's user oracle is an IntendedProgramOracle over it (the parse
  /// is interned in the shared context).
  std::string Intended;
  /// Values consumed by the subject's read() statements.
  std::vector<int64_t> Input;
  core::GADTOptions Opts;
  /// Overrides \c Intended: builds this session's private oracle. Must be
  /// callable from any worker thread (a fresh oracle per call).
  std::function<std::unique_ptr<core::Oracle>()> MakeOracle;
};

/// The outcome of one session, self-contained (no pointers into the
/// session's execution tree, which dies with the session).
struct SessionResult {
  bool Prepared = false; ///< artifacts + session construction succeeded
  bool Found = false;
  std::string UnitName;
  std::string WrongOutput;
  std::string Message;
  uint64_t Fingerprint = 0; ///< the subject's source-text hash
  core::SessionStats Stats;

  /// Canonical rendering of everything above including the full dialogue —
  /// the unit of the byte-identical determinism guarantee.
  std::string summary() const;
};

/// Runs a session against the shared context, serially on the calling
/// thread. runBatch runs exactly this per request, so a serial loop over
/// runSession is the reference the parallel results are compared against.
SessionResult runSession(RuntimeContext &Ctx, const SessionRequest &Req);

/// Runs every request on up to \p Threads threads (0: one per hardware
/// thread) and returns the results in request order. Later batches on the
/// same context reuse its warm caches. An exception a session throws
/// reaches the caller once the batch's threads have joined.
std::vector<SessionResult> runBatch(RuntimeContext &Ctx,
                                    const std::vector<SessionRequest> &Requests,
                                    unsigned Threads = 0);

} // namespace runtime
} // namespace gadt

#endif // GADT_RUNTIME_BATCHRUNNER_H
