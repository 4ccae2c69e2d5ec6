//===- BatchRunner.h - Parallel batch-debugging runtime ---------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes many independent debugging sessions — each a (program, input,
/// oracle, options) tuple — across a fixed-size thread pool with a shared
/// work queue. Sessions draw their transformed program, dependence graph
/// and static slices from a shared RuntimeContext, so repeated sessions
/// over the same subject skip all recomputation; everything per-session
/// (the traced execution tree, the oracle dialogue, the judgement memo)
/// stays thread-local.
///
/// Results are deterministic: result[i] always belongs to request[i], and
/// a request's outcome is a pure function of the request, so any thread
/// count (including 1) produces byte-identical results.
///
/// Under tracing, every request carries an obs::FlowContext id from the
/// enqueuing thread to the worker that executes it: the enqueue slice
/// emits a flow-start, the worker a flow-step at pickup, and the session
/// span a flow-finish — Perfetto renders the three as arrows stitching one
/// session's slices across threads. Workers name their trace tracks
/// "gadt-worker-<n>".
///
//===----------------------------------------------------------------------===//

#ifndef GADT_RUNTIME_BATCHRUNNER_H
#define GADT_RUNTIME_BATCHRUNNER_H

#include "runtime/RuntimeContext.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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

struct BatchOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  unsigned Threads = 0;
};

/// Runs a session against the shared context, serially on the calling
/// thread. BatchRunner workers execute exactly this, so a serial loop over
/// runSession is the reference the parallel results are compared against.
SessionResult runSession(RuntimeContext &Ctx, const SessionRequest &Req);

/// The pool. Workers start on construction and join on destruction; run()
/// may be called repeatedly (later batches reuse the warmed context).
class BatchRunner {
public:
  explicit BatchRunner(std::shared_ptr<RuntimeContext> Ctx,
                       BatchOptions Opts = {});
  ~BatchRunner();

  BatchRunner(const BatchRunner &) = delete;
  BatchRunner &operator=(const BatchRunner &) = delete;

  /// Executes all requests and returns results in request order. Blocks
  /// until the batch completes. Not reentrant.
  std::vector<SessionResult> run(const std::vector<SessionRequest> &Requests);

  RuntimeContext &context() { return *Ctx; }
  unsigned threadCount() const { return Threads; }

private:
  struct Batch;
  void workerLoop(unsigned Index);

  std::shared_ptr<RuntimeContext> Ctx;
  unsigned Threads;
  std::vector<std::thread> Workers;

  std::mutex M;
  std::condition_variable WorkReady;
  std::deque<std::function<void()>> Queue;
  bool Stopping = false;
};

} // namespace runtime
} // namespace gadt

#endif // GADT_RUNTIME_BATCHRUNNER_H
