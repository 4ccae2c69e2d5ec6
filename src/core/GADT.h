//===- GADT.h - Generalized Algorithmic Debugging and Testing ---*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level GADT system (paper Figure 3): transformation phase,
/// tracing phase, and debugging phase with its three components — pure
/// algorithmic debugging, test-case lookup, and program slicing. This is
/// the public API a user of the library drives:
///
/// \code
///   DiagnosticsEngine Diags;
///   auto Prog = pascal::parseAndCheck(Source, Diags);
///   core::GADTSession Session(*Prog, {}, Diags);
///   Session.addTestDatabase(Spec, ReportDB);       // optional
///   Session.assertions().addAssertion(...);        // optional
///   core::IntendedProgramOracle User(*FixedProg);  // or InteractiveOracle
///   core::BugReport Bug = Session.debug(User, /*Input=*/{});
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GADT_CORE_GADT_H
#define GADT_CORE_GADT_H

#include "analysis/SDG.h"
#include "core/AssertionOracle.h"
#include "core/Debugger.h"
#include "core/Oracle.h"
#include "core/TestOracle.h"
#include "interp/Interpreter.h"
#include "pascal/AST.h"
#include "tgen/ReportDB.h"
#include "transform/Transform.h"

#include <memory>

namespace gadt {
namespace core {

struct GADTOptions {
  /// Run the transformation phase first (paper Section 5.1). Programs that
  /// are already side-effect free pass through unchanged.
  bool Transform = true;
  /// Trace local loops (and optionally iterations) as debugging units.
  bool TraceLoops = false;
  bool TraceIterations = false;
  DebuggerOptions Debugger;
};

/// Prebuilt, shareable session inputs. The batch runtime (src/runtime)
/// produces these from its cross-session caches so that repeated sessions
/// over the same subject skip the transformation, dependence-graph and
/// slicing work; a session constructed from artifacts rebuilds nothing.
/// Every member is immutable after construction and safe to share across
/// concurrently running sessions.
struct SessionArtifacts {
  /// Fingerprint of the subject: the FNV-1a hash of its source text
  /// (support/Hashing.h hashBytes), the key of every runtime cache.
  uint64_t Fingerprint = 0;
  /// The parsed original. Pins the AST (and its TypeContext) that
  /// \c Prepared shares.
  std::shared_ptr<const pascal::Program> Subject;
  /// The program to trace and debug: the transformed clone, or \c Subject
  /// itself when transformation is off.
  std::shared_ptr<const pascal::Program> Prepared;
  transform::TransformStats TransformInfo;
  /// Dependence graph over \c Prepared; null unless static slicing was
  /// requested when the artifacts were prepared.
  std::shared_ptr<const analysis::SDG> Sdg;
  /// Shared static-slice memo over \c Sdg; may be null.
  SliceProvider Slices;
  /// Bytecode compiled from \c Prepared (src/bytecode); null when the
  /// compiler rejected the program or the artifacts were prepared without
  /// the shared code cache. Sessions hand this to the interpreter so
  /// repeated runs skip compilation.
  std::shared_ptr<const bytecode::CompiledProgram> Code;
};

/// One debugging session over one subject program. The session owns the
/// transformed program, the dependence graph, and the most recent execution
/// tree; it can be re-run on different inputs and with different oracles.
class GADTSession {
public:
  /// Prepares the session (transformation + dependence graph). On failure
  /// \c valid() is false and \p Diags explains why. \p Subject must outlive
  /// the session.
  GADTSession(const pascal::Program &Subject, GADTOptions Opts,
              DiagnosticsEngine &Diags);

  /// Prepares the session from shared artifacts: the transformed program,
  /// dependence graph and slice memo are injected instead of rebuilt.
  /// \p Artifacts must have been prepared with the same transformation and
  /// slicing settings as \p Opts requests.
  GADTSession(std::shared_ptr<const SessionArtifacts> Artifacts,
              GADTOptions Opts, DiagnosticsEngine &Diags);
  ~GADTSession();

  bool valid() const { return Prepared != nullptr; }

  /// The program actually being debugged (transformed when enabled).
  const pascal::Program &subject() const { return *Prepared; }
  const transform::TransformStats &transformStats() const {
    return TransformInfo;
  }

  /// Registers a test database for the test-lookup component.
  void addTestDatabase(std::shared_ptr<const tgen::TestSpec> Spec,
                       std::shared_ptr<const tgen::TestReportDB> DB);
  /// The assertion store consulted before the test database and the user.
  /// It types assertion names by their declarations in subject().
  AssertionOracle &assertions() { return Assertions; }

  /// Runs the full pipeline: trace the subject on \p Input, then search for
  /// the bug, consulting assertions, then the test database, then
  /// \p UserOracle. Returns an unsuccessful report (with Message) when
  /// execution of the subject failed outright.
  BugReport debug(Oracle &UserOracle, std::vector<int64_t> Input = {});

  /// Statistics of the most recent debug() run.
  const SessionStats &stats() const { return LastStats; }
  /// The execution tree of the most recent debug() run (null before any).
  const trace::ExecTree *tree() const { return LastTree.get(); }
  /// The outcome of the most recent traced execution.
  const interp::ExecResult &lastRun() const { return LastRun; }

private:
  /// The dependence graph in effect: owned or injected.
  const analysis::SDG *sdg() const;

  GADTOptions Opts;
  std::unique_ptr<pascal::Program> TransformedStorage;
  const pascal::Program *Prepared = nullptr;
  transform::TransformStats TransformInfo;
  std::unique_ptr<analysis::SDG> Sdg;
  /// Set when constructed from shared artifacts; keeps injected programs,
  /// graph and slice memo alive for the session's lifetime.
  std::shared_ptr<const SessionArtifacts> Artifacts;
  AssertionOracle Assertions;
  TestDatabaseOracle TestOracleImpl;
  std::unique_ptr<trace::ExecTree> LastTree;
  interp::ExecResult LastRun;
  SessionStats LastStats;
};

} // namespace core
} // namespace gadt

#endif // GADT_CORE_GADT_H
