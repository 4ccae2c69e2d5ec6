//===- Interpreter.h - Tracing Pascal interpreter ---------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter for the Pascal subset, with the hooks GADT's tracing
/// phase needs. It compiles the program once (bytecode/Compiler.cpp, or
/// takes precompiled code through InterpOptions::Code) and executes it on
/// the register VM (bytecode/VM.cpp) — the one execution engine behind
/// tracing, oracle replays and T-GEN test runs:
///
///  - Unit events: every routine call (and, optionally, every local loop and
///    loop iteration — the paper's debugging units) raises enter/exit events
///    carrying input and output bindings. Input/output sets are computed
///    *dynamically*: a unit's inputs are the parameters plus every non-local
///    cell it read before writing; its outputs are the var/out parameters
///    and non-local cells it wrote, plus the function result. This realizes
///    the paper's requirement that the execution tree record "parameter
///    values and value of variables which cause global side-effects within
///    the unit" without relying on static analysis.
///
///  - Dependence tracking: when enabled, every register and cell has the
///    set of unit executions whose outputs flowed into its value (including
///    dynamic control dependences), kept in side arrays beside them, and
///    each unit's output bindings come with their sets, which the dynamic
///    slicer consumes.
///
///  - Gotos execute with exit-side-effect semantics: a goto leaves every
///    loop and call between it and its label, raising their exit events
///    (activations unwind until the declaring routine is reached), and
///    abandons the rest of the statement it was taken in, so untransformed
///    programs behave identically to their transformed versions.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_INTERP_INTERPRETER_H
#define GADT_INTERP_INTERPRETER_H

#include "interp/DepSet.h"
#include "interp/Value.h"
#include "pascal/AST.h"
#include "support/SourceLoc.h"
#include "support/Symbols.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gadt {
namespace bytecode {
struct CompiledProgram;
} // namespace bytecode
namespace interp {

/// A fatal condition encountered while executing the subject program.
struct RuntimeError {
  SourceLoc Loc;
  std::string Message;
};

/// What kind of debugging unit an execution-tree node stands for.
enum class UnitKind : uint8_t { Call, Loop, Iteration };

/// A named value crossing a unit boundary. The name is an interned symbol:
/// one word per binding, and the execution tree's millions of bindings
/// share a single copy of each distinct name.
struct Binding {
  support::Symbol Name;
  Value V;
};

/// Identification of a unit execution, delivered on entry.
struct UnitStart {
  uint32_t NodeId = 0;
  UnitKind Kind = UnitKind::Call;
  /// Routine name for calls; the loop's synthesized unit name for loops and
  /// iterations. Interned — comparisons are integer compares.
  support::Symbol Name;
  const pascal::RoutineDecl *Routine = nullptr; // calls only
  const pascal::Stmt *CallStmt = nullptr;  // statement-position call site
  const pascal::Expr *CallExpr = nullptr;  // expression-position call site
  const pascal::Stmt *LoopStmt = nullptr;  // loops and iterations
  uint32_t IterIndex = 0;                  // 1-based, iterations only
  SourceLoc Loc;
};

/// Receives unit enter/exit events; the trace library's ExecTreeBuilder is
/// the canonical implementation.
class TraceListener {
public:
  virtual ~TraceListener();
  virtual void enterUnit(const UnitStart &Start) = 0;
  /// \p OutputDeps is parallel to \p Outputs on runs with
  /// InterpOptions::TrackDeps — the dependence set of each output value —
  /// and empty otherwise.
  virtual void exitUnit(uint32_t NodeId, std::vector<Binding> Inputs,
                        std::vector<Binding> Outputs,
                        std::vector<DepSet> OutputDeps) = 0;
};

/// Execution knobs.
struct InterpOptions {
  /// Raise unit events for local loops (paper: loops are debugging units).
  bool TraceLoops = false;
  /// Raise unit events for individual loop iterations (requires TraceLoops).
  bool TraceIterations = false;
  /// Track value dependences for dynamic slicing.
  bool TrackDeps = false;
  /// Abort with a runtime error after this many executed statements.
  uint64_t MaxSteps = 50000000;
  /// Abort when the subject's call depth exceeds this (runaway recursion
  /// would otherwise exhaust the host stack).
  unsigned MaxCallDepth = 1000;
  /// Strict mode: scalar variables start out unset and reading one before
  /// assigning it is a runtime error, as is a function returning without
  /// assigning its result. (Arrays are still zero-initialized; per-element
  /// tracking is out of scope.) Off by default — standard Pascal leaves
  /// such reads undefined, and the paper's programs do not rely on them.
  bool DetectUninitialized = false;
  /// Precompiled bytecode for the program being run (e.g. from the
  /// RuntimeContext code cache). Used only when it matches the program and
  /// the DetectUninitialized mode; otherwise the interpreter compiles on
  /// its own, once, at its first run or call. The referenced program must
  /// stay alive for as long as this compiled unit is used.
  std::shared_ptr<const bytecode::CompiledProgram> Code;
};

/// Result of running a whole program.
struct ExecResult {
  bool Ok = false;
  RuntimeError Error;
  /// Text produced by write/writeln.
  std::string Output;
  /// Final values of the program's global variables.
  std::vector<Binding> FinalGlobals;
  uint64_t Steps = 0;
  uint32_t UnitsExecuted = 0;
  /// Cells allocated from the arena's free list instead of grown.
  uint64_t CellsPooled = 0;
};

/// Result of invoking one routine directly (used by the T-GEN test runner
/// and by reference-program oracles).
struct CallOutcome {
  bool Ok = false;
  RuntimeError Error;
  /// var/out parameters (final values) and, for functions, the result —
  /// in declaration order, result last.
  std::vector<Binding> Outputs;
  std::string Output;
};

/// The interpreter. One instance executes one program; it may be run and
/// called into any number of times (state is reset per run or call, and
/// the compiled code and VM stacks are reused). A program the compiler
/// rejects (an encoding overflow) fails every run with a runtime error.
class Interpreter {
public:
  explicit Interpreter(const pascal::Program &P, InterpOptions Opts = {});
  ~Interpreter();

  Interpreter(const Interpreter &) = delete;
  Interpreter &operator=(const Interpreter &) = delete;

  /// Values consumed by read() statements, in order.
  void setInput(std::vector<int64_t> Input);
  /// Receives unit events; may be null. Not owned.
  void setListener(TraceListener *L);

  /// Executes the whole program.
  ExecResult run();

  /// Executes a single routine. \p Name is resolved by pascal::findRoutine:
  /// a qualified path from the program (`p.b.helper`) or a plain
  /// (lowercase) name that exactly one routine has; a plain name several
  /// routines share fails with an error naming it. \p Args supplies one
  /// value per parameter (values for var/out parameters initialize the
  /// callee-visible cell; pass Value() for out parameters). Globals are
  /// default-initialized, then overridden by \p GlobalPresets (matched by
  /// name against the variables of enclosing scopes) — this lets reference
  /// oracles replay a traced call of a routine with global side effects.
  ///
  /// Outputs carry the same bindings a traced execution would record
  /// (written var/out parameters, global side effects, function result),
  /// plus unwritten var parameters for checker convenience.
  CallOutcome callRoutine(const std::string &Name, std::vector<Value> Args,
                          const std::vector<Binding> &GlobalPresets = {});

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Returns a default-initialized value of type \p Ty (0 / false / zeroed
/// array with declared bounds).
Value defaultValue(const pascal::Type *Ty);

} // namespace interp
} // namespace gadt

#endif // GADT_INTERP_INTERPRETER_H
