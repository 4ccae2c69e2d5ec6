//===- Bytecode.h - Slot-addressed register bytecode ------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled form of a Pascal-subset program: flat, slot-addressed
/// register bytecode executed by bytecode/VM.cpp over the tracing substrate
/// of interp/ExecState.h. The VM is the interpreter's only executor.
///
/// Design notes (see DESIGN.md "Execution engine"):
///
///  - *Fused operands.* Every value-consuming instruction field is a 16-bit
///    operand that addresses a register, a frame cell ((hops, slot) in the
///    static-link chain — PR 3's storage layout), or a constant-pool entry.
///    Fetching a cell operand performs the observeRead of reading the
///    variable, so dynamic input sets and DepSet flows follow the source
///    evaluation order; the compiler only fuses a cell operand where the
///    fetch point coincides with that order (it materializes the left
///    operand into a register whenever the right operand's expression emits
///    code of its own). Cells further than 7 static hops away or above slot
///    2047 use the wide form: an index into CompiledProgram::WideCells.
///
///  - *Events are opcodes.* Unit enter/exit, per-iteration control-dep
///    pushes, step accounting and dependence merges are dedicated opcodes
///    (Step, LoopEnter, IterBegin, ...) that call into the shared
///    ExecState. On a runtime failure or a goto the VM unwinds loop and
///    call units innermost first, raising their exit events.
///
///  - *Whole programs.* The compiler translates every analyzed program; it
///    refuses only encodings that overflow (registers, constants, wide
///    cells) and hand-built ASTs missing Sema annotations, and the
///    interpreter reports such a program as a runtime error.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_BYTECODE_BYTECODE_H
#define GADT_BYTECODE_BYTECODE_H

#include "interp/Value.h"
#include "pascal/AST.h"
#include "support/SourceLoc.h"
#include "support/Symbols.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gadt {
namespace pascal {
class AstMap;
} // namespace pascal

namespace bytecode {

//===----------------------------------------------------------------------===//
// Operand encoding
//===----------------------------------------------------------------------===//

/// A 16-bit operand: bits 15-14 select the addressing mode, the rest
/// identify the register / (hops, slot) cell / constant / wide cell.
constexpr uint16_t OpModeMask = 0xC000;
constexpr uint16_t OpReg = 0x0000;   ///< frame-relative register index
constexpr uint16_t OpCell = 0x4000;  ///< bits 13-11 hops, bits 10-0 slot
constexpr uint16_t OpConst = 0x8000; ///< constant-pool index
constexpr uint16_t OpWide = 0xC000;  ///< CompiledProgram::WideCells index

constexpr unsigned CellHopsShift = 11;
constexpr uint16_t CellSlotMask = 0x07FF;
constexpr unsigned MaxCellHops = 7;
constexpr uint16_t MaxSlot = CellSlotMask;
constexpr uint16_t MaxRegOrConst = 0x3FFF;

/// "No destination register" marker (procedure-statement calls).
constexpr uint16_t NoDest = 0xFFFF;

inline uint16_t makeRegOperand(uint16_t R) { return OpReg | R; }
inline uint16_t makeCellOperand(unsigned Hops, unsigned Slot) {
  return static_cast<uint16_t>(OpCell | (Hops << CellHopsShift) | Slot);
}
inline uint16_t makeConstOperand(uint16_t Idx) { return OpConst | Idx; }
/// Whether \p O addresses a frame cell (narrow or wide): fetching it
/// observes a read.
inline bool isCellOperand(uint16_t O) { return (O & OpCell) != 0; }

//===----------------------------------------------------------------------===//
// Instructions
//===----------------------------------------------------------------------===//

/// Every opcode the compiler emits; the VM executes each routine's code as
/// emitted.
enum class Op : uint16_t {
  // Bookkeeping.
  Step,        ///< countStep; Aux = debug index (statement location)
  // Data movement.
  Load,        ///< reg[A] = fetch(B)
  LoadChecked, ///< reg[A] = cell(B) with use-before-assign check; Aux = dbg
  Store,       ///< storeCell(cell(A), fetch(B))
  LoadIdx,     ///< reg[A] = cell(B)[fetch(C)]; Aux = dbg
  StoreIdx,    ///< cell(A)[fetch(B)] = fetch(C); Aux = dbg
  ArrayLit,    ///< reg[A] = array of regs [B, B+C)
  // Arithmetic / comparison / logic; A = dest reg, B/C operands.
  Add, Sub, Mul,
  DivOp,       ///< Aux = dbg (division by zero / overflow location)
  ModOp,       ///< Aux = dbg
  EqI, NeI, EqB, NeB, Lt, Le, Gt, Ge,
  AndB, OrB,
  NotB,        ///< reg[A] = !fetch(B)
  NegI,        ///< reg[A] = -fetch(B)
  // Control flow.
  Jmp,         ///< pc = Aux
  IfBr,        ///< pushCtrl(fetch(A).deps); if (!bool) pc = Aux
  PopCtrl,
  // Loop units. Aux = loop index for *Enter/Begin/Prep/Iter, else a target.
  LoopEnter,   ///< push loop state + enter loop unit
  WhileTest,   ///< accumulate fetch(A).deps; if (!bool) pc = Aux
  IterBegin,   ///< ++iter, step, enter iteration unit, pushCtrl(accum)
  IterEnd,     ///< popCtrl, exit iteration unit, pc = Aux
  RepeatTest,  ///< accumulate fetch(A).deps; if (!bool) pc = Aux (loop again)
  ForPrep,     ///< bind loop var cell, bounds from fetch(A)/fetch(B), pushCtrl
  ForTest,     ///< if (loop var out of range) pc = Aux
  ForIter,     ///< ++iter, step, store loop var, enter iteration unit
  ForEnd,      ///< exit iteration unit; unless the loop var is at the
               ///< limit, advance it and pc = Aux, else fall through to
               ///< the loop's exit, which follows
  LoopExit,    ///< exit loop unit, pop loop state (while/repeat)
  ForExit,     ///< popCtrl, exit loop unit, pop loop state
  // Calls.
  CallGuard,   ///< fail if the call-depth limit is hit; Aux = dbg. Emitted
               ///< before argument evaluation — a too-deep call is refused
               ///< before its arguments are evaluated.
  Call,        ///< invoke Sites[Aux]; A = dest reg or NoDest
  Ret,
  Goto,        ///< jump to label (B | C << 16) of the activation A static
               ///< hops up (NoGotoHops: none declares it); Aux = dbg
  // I/O.
  ReadFetch,   ///< reg[A] = next program input; Aux = dbg
  WriteVal,    ///< append fetch(A) to the output text
  WriteNl,     ///< append '\n'
};

/// Every opcode, in enum order — the threaded dispatcher builds its label
/// table from this list, so it must stay in lockstep with `enum Op` (a
/// static_assert in VM.cpp checks).
#define GADT_BC_OPS(X)                                                       \
  X(Step) X(Load) X(LoadChecked) X(Store) X(LoadIdx) X(StoreIdx)             \
  X(ArrayLit) X(Add) X(Sub) X(Mul) X(DivOp) X(ModOp) X(EqI) X(NeI) X(EqB)    \
  X(NeB) X(Lt) X(Le) X(Gt) X(Ge) X(AndB) X(OrB) X(NotB) X(NegI) X(Jmp)       \
  X(IfBr) X(PopCtrl) X(LoopEnter) X(WhileTest) X(IterBegin) X(IterEnd)       \
  X(RepeatTest) X(ForPrep) X(ForTest) X(ForIter) X(ForEnd) X(LoopExit)       \
  X(ForExit) X(CallGuard) X(Call) X(Ret) X(Goto) X(ReadFetch) X(WriteVal)    \
  X(WriteNl)

struct Instr {
  Op Code;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint32_t Aux = 0;
};

/// Goto's A field when no enclosing routine declares the label (hand-built
/// ASTs); executing it is a runtime error.
constexpr uint16_t NoGotoHops = 0xFFFF;

inline int gotoLabel(const Instr &I) {
  return static_cast<int>(static_cast<uint32_t>(I.B) |
                          static_cast<uint32_t>(I.C) << 16);
}

//===----------------------------------------------------------------------===//
// Side tables
//===----------------------------------------------------------------------===//

/// Location/name payload for instructions that can raise runtime errors.
/// Deduplicated; errors are cold, so this stays out of the Instr encoding.
struct DebugInfo {
  SourceLoc Loc;
  std::string Name; ///< variable name for unset/bounds messages
  bool InRead = false; ///< bounds message variant for read statements
};

/// One call site, fully resolved at compile time.
struct ArgDesc {
  bool IsRef = false;
  /// Ref: cell operand for the caller-side variable. Value: register
  /// (caller frame) holding the evaluated argument.
  uint16_t Operand = 0;
  const pascal::VarDecl *Param = nullptr;
  support::Symbol Name; ///< interned parameter name (entry-input bindings)
};

struct CallSiteInfo {
  const pascal::RoutineDecl *Callee = nullptr;
  uint32_t RoutineIdx = 0;
  /// Static-link hops from the caller's activation; -1 = no static parent.
  int32_t LinkHops = -1;
  const pascal::Stmt *CallStmt = nullptr;
  const pascal::Expr *CallExpr = nullptr;
  SourceLoc Loc;
  /// Argument descriptors live in CompiledProgram::ArgPool, rows
  /// [ArgStart, ArgStart + ArgCount) — one flat allocation for the whole
  /// program instead of a heap vector per site.
  uint32_t ArgStart = 0;
  uint32_t ArgCount = 0;
};

/// One compiled loop statement.
struct LoopInfo {
  enum class Kind : uint8_t { While, Repeat, For } K = Kind::While;
  const pascal::Stmt *Stmt = nullptr;
  support::Symbol UnitName;
  SourceLoc Loc;
  bool Down = false;        ///< for-loops: downto
  uint16_t VarOperand = 0;  ///< for-loops: loop-variable cell operand
};

/// A cell operand too far away for the narrow encoding.
struct WideCell {
  uint32_t Hops = 0;
  uint32_t Slot = 0;
};

/// A label a goto can land on: a labeled statement that is an immediate
/// child of a compound statement. A goto taken while its target activation
/// is at pc P lands here when ScopeBegin <= P < ScopeEnd, the code range of
/// that compound; otherwise it would jump into a structured statement.
struct LabelInfo {
  int Label = 0;
  uint32_t Target = 0; ///< pc of the labeled statement
  uint32_t ScopeBegin = 0, ScopeEnd = 0;
  uint16_t LoopDepth = 0; ///< loops of the routine open at the label
  uint16_t CtrlDepth = 0; ///< control-dependence pushes open at the label
  const pascal::Stmt *Stmt = nullptr; ///< the labeled statement
};

struct CompiledRoutine {
  const pascal::RoutineDecl *Routine = nullptr;
  std::vector<Instr> Code;
  uint32_t NumRegs = 0;
  /// Landing sites for gotos into this routine; pcs are routine-local.
  std::vector<LabelInfo> Labels;
};

/// The side-table rows one routine's code owns. Every table is emitted
/// per routine in routine order (the const pool's dedup maps reset per
/// routine to keep it that way), so a routine's rows form one contiguous
/// run — the unit the incremental recompile splices.
struct RoutineSegment {
  uint32_t ConstStart = 0, ConstCount = 0;
  uint32_t WideStart = 0, WideCount = 0;
  uint32_t SiteStart = 0, SiteCount = 0;
  uint32_t ArgStart = 0, ArgCount = 0;
  uint32_t LoopStart = 0, LoopCount = 0;
  uint32_t DebugStart = 0, DebugCount = 0;
};

/// AST provenance of one Debug row: the statement or expression whose
/// location/name it carries. Replaying a routine's code across an edit
/// refreshes DebugInfo::Loc from the remapped node, so line shifts caused
/// by edits elsewhere in the file never leave stale locations behind.
struct DebugSrc {
  const pascal::Stmt *S = nullptr;
  const pascal::Expr *E = nullptr;
};

/// A whole compiled program. Immutable after compilation; safe to share
/// across threads and cache per program fingerprint. References the AST it
/// was compiled from — the program must outlive it.
struct CompiledProgram {
  const pascal::Program *Prog = nullptr;
  /// Compiled with use-before-assign checking (InterpOptions::
  /// DetectUninitialized); codegen differs, so checked and unchecked runs
  /// need separate compilations.
  bool Checked = false;
  std::vector<CompiledRoutine> Routines; ///< [0] = the main program
  std::vector<interp::Value> Consts;
  std::vector<WideCell> WideCells; ///< targets of OpWide operands
  std::vector<CallSiteInfo> Sites;
  std::vector<ArgDesc> ArgPool; ///< flat storage indexed by CallSiteInfo
  std::vector<LoopInfo> Loops;
  std::vector<DebugInfo> Debug;
  /// Per-routine spans of the side tables above, parallel to Routines.
  std::vector<RoutineSegment> Segments;
  /// Provenance of each Debug row, parallel to Debug.
  std::vector<DebugSrc> DebugSources;

  /// Rough retained-size estimate for cache occupancy gauges.
  size_t memoryBytes() const;
};

/// What an incremental recompile may keep. Routines whose Replay flag is
/// set are spliced from \p Old instead of recompiled: their instructions
/// are copied with side-table indices shifted to the new layout, and the
/// AST pointers in their Sites/ArgPool/Loops/Debug rows are remapped
/// through \p Map onto the new program's nodes (refreshing the recorded
/// source locations — an edit above a clean routine shifts its lines).
struct CodeReusePlan {
  const CompiledProgram *Old = nullptr;
  const pascal::AstMap *Map = nullptr;
  /// Parallel to the old program's Routines: nonzero = replay.
  std::vector<char> Replay;
};

/// Counters an incremental recompile reports back.
struct CodeRebuildStats {
  unsigned Recompiled = 0;
  unsigned Replayed = 0;
  bool ReplayFellBack = false;
};

/// Compiles \p P (which must have storage slots assigned) to bytecode.
/// Returns null when the program overflows an encoding limit or lacks Sema
/// annotations; \p WhyNot (optional) receives the first reason.
std::shared_ptr<const CompiledProgram>
compile(const pascal::Program &P, bool Checked, std::string *WhyNot = nullptr);

/// Incremental variant: recompiles only routines \p Reuse marks dirty and
/// replays the rest from Reuse.Old. Falls back to a full compile (setting
/// Stats->ReplayFellBack) when the plan does not line up with the new
/// program — never fails where the full compiler would succeed.
std::shared_ptr<const CompiledProgram>
compileWithReuse(const pascal::Program &P, bool Checked,
                 const CodeReusePlan &Reuse, CodeRebuildStats *Stats,
                 std::string *WhyNot = nullptr);

} // namespace bytecode
} // namespace gadt

#endif // GADT_BYTECODE_BYTECODE_H
