//===- Passes.h - Bytecode middle-end -----------------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compile-time optimization passes over one routine's bytecode, run by
/// the compiler between codegen and segment finalization. Every pass is
/// transcript-preserving: only instructions whose effects are pure
/// register/constant data flow are touched — anything that observes a
/// frame cell (observeRead/observeWrite), raises a unit event, counts a
/// step or can fail at runtime is a barrier the passes refuse to cross or
/// remove. See DESIGN.md "Execution engine" for the argument.
///
/// Pipeline (each stage gated by CompileOptions):
///  1. Constant folding — a block-local propagation lattice over registers
///     (killed at branch targets), folding pure unary/binary ops whose
///     operands are constants and rewriting downstream operands in place.
///  2. Redundant LoadChecked elision — a second checked load of the same
///     cell becomes a register move when the first load dominates it in
///     the same straight-line, store-free, unit-event-free region (the
///     unset check and the observeRead are both provably no-ops then).
///  3. Dead-store elision — register writes never read anywhere in the
///     routine are dropped, iterated to a fixpoint; only reg/const-sourced
///     instructions qualify (cell loads stay: their observeRead feeds the
///     dynamic input sets).
///  4. Superinstruction fusion — the statically dominant adjacent pairs
///     (Step+Load, cmp+branch, cmp+loop-test, binop+store) fuse into one
///     opcode when the second instruction is not a branch target and the
///     linking register is a statement-local temporary.
/// A compaction step strips the Nop placeholders and remaps branch
/// targets. Goto landing sites (LabelInfo) count as branch targets and are
/// remapped with them.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_BYTECODE_PASSES_H
#define GADT_BYTECODE_PASSES_H

#include "bytecode/Bytecode.h"

#include <utility>
#include <vector>

namespace gadt {
namespace bytecode {

/// Runs the middle-end over one routine's freshly compiled code. Folded
/// constants are appended to \p Consts and stay inside the routine's open
/// segment (the caller records the segment count afterwards); \p Sites /
/// \p ArgPool are read for register liveness at call sites; \p Labels
/// (optional) are the routine's goto landing sites, whose pcs are kept in
/// step with the code. Accumulates into \p Stats.
void optimizeRoutine(std::vector<Instr> &Code, uint32_t NumRegs,
                     std::vector<interp::Value> &Consts, size_t ConstBase,
                     const std::vector<CallSiteInfo> &Sites,
                     const std::vector<ArgDesc> &ArgPool,
                     const CompileOptions &Opts, OptStats &Stats,
                     std::vector<LabelInfo> *Labels = nullptr);

/// Static (first, second) opcode adjacency frequencies over a compiled
/// program, most frequent first. Pairs whose second instruction is a
/// branch target are not counted — they are not fusible. This is the
/// measurement the superinstruction set was selected from.
std::vector<std::pair<std::pair<Op, Op>, uint32_t>>
staticPairFrequencies(const CompiledProgram &CP);

} // namespace bytecode
} // namespace gadt

#endif // GADT_BYTECODE_PASSES_H
