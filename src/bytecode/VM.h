//===- VM.h - Bytecode dispatch loop ----------------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register VM executing bytecode::CompiledProgram over the shared
/// interp::ExecState substrate — the interpreter's only executor. Internal
/// to interp::Interpreter, whose public surface (run, callRoutine,
/// InterpOptions::Code) is the way in.
///
/// The dispatch loop is chosen at build time: threaded (computed-goto
/// label tables) where the compiler supports `&&label`, a switch loop
/// otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_BYTECODE_VM_H
#define GADT_BYTECODE_VM_H

#include "bytecode/Bytecode.h"
#include "interp/ExecState.h"

namespace gadt {
namespace bytecode {

/// Reusable VM stacks (register file, frame stack, activation pool). Owned
/// by the Interpreter and carried across runs so repeated executions reuse
/// warmed allocations, like the pooled cells.
struct VMState;

VMState *createVMState();
void destroyVMState(VMState *);

/// Executes the whole program: resets \p S (keeping Arena/FreeList pool
/// capacity), runs the main program as the root unit and returns its
/// result.
interp::ExecResult run(interp::ExecState &S, const CompiledProgram &CP,
                       VMState &VS);

/// Executes \p Callee directly (see interp::Interpreter::callRoutine):
/// resets \p S, builds the static chain from the main program down to the
/// callee's parent with default-initialized frames, applies \p Presets to
/// those frames by name (innermost scope first), and runs the callee as the
/// only unit. \p Args holds one value per parameter.
interp::CallOutcome call(interp::ExecState &S, const CompiledProgram &CP,
                         VMState &VS, const pascal::RoutineDecl *Callee,
                         std::vector<interp::Value> Args,
                         const std::vector<interp::Binding> &Presets);

} // namespace bytecode
} // namespace gadt

#endif // GADT_BYTECODE_VM_H
