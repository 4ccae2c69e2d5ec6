//===- Synthetic.h - Synthetic program generator ----------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic generators of (intended, buggy) program pairs with a known
/// bug location. These stand in for the "larger programs" the paper aims at
/// (Section 9: "We intend to test it on larger programs soon") and drive
/// the scaling/ablation benchmarks plus the randomized property tests
/// (transformation equivalence, debugger completeness).
///
//===----------------------------------------------------------------------===//

#ifndef GADT_WORKLOAD_SYNTHETIC_H
#define GADT_WORKLOAD_SYNTHETIC_H

#include <cstdint>
#include <string>

namespace gadt {
namespace workload {

/// An (intended, buggy) pair plus the routine whose body contains the bug.
struct ProgramPair {
  std::string Fixed;
  std::string Buggy;
  std::string BuggyRoutine;
};

/// A linear call chain p1 -> p2 -> ... -> pN with the bug planted in
/// p<BugIndex> (1-based). Top-down debugging cost grows linearly with
/// BugIndex; divide-and-query logarithmically with N.
ProgramPair chainProgram(unsigned N, unsigned BugIndex);

/// A complete binary call tree of the given depth; the bug sits in the
/// leaf reached by always taking the *last* child (the worst case for
/// left-to-right top-down search).
ProgramPair treeProgram(unsigned Depth);

/// The paper's Figure 5 shape: procedure p performs N-1 calls that are
/// irrelevant to its output y, then one relevant call. Slicing on y removes
/// all N-1 irrelevant queries (Section 7).
ProgramPair wideIrrelevantProgram(unsigned N);

/// Options for the randomized generator.
struct SyntheticOptions {
  uint32_t Seed = 1;
  unsigned NumRoutines = 6;
  unsigned NumGlobals = 3;
  unsigned StmtsPerRoutine = 5;
  bool UseLoops = true;
  bool UseGotos = false; ///< plant non-local gotos (transform stress)
};

/// A random structured program pair: flat routines calling lower-numbered
/// ones, global side effects, bounded loops, optional non-local gotos, and
/// one off-by-one bug in a random routine. Programs always terminate and
/// raise no runtime error, but their integer arithmetic is unbounded: some
/// seeds (3 among them) multiply past INT64_MAX, where the VM's unchecked
/// arithmetic wraps.
ProgramPair randomProgram(const SyntheticOptions &Opts);

/// A hub-and-leaves program for the incremental-recompute benchmarks and
/// differential tests: \p Leaves loop-heavy leaf procedures, one hub
/// calling all of them, and a main calling the hub. \p Variant perturbs
/// only the body of leaf \p EditedLeaf (1-based; 0 = no edit), so two
/// variants differ in exactly one routine body — the single-routine edit an
/// incremental commit should isolate. Leaf bodies are statement-dense
/// (nested loops and branches over ten interdependent locals) so
/// dependence-graph construction and bytecode compilation dominate the
/// parse. \p Rounds repeats the dense loop block inside every leaf with
/// round-varied constants: reaching-definition rows and postdominator
/// bitsets grow with the statement count, so per-routine analysis cost
/// rises superlinearly with Rounds while parsing stays linear — the knob
/// the benchmarks use to make recompute (not the frontend) the dominant
/// cost. Every value is bounded by `mod` and every loop's trip count is
/// small, so even high-Rounds programs execute quickly under full tracing.
std::string incrementalEditProgram(unsigned Leaves, unsigned EditedLeaf = 0,
                                   unsigned Variant = 0, unsigned Rounds = 1);

/// A layered call mesh that stresses interprocedural summary-edge
/// computation: \p Layers layers of \p Width procedures each, every
/// procedure of layer l calling *all* Width procedures of layer l+1
/// (Width^2 call sites per layer boundary). Each procedure takes two value
/// and two var parameters and reads/writes a global, so every call site
/// carries a dense actual-in/actual-out frontier and the transitive
/// formal-in -> formal-out closure must be propagated through every layer.
/// The bug is planted in the first bottom-layer procedure.
ProgramPair summaryMeshProgram(unsigned Layers, unsigned Width);

} // namespace workload
} // namespace gadt

#endif // GADT_WORKLOAD_SYNTHETIC_H
