//===- StaticSlicer.h - Two-phase interprocedural slicing -------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward interprocedural slicing over the system dependence graph using
/// the Horwitz-Reps-Binkley two-phase algorithm: phase 1 walks backwards
/// without descending into callees (summary edges substitute for them),
/// phase 2 descends into callees without re-ascending. The result is a
/// context-sensitive static slice — the machinery behind the paper's
/// Section 4 and Section 7.
///
/// Both phases run over the SDG's CSR in-edge arrays with a dense id
/// bitset for the visited set, so a slice costs two adjacency sweeps and
/// no node allocations. A StaticSlice is that id set and nothing else:
/// the debugger only asks whether a statement, routine or call is in it,
/// and the SDG's own indexes turn each question into id tests.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_SLICING_STATICSLICER_H
#define GADT_SLICING_STATICSLICER_H

#include "analysis/SDG.h"
#include "support/NodeSet.h"

#include <string>
#include <utility>

namespace gadt {
namespace slicing {

/// The result of a slice: the SDG vertex ids in the slice. Immutable once
/// built, so one slice can be read from several threads.
class StaticSlice {
public:
  /// An empty slice attached to no graph.
  StaticSlice() = default;
  /// The slice of \p G made of the vertex ids \p Ids.
  StaticSlice(const analysis::SDG &G, support::NodeSet Ids)
      : G(&G), Ids(std::move(Ids)), Count(this->Ids.size()) {}

  /// True when the vertex of \p S is in the slice. Each actual-in/out
  /// vertex of a call made by \p S has a Control edge from \p S's vertex,
  /// and both slicing phases follow Control in-edges, so \p S's vertex is
  /// in the slice whenever one of its actuals is.
  bool containsStmt(const pascal::Stmt *S) const {
    return G && Ids.contains(G->stmtNode(S));
  }
  /// True when any vertex of routine \p R is in the slice.
  bool containsRoutine(const pascal::RoutineDecl *R) const;
  /// True when an actual vertex of the specific expression-position call
  /// \p E is in the slice (finer-grained than containsStmt for statements
  /// that make several calls).
  bool containsCallExpr(const pascal::Expr *E) const;

  /// The sliced vertex ids (indices into the SDG's nodes()).
  const support::NodeSet &nodes() const { return Ids; }

  size_t size() const { return Count; }

private:
  const analysis::SDG *G = nullptr;
  support::NodeSet Ids;
  size_t Count = 0;
};

/// Slice with respect to output variable \p VarName of routine \p R — the
/// criterion the debugger produces when the user flags one erroneous output
/// (paper Section 7). The formal-out vertex of the variable anchors the
/// slice. Returns an empty slice when no such vertex exists.
StaticSlice sliceOnRoutineOutput(const analysis::SDG &G,
                                 const pascal::RoutineDecl *R,
                                 const std::string &VarName);

/// Slice with respect to the value of global \p VarName at the end of the
/// program (the classic Weiser criterion of the paper's Figure 2).
StaticSlice sliceOnProgramVar(const analysis::SDG &G,
                              const pascal::Program &P,
                              const std::string &VarName);

} // namespace slicing
} // namespace gadt

#endif // GADT_SLICING_STATICSLICER_H
