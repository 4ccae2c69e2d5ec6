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
/// no node allocations. A StaticSlice therefore holds just the id set;
/// the statement/routine/variable views consumers filter with are
/// materialized lazily (and thread-safely) on first access.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_SLICING_STATICSLICER_H
#define GADT_SLICING_STATICSLICER_H

#include "analysis/SDG.h"
#include "support/NodeSet.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace gadt {
namespace slicing {

/// The result of a slice: the SDG vertex ids in the slice, with lazy
/// convenience views at statement and routine granularity. Copies are
/// cheap and share the materialized views.
class StaticSlice {
public:
  /// An empty slice attached to no graph.
  StaticSlice() = default;

  /// True when any vertex of \p S (statement, predicate or one of its
  /// actuals) is in the slice.
  bool containsStmt(const pascal::Stmt *S) const {
    return views().Stmts.count(S) != 0;
  }
  /// True when any vertex of routine \p R is in the slice.
  bool containsRoutine(const pascal::RoutineDecl *R) const {
    return views().Routines.count(R) != 0;
  }
  /// True when the specific expression-position call \p E has a vertex in
  /// the slice (finer-grained than containsStmt for statements that make
  /// several calls).
  bool containsCallExpr(const pascal::Expr *E) const {
    return views().CallExprs.count(E) != 0;
  }

  /// The sliced vertex ids (indices into graph()->nodes()).
  const support::NodeSet &nodes() const { return Ids; }
  /// The SDG the ids refer to; null for a default-constructed slice.
  const analysis::SDG *graph() const { return G; }

  const std::unordered_set<const pascal::Stmt *> &stmts() const {
    return views().Stmts;
  }
  const std::unordered_set<const pascal::RoutineDecl *> &routines() const {
    return views().Routines;
  }

  size_t size() const { return Count; }

private:
  friend StaticSlice
  backwardSlice(const analysis::SDG &,
                const std::vector<analysis::SDGNodeId> &);

  struct Views {
    std::unordered_set<const pascal::Stmt *> Stmts;
    std::unordered_set<const pascal::RoutineDecl *> Routines;
    std::unordered_set<const pascal::Expr *> CallExprs;
  };
  /// Heap cell behind a shared_ptr so slices stay copyable/movable and
  /// copies share one materialization; call_once makes first access safe
  /// when a cached const slice is read from several debugger threads.
  /// Ready mirrors the once_flag so the per-query fast path is an inlined
  /// acquire load instead of a library call — containsStmt sits in the
  /// tree pruner's per-node loop.
  struct Lazy {
    std::once_flag Once;
    std::atomic<bool> Ready{false};
    Views V;
  };
  const Views &views() const {
    if (Cache && Cache->Ready.load(std::memory_order_acquire))
      return Cache->V;
    return materializeViews();
  }
  const Views &materializeViews() const;

  const analysis::SDG *G = nullptr;
  support::NodeSet Ids;
  size_t Count = 0;
  std::shared_ptr<Lazy> Cache;
};

/// Computes the backward slice of \p G from \p Criteria.
StaticSlice backwardSlice(const analysis::SDG &G,
                          const std::vector<analysis::SDGNodeId> &Criteria);

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
