//===- StaticSlicer.cpp - Two-phase interprocedural slicing ---------------===//

#include "slicing/StaticSlicer.h"

#include "obs/Trace.h"

using namespace gadt;
using namespace gadt::slicing;
using namespace gadt::analysis;
using namespace gadt::pascal;

bool StaticSlice::containsRoutine(const RoutineDecl *R) const {
  if (!G)
    return false;
  SDG::RoutineRange Range = G->routineRange(R);
  return Ids.countRange(Range.Begin, Range.End) != 0;
}

bool StaticSlice::containsCallExpr(const Expr *E) const {
  const SDGCallRecord *Call = G ? G->callOf(E) : nullptr;
  if (!Call)
    return false;
  for (SDGNodeId Id : Call->ActualIns)
    if (Ids.contains(Id))
      return true;
  for (SDGNodeId Id : Call->ActualOuts)
    if (Ids.contains(Id))
      return true;
  return false;
}

namespace {

/// Computes the backward slice of \p G from \p Criteria.
StaticSlice backwardSlice(const SDG &G,
                          const std::vector<SDGNodeId> &Criteria) {
  // One visited bitset serves both phases (the final slice is the union);
  // Order doubles as the BFS queue and records discovery order, so the
  // phase-2 sweep re-scans the phase-1 frontier without a set copy.
  support::NodeSet Mark(static_cast<uint32_t>(G.nodes().size()));
  std::vector<SDGNodeId> Order;
  Order.reserve(Criteria.size());
  for (SDGNodeId C : Criteria)
    if (!Mark.contains(C)) {
      Mark.insert(C);
      Order.push_back(C);
    }

  // Phase 1: ascend to callers; summary edges stand in for callees.
  for (size_t Head = 0; Head != Order.size(); ++Head)
    for (const SDGEdge &E : G.ins(Order[Head])) {
      if (E.K == SDGEdgeKind::ParamOut || Mark.contains(E.N))
        continue;
      Mark.insert(E.N);
      Order.push_back(E.N);
    }

  // Phase 2: descend into callees from everything phase 1 marked; never
  // re-ascend.
  for (size_t Head = 0; Head != Order.size(); ++Head)
    for (const SDGEdge &E : G.ins(Order[Head])) {
      if (E.K == SDGEdgeKind::ParamIn || E.K == SDGEdgeKind::Call ||
          Mark.contains(E.N))
        continue;
      Mark.insert(E.N);
      Order.push_back(E.N);
    }

  return StaticSlice(G, std::move(Mark));
}

} // namespace

StaticSlice gadt::slicing::sliceOnRoutineOutput(const SDG &G,
                                                const RoutineDecl *R,
                                                const std::string &VarName) {
  obs::Span Span("slice", "slicing");
  if (Span.active()) {
    Span.arg("kind", "static");
    Span.arg("routine", R ? R->getName() : std::string("<null>"));
    Span.arg("output", VarName);
  }
  SDGNodeId Criterion = G.formalOut(R, VarName);
  if (Criterion == SDGNoNode && R->isFunction() && VarName == R->getName())
    Criterion = G.formalOutResult(R);
  if (Criterion == SDGNoNode)
    return StaticSlice();
  StaticSlice S = backwardSlice(G, {Criterion});
  Span.arg("nodes", S.size());
  return S;
}

StaticSlice gadt::slicing::sliceOnProgramVar(const SDG &G, const Program &P,
                                             const std::string &VarName) {
  obs::Span Span("slice", "slicing");
  if (Span.active()) {
    Span.arg("kind", "static");
    Span.arg("output", VarName);
  }
  SDGNodeId Criterion = G.formalOut(P.getMain(), VarName);
  if (Criterion == SDGNoNode)
    return StaticSlice();
  StaticSlice S = backwardSlice(G, {Criterion});
  Span.arg("nodes", S.size());
  return S;
}
