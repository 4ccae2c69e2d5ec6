//===- DynamicSlicer.cpp - Dynamic slicing over execution trees -----------===//

#include "slicing/DynamicSlicer.h"

#include "obs/Trace.h"

#include <algorithm>

using namespace gadt;
using namespace gadt::slicing;
using namespace gadt::trace;

support::NodeSet gadt::slicing::dynamicSlice(const ExecNode *Criterion,
                                    const std::string &OutputName) {
  obs::Span Span("slice", "slicing");
  if (Span.active()) {
    Span.arg("kind", "dynamic");
    Span.arg("criterion", Criterion ? Criterion->getName()
                                    : std::string("<null>"));
    Span.arg("output", OutputName);
  }
  support::NodeSet Kept;
  if (!Criterion)
    return Kept;
  uint32_t CritId = Criterion->getId();
  uint32_t End = Criterion->subtreeEnd();
  Kept = support::NodeSet(End);
  Kept.insert(CritId);
  const interp::Binding *B = Criterion->findOutput(OutputName);
  if (const interp::DepSet *Deps = B ? Criterion->getOutputDeps(*B) : nullptr) {
    // Relevant = dependence ids inside the proper subtree (CritId, End),
    // closed over ancestry. Each dependence run, clamped to that interval,
    // is marked whole. In a preorder arena every ancestor of a node in the
    // run that lies outside it is also an ancestor of the run's first id,
    // so one walk up from there, stopping at the first marked node, closes
    // the whole run. Each node is marked at most once, so the closure is
    // linear in the slice size.
    Deps->forEachRun([&](uint32_t Lo, uint32_t Hi) {
      uint32_t L = std::max(Lo, CritId + 1);
      uint32_t E = static_cast<uint32_t>(
          std::min<uint64_t>(uint64_t(Hi) + 1, End));
      if (L >= E)
        return; // no dependence on a unit inside this subtree
      Kept.insertRange(L, E);
      for (uint32_t Id = Criterion->nodeAt(L)->getParentId();
           !Kept.contains(Id); Id = Criterion->nodeAt(Id)->getParentId())
        Kept.insert(Id);
    });
  }
  Span.arg("kept", Kept.size());
  return Kept;
}
